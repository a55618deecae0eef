"""Chaos tests for the replay engine (the ingest leg of ``make chaos``).

Three failure modes, one invariant: whatever breaks mid-replay — a
consumer that cannot keep up, a scoring server that dies and comes
back, a SIGKILLed shard — the replayed state must end up equal to a
direct, uninterrupted ingest of the same recorded stream.
"""

import asyncio
import os
import signal
import threading
import time

import numpy as np
import pytest

from repro.embedding.model import EmbeddingModel
from repro.ingest.recorder import StreamWriter
from repro.ingest.replay import ReplayConfig, replay_recording
from repro.ingest.sources import chunk_columns
from repro.prediction.pipeline import PredictionDataset, ViralityPredictor
from repro.serving.client import TCPScoringClient
from repro.serving.durability import EventJournal, JournalConfig, recover_service
from repro.serving.registry import ModelRegistry
from repro.serving.server import ScoringServer
from repro.serving.service import ScoringService
from repro.serving.sharding import ShardedScoringService

N = 30


def make_model(seed):
    rng = np.random.default_rng(seed)
    return EmbeddingModel(rng.uniform(0, 1, (N, 3)), rng.uniform(0, 1, (N, 3)))


def make_predictor(seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(60, 3))
    sizes = np.where(X[:, 0] > 0, 30, 3).astype(np.int64)
    ds = PredictionDataset(X=X, final_sizes=sizes, feature_names=tuple("xyz"))
    return ViralityPredictor(threshold=10, seed=seed).fit(ds)


def make_service(seed=0):
    reg = ModelRegistry()
    reg.publish(make_model(seed), predictor=make_predictor(seed))
    service = ScoringService(reg)
    service.begin_serving()
    return service


def make_stream_batches(seed=0, n_events=120, n_cascades=9, chunk=12):
    rng = np.random.default_rng(seed)
    cids = [f"c{int(rng.integers(n_cascades))}" for _ in range(n_events)]
    nodes = rng.integers(0, N, n_events)
    times = np.sort(rng.uniform(0, 2.0, n_events))
    return list(chunk_columns(cids, nodes, times, chunk))


def record(tmp_path, batches, name="chaos.evs"):
    path = tmp_path / name
    with StreamWriter(path) as w:
        for b in batches:
            w.write_batch(b)
    return path


def direct_ingest(batches, seed=0):
    service = make_service(seed)
    for b in batches:
        service.ingest_columns(list(b.cascade_ids), b.nodes, b.times)
    return service


def all_cids(batches):
    return sorted({c for b in batches for c in b.cascade_ids})


class ServerHarness:
    """A :class:`ScoringServer` on a daemon thread (see test_tcp_client)."""

    def __init__(self, service, port=0):
        self.service = service
        self.port = port
        self._ready = threading.Event()
        self._loop = None
        self._stop_event = None
        self._thread = None
        self._error = None

    def start(self):
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        if not self._ready.wait(10.0):
            raise RuntimeError("server thread did not start")
        if self._error is not None:
            raise self._error
        return self

    def _run(self):
        async def main():
            self._loop = asyncio.get_running_loop()
            self._stop_event = asyncio.Event()
            server = ScoringServer(self.service, port=self.port)
            try:
                await server.start()
            except Exception as exc:  # pragma: no cover - startup failure
                self._error = exc
                self._ready.set()
                return
            self.port = server.port
            self._ready.set()
            await self._stop_event.wait()
            await server.stop()

        asyncio.run(main())

    def stop(self):
        if self._loop is not None and self._thread.is_alive():
            self._loop.call_soon_threadsafe(self._stop_event.set)
        self._thread.join(10.0)


class SlowTarget:
    """Delegates ingest to a real service, slowly."""

    wants_executor_offload = True  # sleep off the event loop

    def __init__(self, service, delay_s):
        self.service = service
        self.delay_s = delay_s

    def ingest_columns(self, cids, nodes, times):
        time.sleep(self.delay_s)
        return self.service.ingest_columns(cids, nodes, times)


class TestSlowConsumer:
    def test_backpressure_stalls_but_state_is_identical(self, tmp_path):
        batches = make_stream_batches(seed=1)
        path = record(tmp_path, batches)
        service = make_service(seed=1)
        report = replay_recording(
            path,
            SlowTarget(service, delay_s=0.01),
            ReplayConfig(speed=None, max_inflight=1),
        )
        # the producer outruns the 10ms-per-burst consumer: the bounded
        # queue must fill (stalls) without dropping or reordering
        assert report.stalls > 0 and report.stall_s > 0.0
        assert report.dropped_events == 0
        assert report.events == sum(len(b) for b in batches)
        direct = direct_ingest(batches, seed=1)
        assert service.state_fingerprint() == direct.state_fingerprint()
        cids = all_cids(batches)
        assert np.array_equal(
            service.score_columns(cids).scores,
            direct.score_columns(cids).scores,
        )


class TestServerRestartMidReplay:
    def test_replay_survives_one_restart(self, tmp_path):
        batches = make_stream_batches(seed=2)
        path = record(tmp_path, batches)

        config = JournalConfig(directory=tmp_path / "wal")
        service = ScoringService(ModelRegistry())
        service.attach_journal(EventJournal(config))
        # publish *after* attach so the swap record lands in the journal
        service.publish(make_model(2), predictor=make_predictor(2), source="seed")
        service.begin_serving()
        harness = ServerHarness(service)
        harness.start()
        port = harness.port
        state = {"harness": harness, "service": service, "restarted": False}

        def kill_and_recover(progress):
            if progress.bursts != 4 or state["restarted"]:
                return
            state["restarted"] = True
            state["harness"].stop()
            state["service"].seal_journal()
            recovered, _ = recover_service(config)
            recovered.begin_serving()
            state["service"] = recovered
            state["harness"] = ServerHarness(recovered, port=port).start()

        client = TCPScoringClient(
            "127.0.0.1",
            port,
            max_reconnects=20,
            reconnect_backoff=0.02,
        )
        try:
            # every burst is scored too: a score_many exchange in flight at
            # the restart is re-sent, which is safe because it is read-only
            report = replay_recording(
                path,
                client,
                ReplayConfig(speed=None, score_every=1),
                progress=kill_and_recover,
            )
        finally:
            client.close()
            state["harness"].stop()

        assert state["restarted"]
        assert report.bursts == len(batches)
        assert report.dropped_events == 0
        # every burst's cascades were scored once, the restart included
        assert report.scored == sum(len(set(b.cascade_ids)) for b in batches)
        # at-least-once delivery: the burst in flight at the restart may
        # be re-sent, so compare scores (dup-filtered), not ack counts
        direct = direct_ingest(batches, seed=2)
        cids = all_cids(batches)
        got = state["service"].score_columns(cids, include_features=True)
        want = direct.score_columns(cids, include_features=True)
        assert np.array_equal(got.scores, want.scores)
        assert np.array_equal(got.features, want.features)


class TestShardSigkillMidReplay:
    def test_replay_survives_a_shard_crash(self, tmp_path):
        batches = make_stream_batches(seed=3)
        path = record(tmp_path, batches)

        sharded = ShardedScoringService(
            n_shards=2, journal_dir=tmp_path / "shards"
        )
        sharded.publish(make_model(3), predictor=make_predictor(3))
        sharded.begin_serving()
        killed = {"done": False}

        def kill_shard(progress):
            if progress.bursts != 3 or killed["done"]:
                return
            killed["done"] = True
            process = sharded._handles[1].process
            os.kill(process.pid, signal.SIGKILL)
            process.join(timeout=10)

        try:
            report = replay_recording(
                path,
                sharded,
                ReplayConfig(speed=None),
                progress=kill_shard,
            )
            assert killed["done"]
            assert report.events == sum(len(b) for b in batches)
            # the watchdog restarted shard 1 from its journal and the
            # interrupted fan-out retried transparently
            assert sharded.stats()["shard_restarts"] == 1
            direct = direct_ingest(batches, seed=3)
            cids = all_cids(batches)
            got = sharded.score_columns(cids, include_features=True)
            want = direct.score_columns(cids, include_features=True)
            assert np.array_equal(got.scores, want.scores)
            assert np.array_equal(got.features, want.features)
        finally:
            sharded.close()
