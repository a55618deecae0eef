"""Unit tests for the reconnecting TCP scoring client.

The client's contract: the service's ingest and scoring surface over
the wire (an untracked cascade is a not-ok row, as in process),
at-least-once delivery across a server restart
(invisible inside the reconnect budget), a clean
:class:`ServerUnreachableError` past it, and remote "queue full"
rejects mapped onto :class:`QueueFullError` so replay backpressure
handling is transport-agnostic.  ``TestInFlightBound`` drives the
server's in-flight bound — the real source of those rejects — through
the client and the replay engine.
"""

import asyncio
import json
import socket
import threading
import time

import numpy as np
import pytest

import repro.serving.server as server_module
from repro.embedding.model import EmbeddingModel
from repro.ingest.recorder import StreamWriter
from repro.ingest.replay import ReplayConfig, replay_recording
from repro.ingest.sources import chunk_columns
from repro.prediction.pipeline import PredictionDataset, ViralityPredictor
from repro.serving.batching import QueueFullError
from repro.serving.client import (
    RemoteError,
    ServerUnreachableError,
    TCPScoringClient,
)
from repro.serving.registry import ModelRegistry
from repro.serving.server import ScoringServer, columns_to_dicts
from repro.serving.service import ScoringService
from repro.serving.tracker import StoreConfig
from tests.columns import event_columns

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


class ServerHarness:
    """A :class:`ScoringServer` on a daemon thread with its own loop.

    The sync client under test needs a live asyncio server it can talk
    to from the test thread; ``stop()`` joins the thread so restarts on
    the same port are deterministic.
    """

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


@pytest.fixture()
def harness():
    h = ServerHarness(make_service()).start()
    yield h
    h.stop()


class TestRoundTrips:
    def test_ping_ingest_score_stats(self, harness):
        with TCPScoringClient("127.0.0.1", harness.port) as client:
            assert client.ping()
            assert client.ingest("c", 3, 0.0) is True
            assert client.ingest("c", 3, 0.5) is False  # duplicate adopter
            assert client.ingest_columns(*event_columns([("d", 1, 0.6), ("d", 1, 0.7)])) == 1
            applied = client.ingest_columns(
                ["e", "e"], np.array([2, 4]), np.array([0.8, 0.9])
            )
            assert applied == 2
            response = client.score("c")
            assert response["status"] == "ok" and "score" in response
            stats = client.stats()
            assert stats["tracked_cascades"] == 3
            health = client.health()
            assert health["ready"] is True

    def test_score_many_matches_in_process_results(self, harness):
        events = [("a", 1, 0.0), ("b", 2, 0.1), ("a", 3, 0.2), ("b", 4, 0.3)]
        reference = make_service()
        reference.ingest_columns(*event_columns(events))
        with TCPScoringClient("127.0.0.1", harness.port) as client:
            client.ingest_columns(*event_columns(events))
            responses = client.score_many(["a", "b"], include_features=True)
        want = reference.score_columns(["a", "b"], include_features=True)
        assert [r["cascade"] for r in responses] == ["a", "b"]
        # bit-identical: the JSON float round trip is exact
        assert [r["score"] for r in responses] == want.scores.tolist()
        assert [r["label"] for r in responses] == want.labels.tolist()
        assert [r["n_early"] for r in responses] == want.n_early.tolist()
        assert [r["features"] for r in responses] == want.features.tolist()

    def test_pipelined_ids_restore_request_order(self, harness):
        # one group reply, rows in request order
        cids = [f"c{i}" for i in range(10)]
        with TCPScoringClient("127.0.0.1", harness.port) as client:
            for i, cid in enumerate(cids):
                client.ingest(cid, i % N, 0.01 * i)
            responses = client.score_many(cids)
        assert [r["cascade"] for r in responses] == cids


class TestFailureModes:
    def test_unreachable_raises_cleanly(self):
        client = TCPScoringClient(
            "127.0.0.1",
            1,  # reserved port: connection refused
            max_reconnects=2,
            reconnect_backoff=1e-3,
        )
        with pytest.raises(ServerUnreachableError, match="after 3 attempts"):
            client.ping()

    def test_queue_full_reject_maps_to_queue_full_error(self):
        with pytest.raises(QueueFullError):
            TCPScoringClient._check(
                {"ok": False, "error": "pending queue full (8 requests)", "id": 1}
            )

    def test_other_remote_errors_surface_as_remote_error(self):
        with pytest.raises(RemoteError, match="unknown cascade"):
            TCPScoringClient._check(
                {"ok": False, "error": "unknown cascade", "id": 2}
            )

    def test_not_ok_score_result_names_the_cascade(self, harness):
        """An untracked cascade is the server's not-ok row, returned as
        is (the in-process rule); only a reply carrying ``error`` raises."""
        row = {"ok": False, "status": "unknown_cascade", "cascade": "ghost"}
        assert TCPScoringClient._check(row) is row
        with TCPScoringClient("127.0.0.1", harness.port) as client:
            client.ingest("a", 1, 0.0)
            ok, ghost = client.score_many(["a", "ghost"])
            assert ok["ok"] is True and ok["status"] == "ok"
            assert ghost["ok"] is False and ghost["status"] == "unknown_cascade"
            assert ghost["cascade"] == "ghost" and "score" not in ghost
            single = client.score("ghost")
            assert single["ok"] is False and single["status"] == "unknown_cascade"
            assert single["cascade"] == "ghost"
            with pytest.raises(RemoteError, match="unknown op"):
                client._request({"op": "warp"})

    def test_untracked_cascades_replay_alike_on_both_transports(self, tmp_path):
        """One burst of 20 distinct cascades into a 10-cascade store,
        scored after every burst: half the group is evicted before it
        is scored.  Both transports complete the replay with the same
        scored count, and serve the same rows."""
        path = tmp_path / "wide.evs"
        cids = [f"c{i}" for i in range(20)]
        with StreamWriter(path) as writer:
            writer.write_columns(cids, np.arange(20) % N, np.linspace(0.0, 1.0, 20))
        config = ReplayConfig(speed=None, score_every=1)

        def bounded_service():
            reg = ModelRegistry()
            reg.publish(make_model(0), predictor=make_predictor(0))
            service = ScoringService(reg, store_config=StoreConfig(capacity=10))
            service.begin_serving()
            return service

        inproc = bounded_service()
        local = replay_recording(path, inproc, config)
        remote_service = bounded_service()
        harness = ServerHarness(remote_service).start()
        try:
            with TCPScoringClient("127.0.0.1", harness.port) as client:
                remote = replay_recording(path, client, config)
                rows = client.score_many(cids)
        finally:
            harness.stop()
        assert local.scored == remote.scored == 20
        assert [r["status"] for r in rows].count("unknown_cascade") == 10

        def without_latency(replies):
            return [{k: v for k, v in r.items() if k != "latency_ms"} for r in replies]

        want = columns_to_dicts(cids, inproc.score_columns(cids))
        assert without_latency(rows) == without_latency(want)

    def test_reconnects_across_a_server_restart(self):
        service = make_service()
        first = ServerHarness(service).start()
        client = TCPScoringClient(
            "127.0.0.1",
            first.port,
            max_reconnects=20,
            reconnect_backoff=0.02,
        )
        try:
            assert client.ingest("c", 3, 0.0) is True
            first.stop()
            second = ServerHarness(service, port=first.port).start()
            try:
                # at-least-once across the restart: the dropped exchange
                # is re-sent on the fresh connection
                assert client.ingest("c", 7, 0.1) is True
                assert client.stats()["tracked_cascades"] == 1
                assert client.reconnects > 0
            finally:
                client.close()
                second.stop()
        finally:
            client.close()
            first.stop()


class HeldIngestService(ScoringService):
    """A service whose calls the server offloads to its executor, as it
    does the shard router's.  An ingest burst for the cascade ``"hold"``
    parks its executor thread until :attr:`release` is set and applies
    nothing, so held requests stay in flight without changing state."""

    wants_executor_offload = True

    def __init__(self, registry):
        super().__init__(registry)
        self.release = threading.Event()
        self.parked = threading.Semaphore(0)

    def ingest_columns(self, cascade_ids, nodes, times):
        if len(cascade_ids) and cascade_ids[0] == "hold":
            self.parked.release()
            self.release.wait(10.0)
            return 0
        return super().ingest_columns(cascade_ids, nodes, times)


def held_service():
    reg = ModelRegistry()
    reg.publish(make_model(0), predictor=make_predictor(0))
    service = HeldIngestService(reg)
    service.begin_serving()
    return service


def hold_lines(ids):
    return b"".join(
        json.dumps({"op": "events", "events": [["hold", 1, 0.0]], "id": i}).encode()
        + b"\n"
        for i in ids
    )


class TestInFlightBound:
    """The server refuses data requests beyond its in-flight bound with
    an immediate ``queue full`` reply; control ops still answer."""

    BOUND = 4

    @pytest.fixture(autouse=True)
    def small_bound(self, monkeypatch):
        monkeypatch.setattr(server_module, "_MAX_IN_FLIGHT", self.BOUND)

    def test_data_ops_beyond_the_bound_get_queue_full(self):
        service = held_service()
        harness = ServerHarness(service).start()
        try:
            with socket.create_connection(("127.0.0.1", harness.port), 10.0) as sock:
                control = [
                    {"op": "ping", "id": 10},
                    {"op": "health", "id": 11},
                    {"op": "stats", "id": 12},
                ]
                sock.sendall(
                    hold_lines(range(10))
                    + b"".join(json.dumps(o).encode() + b"\n" for o in control)
                )
                rfile = sock.makefile("rb")
                # ids 0-3 hold the bound; everything else answers at once
                early = [json.loads(rfile.readline()) for _ in range(9)]
                with TCPScoringClient("127.0.0.1", harness.port) as client:
                    with pytest.raises(QueueFullError, match="queue full"):
                        client.ingest("c", 3, 0.0)
                    with pytest.raises(QueueFullError, match="queue full"):
                        client.score("c")
                    assert client.ping()
                    service.release.set()
                    late = [json.loads(rfile.readline()) for _ in range(4)]
                    stats = client.stats()
        finally:
            service.release.set()
            harness.stop()
        by_id = {r["id"]: r for r in early}
        assert sorted(by_id) == list(range(4, 13))
        for i in range(4, 10):
            assert by_id[i] == {
                "ok": False,
                "error": f"queue full: {self.BOUND} data requests in flight",
                "id": i,
            }
        assert by_id[10] == {"ok": True, "pong": True, "id": 10}
        assert by_id[11]["ok"] is True and by_id[11]["state"] == "serving"
        assert by_id[12]["stats"]["rejected"] == 6
        assert sorted(r["id"] for r in late) == [0, 1, 2, 3]
        assert all(r["ok"] and r["applied"] == 0 for r in late)
        assert stats["rejected"] == 8 and stats["shed"] == 0

    def test_replay_retries_while_the_bound_is_held(self, tmp_path):
        rng = np.random.default_rng(5)
        n = 96
        batches = list(
            chunk_columns(
                [f"c{int(rng.integers(7))}" for _ in range(n)],
                rng.integers(0, N, n),
                np.sort(rng.uniform(0, 1.0, n)),
                12,
            )
        )
        path = tmp_path / "stream.evs"
        with StreamWriter(path) as writer:
            for batch in batches:
                writer.write_batch(batch)
        service = held_service()
        harness = ServerHarness(service).start()
        holder = socket.create_connection(("127.0.0.1", harness.port), 10.0)
        outcome = {}

        def replay():
            try:
                with TCPScoringClient("127.0.0.1", harness.port) as client:
                    outcome["report"] = replay_recording(
                        path, client, ReplayConfig(speed=None)
                    )
            except Exception as exc:  # surfaced by the assertion below
                outcome["error"] = exc

        try:
            holder.sendall(hold_lines(range(self.BOUND)))
            for _ in range(self.BOUND):
                assert service.parked.acquire(timeout=10.0)
            worker = threading.Thread(target=replay)
            worker.start()
            with TCPScoringClient("127.0.0.1", harness.port) as probe:
                deadline = time.monotonic() + 10.0
                while probe.stats()["rejected"] == 0 and time.monotonic() < deadline:
                    time.sleep(0.002)
            service.release.set()
            worker.join(30.0)
        finally:
            service.release.set()
            holder.close()
            harness.stop()
        assert "error" not in outcome, outcome.get("error")
        assert outcome["report"].retries >= 1
        reference = make_service()
        for batch in batches:
            reference.ingest_columns(list(batch.cascade_ids), batch.nodes, batch.times)
        assert service.state_fingerprint() == reference.state_fingerprint()
