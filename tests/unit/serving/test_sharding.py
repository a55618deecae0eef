"""Unit tests for the sharded multi-process serving tier.

The load-bearing contract: a :class:`ShardedScoringService` fed a
stream of events is **bit-identical** to one in-process
:class:`ScoringService` fed the same stream — scores, labels, early
counts, features, duplicate filtering — including after a shard is
SIGKILLed mid-session and the watchdog restarts it from its journal.
Model hot-swap must land the same version on every shard (one shared
segment, N attaches).

The SIGKILL crash tests double as the sharding leg of ``make chaos``.
"""

import os
import signal
import time

import numpy as np
import pytest

from repro.embedding.model import EmbeddingModel
from repro.prediction.pipeline import PredictionDataset, ViralityPredictor
from repro.serving import sharding
from repro.serving.registry import ModelRegistry
from repro.serving.service import ScoringService
from repro.serving.sharding import (
    ShardedScoringService,
    ShardStartupError,
    shard_of,
)
from repro.serving.tracker import StoreConfig
from tests.columns import event_columns


def make_model(seed, n=30, k=3):
    rng = np.random.default_rng(seed)
    return EmbeddingModel(rng.uniform(0, 1, (n, k)), rng.uniform(0, 1, (n, k)))


def make_predictor(seed=0, d=3):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(60, d))
    sizes = np.where(X[:, 0] + 0.3 * rng.normal(size=60) > 0, 30, 3).astype(np.int64)
    ds = PredictionDataset(X=X, final_sizes=sizes, feature_names=tuple("xyz"))
    return ViralityPredictor(threshold=10, seed=seed).fit(ds)


def make_stream(seed, n_cascades=12, n_events=60, n_nodes=30):
    """Arrival-ordered events interleaved across cascades (with dups)."""
    rng = np.random.default_rng(seed)
    cids = [f"c{i:03d}" for i in range(n_cascades)]
    events = []
    for j in range(n_events):
        cid = cids[int(rng.integers(n_cascades))]
        node = int(rng.integers(n_nodes))
        events.append((cid, node, float(j) * 0.01))
    return cids, events


def make_sharded(n_shards=3, seed=0, journal_dir=None, **kw):
    svc = ShardedScoringService(n_shards=n_shards, journal_dir=journal_dir, **kw)
    svc.publish(make_model(seed), predictor=make_predictor(seed))
    svc.begin_serving()
    return svc


def make_reference(seed=0):
    reg = ModelRegistry()
    reg.publish(make_model(seed), predictor=make_predictor(seed))
    return ScoringService(reg)


def assert_columns_equal(got, want):
    assert np.array_equal(got.ok, want.ok)
    assert np.array_equal(got.n_early, want.n_early)
    for field in ("scores", "labels", "features"):
        g, w = getattr(got, field), getattr(want, field)
        if w is None:
            assert g is None
        else:
            assert g is not None and np.array_equal(g, w, equal_nan=True)


class TestShardOf:
    def test_pinned_golden_values(self):
        # crc32 routing must stay process- and version-stable: a changed
        # constant here silently reshards every journal on disk.
        assert shard_of("c000", 4) == 2
        assert shard_of("c001", 4) == 0
        assert shard_of("", 4) == 0

    def test_range_and_coverage(self):
        hits = {shard_of(f"id-{i}", 4) for i in range(200)}
        assert hits == {0, 1, 2, 3}

    def test_single_shard_is_always_zero(self):
        assert all(shard_of(f"id-{i}", 1) == 0 for i in range(50))


class TestConstruction:
    def test_rejects_nonpositive_shards(self):
        with pytest.raises(ValueError):
            ShardedScoringService(n_shards=0)

    def test_recover_without_journal_fails_cleanly(self, tmp_path):
        with pytest.raises(ShardStartupError) as exc_info:
            ShardedScoringService(
                n_shards=2, journal_dir=tmp_path / "nothing", recover=True
            )
        assert "shard 0" in str(exc_info.value)


class TestConcurrentStartup:
    """The router forks every worker before it waits on any handshake,
    so shard builds and journal replays overlap."""

    N = 3

    def _gate_builds(self, monkeypatch, tmp_path, fail_shard=None):
        """Each worker leaves its pid, then builds only once every
        sibling has been forked; a router that awaited shard 0 before
        forking shard 1 would leave shard 0 waiting forever."""
        real = sharding._build_shard_service

        def gated(plan):
            (tmp_path / f"forked-{plan.shard_id}").write_text(str(os.getpid()))
            deadline = time.monotonic() + 5.0
            while not all((tmp_path / f"forked-{i}").exists() for i in range(self.N)):
                if time.monotonic() > deadline:
                    raise RuntimeError("siblings were not forked while this shard built")
                time.sleep(0.01)
            if plan.shard_id == fail_shard:
                raise RuntimeError("injected build failure")
            return real(plan)

        monkeypatch.setattr(sharding, "_build_shard_service", gated)

    def test_every_worker_forks_before_any_handshake(self, monkeypatch, tmp_path):
        self._gate_builds(monkeypatch, tmp_path)
        svc = ShardedScoringService(n_shards=self.N)
        try:
            assert [h.shard_id for h in svc._handles] == list(range(self.N))
            assert all(h.process.is_alive() for h in svc._handles)
        finally:
            svc.close()

    def test_failed_handshake_tears_every_worker_down(self, monkeypatch, tmp_path):
        self._gate_builds(monkeypatch, tmp_path, fail_shard=1)
        with pytest.raises(ShardStartupError, match="shard 1 failed to start"):
            ShardedScoringService(n_shards=self.N)
        for i in range(self.N):
            pid = int((tmp_path / f"forked-{i}").read_text())
            with pytest.raises(ProcessLookupError):  # exited and reaped
                os.kill(pid, 0)


class TestBitIdentity:
    def test_score_columns_matches_single_process(self):
        cids, events = make_stream(seed=1)
        sharded = make_sharded(n_shards=3, seed=1)
        try:
            reference = make_reference(seed=1)
            columns = event_columns(events)
            assert sharded.ingest_columns(*columns) == reference.ingest_columns(*columns)
            probe = cids + ["never-seen"]
            got = sharded.score_columns(probe, include_features=True)
            want = reference.score_columns(probe, include_features=True)
            assert_columns_equal(got, want)
            assert got.model_version == want.model_version == 1
        finally:
            sharded.close()

    @pytest.mark.parametrize("include_features", [False, True])
    def test_empty_group_matches_single_process(self, include_features):
        sharded = make_sharded(n_shards=2)
        try:
            want = make_reference().score_columns([], include_features=include_features)
            got = sharded.score_columns([], include_features=include_features)
            assert_columns_equal(got, want)
        finally:
            sharded.close()

    def test_duplicate_filtering_matches(self):
        sharded = make_sharded(n_shards=2)
        try:
            reference = make_reference()
            events = [("c", 3, 0.0), ("c", 3, 0.1), ("d", 3, 0.2), ("c", 4, 0.3)]
            columns = event_columns(events)
            assert sharded.ingest_columns(*columns) == reference.ingest_columns(*columns)
            assert (
                sharded.stats()["duplicates"]
                == reference.stats()["duplicates"]
                == 1
            )
        finally:
            sharded.close()

    def test_eviction_parity_per_shard(self):
        # A 3-cascade-capacity shard evicts exactly like a 3-capacity
        # single-process store fed only that shard's substream.
        n_shards, capacity = 2, 3
        cids, events = make_stream(seed=3, n_cascades=10, n_events=80)
        sharded = make_sharded(n_shards=n_shards, capacity=capacity)
        try:
            reg = ModelRegistry()
            reg.publish(make_model(0), predictor=make_predictor(0))
            reference = ScoringService(
                reg, store_config=StoreConfig(capacity=capacity)
            )
            substream = [e for e in events if shard_of(e[0], n_shards) == 0]
            sub_cids = [c for c in cids if shard_of(c, n_shards) == 0]
            assert substream, "stream must touch shard 0"
            sharded.ingest_columns(*event_columns(events))
            reference.ingest_columns(*event_columns(substream))
            got = sharded.score_columns(sub_cids, include_features=True)
            want = reference.score_columns(sub_cids, include_features=True)
            assert_columns_equal(got, want)
            assert (
                sharded.stats()["shards"][0]["evictions"]
                == reference.stats()["evictions"]
            )
        finally:
            sharded.close()


class TestUnpublished:
    def test_unpublished_router_refuses_to_score(self):
        sharded = ShardedScoringService(n_shards=2)
        try:
            for group in ([], ["c"]):
                with pytest.raises(LookupError):  # as one process raises
                    sharded.score_columns(group)
        finally:
            sharded.close()


class TestPublish:
    def test_swap_storm_converges_everywhere(self):
        sharded = make_sharded(n_shards=3, seed=0)
        try:
            for seed in range(1, 6):
                sharded.publish(make_model(seed), predictor=make_predictor(seed))
            stats = sharded.stats()
            assert stats["model_version"] == 6
            assert all(s["model_version"] == 6 for s in stats["shards"])
            # every shard serves the final model, bit-identically
            reference = make_reference(seed=5)
            # advance the reference registry to the same version number
            for _ in range(5):
                reference.registry.publish(
                    make_model(5), predictor=make_predictor(5)
                )
            events = make_stream(seed=4)[1]
            sharded.ingest_columns(*event_columns(events))
            reference.ingest_columns(*event_columns(events))
            cids = sorted({e[0] for e in events})
            assert_columns_equal(
                sharded.score_columns(cids), reference.score_columns(cids)
            )
        finally:
            sharded.close()

    def test_bad_swap_artifact_pins_last_good_model(self, tmp_path):
        from repro.serving.registry import SnapshotLoadError

        sharded = make_sharded(n_shards=2)
        try:
            bad = tmp_path / "bad.npz"
            bad.write_bytes(b"this is not an npz archive")
            with pytest.raises(SnapshotLoadError):
                sharded.swap_path(bad)
            stats = sharded.stats()
            assert stats["model_version"] == 1
            assert stats["load_failures"] == 1
            sharded.ingest("c", 3, 0.0)
            assert sharded.score("c").ok
        finally:
            sharded.close()


class TestLifecycle:
    def test_health_aggregates_all_shards(self):
        sharded = make_sharded(n_shards=3)
        try:
            snap = sharded.health_snapshot()
            assert snap["ready"] and snap["healthy"]
            assert snap["state"] == "serving"
            assert snap["n_shards"] == 3
            assert len(snap["shards"]) == 3
            assert all(s["ready"] for s in snap["shards"])
        finally:
            sharded.close()

    def test_stats_aggregates_across_shards(self):
        cids, events = make_stream(seed=5)
        sharded = make_sharded(n_shards=3)
        try:
            applied = sharded.ingest_columns(*event_columns(events))
            sharded.score_columns(cids)
            stats = sharded.stats()
            assert stats["n_shards"] == 3 and stats["shard_restarts"] == 0
            assert stats["ingested"] == applied
            assert stats["tracked_cascades"] == len(cids)
            assert sum(
                s["tracked_cascades"] for s in stats["shards"]
            ) == len(cids)
            assert stats["scored"] == len(cids)
        finally:
            sharded.close()

    def test_drain_flushes_then_stops(self):
        sharded = make_sharded(n_shards=2)
        try:
            sharded.ingest_columns(*event_columns([("a", 3, 0.0), ("b", 5, 0.1)]))
            sharded.drain()
            assert sharded.health_snapshot()["state"] == "stopped"
        finally:
            sharded.close()


class TestCrashRecovery:
    """The chaos leg: SIGKILL a shard mid-session, expect bit-identity."""

    def _kill_shard(self, sharded, shard_id):
        process = sharded._handles[shard_id].process
        os.kill(process.pid, signal.SIGKILL)
        process.join(timeout=10)

    def test_sigkill_mid_burst_recovers_bit_identical(self, tmp_path):
        cids, events = make_stream(seed=6)
        sharded = make_sharded(n_shards=3, seed=6, journal_dir=tmp_path)
        try:
            reference = make_reference(seed=6)
            half = len(events) // 2
            sharded.ingest_columns(*event_columns(events[:half]))
            reference.ingest_columns(*event_columns(events[:half]))
            self._kill_shard(sharded, 1)
            # the next fan-out touching shard 1 triggers the watchdog:
            # restart, journal replay, transparent retry of the burst
            tail = event_columns(events[half:])
            assert sharded.ingest_columns(*tail) == reference.ingest_columns(*tail)
            assert_columns_equal(
                sharded.score_columns(cids, include_features=True),
                reference.score_columns(cids, include_features=True),
            )
            assert sharded.stats()["shard_restarts"] == 1
            snap = sharded.health_snapshot()
            assert snap["ready"] and snap["state"] == "serving"
        finally:
            sharded.close()

    def test_swap_storm_survives_crash(self, tmp_path):
        sharded = make_sharded(n_shards=3, seed=0, journal_dir=tmp_path)
        try:
            sharded.ingest("c", 3, 0.0)
            self._kill_shard(sharded, 0)
            for seed in range(1, 4):
                sharded.publish(make_model(seed), predictor=make_predictor(seed))
            stats = sharded.stats()
            # version counters may skew on the restarted shard (journal
            # replay + re-broadcast both bump it); what must converge is
            # the model itself — one fingerprint everywhere.
            assert stats["shard_restarts"] == 1
            assert len({h.fingerprint for h in sharded._handles}) == 1
            sharded.ingest("d", 5, 0.1)
            reference = make_reference(seed=3)
            reference.ingest_columns(*event_columns([("c", 3, 0.0), ("d", 5, 0.1)]))
            got = sharded.score_columns(["c", "d"])
            want = reference.score_columns(["c", "d"])
            assert np.array_equal(got.scores, want.scores)
        finally:
            sharded.close()

    def test_health_reports_a_shard_that_cannot_restart_as_dead(self, monkeypatch):
        sharded = make_sharded(n_shards=2, seed=0)
        try:
            self._kill_shard(sharded, 1)

            def broken(plan):
                raise RuntimeError("injected build failure")

            monkeypatch.setattr(sharding, "_build_shard_service", broken)
            snap = sharded.health_snapshot()
            assert snap["ready"] is False
            assert snap["shards"][0]["ready"] is True
            dead = snap["shards"][1]
            assert dead["state"] == "dead" and dead["ready"] is False
            assert "injected build failure" in dead["degraded_reasons"]["dead"]
        finally:
            sharded.close()

    def test_unjournaled_shard_restarts_empty(self):
        # without a journal the watchdog still restarts the worker; its
        # hash range simply forgets (and reports unknown) — no hang.
        sharded = make_sharded(n_shards=2, seed=0)
        try:
            target = next(
                f"c{i}" for i in range(100) if shard_of(f"c{i}", 2) == 1
            )
            sharded.ingest(target, 3, 0.0)
            self._kill_shard(sharded, 1)
            result = sharded.score(target)
            assert result.status == "unknown_cascade"
            assert sharded.stats()["shard_restarts"] == 1
        finally:
            sharded.close()
