"""Unit tests for the sharded multi-process serving tier.

The load-bearing contract: a :class:`ShardedScoringService` fed a
stream of events is **bit-identical** to one in-process
:class:`ScoringService` fed the same stream — scores, labels, early
counts, features, duplicate filtering — including after a shard is
SIGKILLed mid-session and the watchdog restarts it from its journal.
Model hot-swap must land the same version on every shard (one shared
segment, N attaches), and backpressure must be per hash range.

The SIGKILL crash tests double as the sharding leg of ``make chaos``.
"""

import os
import signal

import numpy as np
import pytest

from repro.embedding.model import EmbeddingModel
from repro.prediction.pipeline import PredictionDataset, ViralityPredictor
from repro.serving.batching import BatchPolicy, QueueFullError
from repro.serving.registry import ModelRegistry
from repro.serving.service import ScoringService
from repro.serving.sharding import (
    ShardedScoringService,
    ShardStartupError,
    shard_of,
)
from repro.serving.tracker import StoreConfig


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
    return ScoringService(reg, policy=BatchPolicy(max_batch=64, max_delay=0.0))


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


class TestBitIdentity:
    def test_score_columns_matches_single_process(self):
        cids, events = make_stream(seed=1)
        sharded = make_sharded(n_shards=3, seed=1)
        try:
            reference = make_reference(seed=1)
            assert sharded.ingest_many(events) == reference.ingest_many(events)
            probe = cids + ["never-seen"]
            got = sharded.score_columns(probe, include_features=True)
            want = reference.score_columns(probe, include_features=True)
            assert_columns_equal(got, want)
            assert got.model_version == want.model_version == 1
        finally:
            sharded.close()

    def test_flush_path_matches_single_process(self):
        cids, events = make_stream(seed=2)
        sharded = make_sharded(n_shards=3, seed=2)
        try:
            reference = make_reference(seed=2)
            sharded.ingest_many(events)
            reference.ingest_many(events)
            sharded.submit_many(cids)
            reference.submit_many(cids)
            got = {r.cascade_id: r for r in sharded.flush()}
            want = {r.cascade_id: r for r in reference.flush()}
            assert set(got) == set(want) == set(cids)
            for cid in cids:
                g, w = got[cid], want[cid]
                assert (g.status, g.score, g.label, g.n_early) == (
                    w.status,
                    w.score,
                    w.label,
                    w.n_early,
                )
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

    def test_flush_spanning_shards_is_one_batch(self):
        """The router flush drains every shard into one fan-out: one
        batch in submit order, features only where asked, each request's
        own queued time, rows equal to ``score_columns``."""
        clock = [0.0]
        policy = BatchPolicy(max_batch=8, max_delay=60.0)
        sharded = make_sharded(n_shards=2, seed=7, policy=policy, clock=lambda: clock[0])
        try:
            cids, events = make_stream(seed=7)
            sharded.ingest_many(events)
            on0 = [c for c in cids if shard_of(c, 2) == 0]
            on1 = [c for c in cids if shard_of(c, 2) == 1]
            asks = [
                (on1[0], True),
                (on0[0], False),
                ("ghost", True),
                (on1[1], False),
                (on0[1], True),
            ]
            requests = []
            for t, (cid, asked) in enumerate(asks):
                clock[0] = float(t)
                requests.append(sharded.submit(cid, include_features=asked))
            clock[0] = 10.0
            results = sharded.flush()
            ids = [cid for cid, _ in asks]
            want = sharded.score_columns(ids, include_features=True)
            assert [r.request_id for r in results] == [r.request_id for r in requests]
            assert [r.cascade_id for r in results] == ids
            assert [r.result for r in requests] == results
            for i, (result, (_, asked)) in enumerate(zip(results, asks)):
                assert result.latency.queued_s == 10.0 - i
                assert result.latency.batch_size == len(asks)
                assert result.ok == want.ok[i]
                assert result.n_early == want.n_early[i]
                if result.ok:
                    assert result.score == want.scores[i]
                    assert result.label == want.labels[i]
                if result.ok and asked:
                    assert (result.features == want.features[i]).all()
                else:
                    assert result.features is None
        finally:
            sharded.close()

    def test_duplicate_filtering_matches(self):
        sharded = make_sharded(n_shards=2)
        try:
            reference = make_reference()
            events = [("c", 3, 0.0), ("c", 3, 0.1), ("d", 3, 0.2), ("c", 4, 0.3)]
            assert sharded.ingest_many(events) == reference.ingest_many(events)
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
            sharded.ingest_many(events)
            reference.ingest_many(substream)
            got = sharded.score_columns(sub_cids, include_features=True)
            want = reference.score_columns(sub_cids, include_features=True)
            assert_columns_equal(got, want)
            assert (
                sharded.stats()["shards"][0]["evictions"]
                == reference.stats()["evictions"]
            )
        finally:
            sharded.close()


class TestFlushFailure:
    def test_unpublished_router_flush_finishes_its_request_as_failed(self):
        sharded = ShardedScoringService(n_shards=2)
        try:
            request = sharded.submit("c")
            (result,) = sharded.flush()
            assert result.status == "failed" and not result.ok
            assert request.result is result
            assert sharded.pending() == 0
            assert sharded.stats()["failed"] == 1
            faults = sharded.health_snapshot()["router"]["recent_faults"]
            assert [f["kind"] for f in faults] == ["flush_failed"]
            with pytest.raises(LookupError):  # as one process raises
                sharded.score_columns([])
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
            sharded.ingest_many(events)
            reference.ingest_many(events)
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


class TestBackpressure:
    def test_rejection_is_per_shard(self):
        policy = BatchPolicy(max_batch=4, max_delay=60.0, max_pending=1024)
        sharded = make_sharded(n_shards=2, policy=policy, shard_backlog=4)
        try:
            on_zero = [f"z{i}" for i in range(200) if shard_of(f"z{i}", 2) == 0]
            on_one = [f"o{i}" for i in range(200) if shard_of(f"o{i}", 2) == 1]
            for cid in on_zero[:4]:
                sharded.submit(cid)
            with pytest.raises(QueueFullError):
                sharded.submit(on_zero[4])
            # the sibling's hash range is unaffected
            sharded.submit(on_one[0])
            assert sharded.stats()["rejected"] == 1
            assert sharded.pending() == 5
        finally:
            sharded.close()

    def test_backlog_below_batch_rejected_by_policy(self):
        with pytest.raises(ValueError):
            ShardedScoringService(
                n_shards=2,
                policy=BatchPolicy(max_batch=8, max_pending=1024),
                shard_backlog=4,
            )


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
            applied = sharded.ingest_many(events)
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
            sharded.ingest_many([("a", 3, 0.0), ("b", 5, 0.1)])
            sharded.submit_many(["a", "b"])
            assert sharded.drain() == 2
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
            sharded.ingest_many(events[:half])
            reference.ingest_many(events[:half])
            self._kill_shard(sharded, 1)
            # the next fan-out touching shard 1 triggers the watchdog:
            # restart, journal replay, transparent retry of the burst
            assert sharded.ingest_many(events[half:]) == reference.ingest_many(
                events[half:]
            )
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
            reference.ingest_many([("c", 3, 0.0), ("d", 5, 0.1)])
            got = sharded.score_columns(["c", "d"])
            want = reference.score_columns(["c", "d"])
            assert np.array_equal(got.scores, want.scores)
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
