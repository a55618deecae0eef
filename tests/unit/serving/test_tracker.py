"""Unit tests for the per-cascade incremental feature store."""

import numpy as np
import pytest

from repro.cascades.types import Cascade
from repro.embedding.model import EmbeddingModel
from repro.prediction.features import EXTENDED_FEATURES, extract_features
from repro.serving.batching import ScoringWorkspace
from repro.serving.registry import ModelRegistry
from repro.serving.tracker import FeatureStore, StoreConfig
from tests.columns import event_columns


@pytest.fixture
def registry():
    rng = np.random.default_rng(0)
    reg = ModelRegistry()
    reg.publish(EmbeddingModel(rng.uniform(0, 1, (40, 4)), rng.uniform(0, 1, (40, 4))))
    return reg


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestStoreConfig:
    def test_defaults_valid(self):
        StoreConfig()

    @pytest.mark.parametrize("kwargs", [{"capacity": 0}, {"ttl": 0.0}, {"ttl": -1.0}])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            StoreConfig(**kwargs)

    @pytest.mark.parametrize("ttl", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite_ttl(self, ttl):
        with pytest.raises(ValueError, match="finite"):
            StoreConfig(ttl=ttl)


class TestIngestAndFeatures:
    def test_features_match_batch_extraction(self, registry):
        store = FeatureStore()
        snap = registry.current()
        events = [(3, 0.0), (7, 0.2), (12, 0.5), (1, 0.9)]
        for node, t in events:
            assert store.ingest("c", node, t, snap)
        vec = store.features("c", snap)
        batch = extract_features(
            snap.model,
            Cascade([n for n, _ in events], [t for _, t in events]),
        )
        assert np.array_equal(vec, batch)

    def test_unknown_cascade_returns_none(self, registry):
        store = FeatureStore()
        assert store.features("nope", registry.current()) is None

    def test_duplicate_adopter_ignored(self, registry):
        store = FeatureStore()
        snap = registry.current()
        assert store.ingest("c", 3, 0.0, snap)
        assert not store.ingest("c", 3, 0.7, snap)
        assert store.stats.duplicates == 1
        assert store.get("c").n_events == 1

    def test_cached_vector_invalidated_on_update(self, registry):
        store = FeatureStore()
        snap = registry.current()
        store.ingest("c", 3, 0.0, snap)
        v1 = store.features("c", snap)
        assert store.features("c", snap) is v1  # cached object reused
        store.ingest("c", 7, 0.2, snap)
        v2 = store.features("c", snap)
        assert v2 is not v1
        assert not np.array_equal(v1, v2)

    def test_feature_vector_read_only(self, registry):
        store = FeatureStore()
        snap = registry.current()
        store.ingest("c", 3, 0.0, snap)
        vec = store.features("c", snap)
        with pytest.raises(ValueError):
            vec[0] = 99.0


class TestLRUEviction:
    def test_capacity_bound_evicts_lru(self, registry):
        store = FeatureStore(config=StoreConfig(capacity=3))
        snap = registry.current()
        for i, cid in enumerate(["a", "b", "c"]):
            store.ingest(cid, i, 0.1 * i, snap)
        store.features("a", snap)  # touch "a": "b" becomes LRU
        store.ingest("d", 9, 1.0, snap)
        assert "b" not in store
        assert all(cid in store for cid in ("a", "c", "d"))
        assert store.stats.evictions == 1

    def test_readmission_starts_fresh(self, registry):
        store = FeatureStore(config=StoreConfig(capacity=1))
        snap = registry.current()
        store.ingest("a", 3, 0.0, snap)
        store.ingest("a", 7, 0.1, snap)
        store.ingest("b", 1, 0.2, snap)  # evicts "a"
        assert "a" not in store
        store.ingest("a", 5, 1.0, snap)  # re-admitted
        tracker = store.get("a")
        assert tracker.n_events == 1  # prior history is gone
        vec = store.features("a", snap)
        batch = extract_features(snap.model, Cascade([5], [1.0]))
        assert np.array_equal(vec, batch)


class TestTTLExpiry:
    def test_sweep_expires_idle_cascades(self, registry):
        clock = FakeClock()
        store = FeatureStore(config=StoreConfig(ttl=10.0), clock=clock)
        snap = registry.current()
        store.ingest("old", 1, 0.0, snap)
        clock.now = 8.0
        store.ingest("young", 2, 0.1, snap)
        clock.now = 15.0
        assert store.sweep() == 1
        assert "old" not in store and "young" in store
        assert store.stats.expirations == 1

    def test_sweep_without_ttl_is_noop(self, registry):
        store = FeatureStore()
        store.ingest("c", 1, 0.0, registry.current())
        assert store.sweep() == 0
        assert "c" in store

    def test_event_refreshes_ttl(self, registry):
        clock = FakeClock()
        store = FeatureStore(config=StoreConfig(ttl=10.0), clock=clock)
        snap = registry.current()
        store.ingest("c", 1, 0.0, snap)
        clock.now = 9.0
        store.ingest("c", 2, 0.5, snap)  # refreshes last_event_at
        clock.now = 15.0
        assert store.sweep() == 0
        assert "c" in store


class TestModelSwap:
    def test_lazy_rebuild_on_new_version(self, registry):
        store = FeatureStore()
        snap1 = registry.current()
        store.ingest("c", 3, 0.0, snap1)
        store.ingest("c", 7, 0.2, snap1)
        rng = np.random.default_rng(9)
        snap2 = registry.publish(
            EmbeddingModel(rng.uniform(0, 1, (40, 4)), rng.uniform(0, 1, (40, 4)))
        )
        vec = store.features("c", snap2)
        assert store.get("c").model_version == snap2.version
        batch = extract_features(snap2.model, Cascade([3, 7], [0.0, 0.2]))
        assert np.array_equal(vec, batch)
        assert store.stats.rebuilds == 1

    def test_extended_features_survive_swap(self, registry):
        store = FeatureStore(feature_set=EXTENDED_FEATURES)
        snap1 = registry.current()
        for node, t in [(3, 0.0), (7, 0.2), (12, 0.5)]:
            store.ingest("c", node, t, snap1)
        rng = np.random.default_rng(10)
        snap2 = registry.publish(
            EmbeddingModel(rng.uniform(0, 1, (40, 4)), rng.uniform(0, 1, (40, 4)))
        )
        store.ingest("c", 1, 0.9, snap2)  # swap applied mid-stream
        vec = store.features("c", snap2)
        batch = extract_features(
            snap2.model,
            Cascade([3, 7, 12, 1], [0.0, 0.2, 0.5, 0.9]),
            EXTENDED_FEATURES,
        )
        assert np.array_equal(vec, batch)


class TestDrop:
    def test_drop_forgets(self, registry):
        store = FeatureStore()
        store.ingest("c", 1, 0.0, registry.current())
        assert store.drop("c")
        assert "c" not in store
        assert not store.drop("c")

    def test_stale_view_raises_after_drop(self, registry):
        """A tracker view dies with its incarnation instead of silently
        reading whatever cascade recycled the slot."""
        store = FeatureStore()
        store.ingest("c", 1, 0.0, registry.current())
        view = store.get("c")
        store.drop("c")
        store.ingest("other", 2, 0.0, registry.current())  # recycles the slot
        with pytest.raises(LookupError, match="no longer tracked"):
            view.n_events


class TestIngestMany:
    def test_empty_burst_is_noop(self, registry):
        store = FeatureStore()
        assert store.ingest_columns(*event_columns([]), registry.current()) == 0
        assert len(store) == 0
        assert store.stats.events == 0 and store.stats.admissions == 0

    def test_single_event_burst_matches_scalar(self, registry):
        snap = registry.current()
        store = FeatureStore()
        assert store.ingest_columns(*event_columns([("c", 3, 0.5)]), snap) == 1
        vec = store.features("c", snap)
        batch = extract_features(snap.model, Cascade([3], [0.5]))
        assert np.array_equal(vec, batch)
        assert store.get("c").n_events == 1

    def test_duplicates_and_out_of_order_across_cascades(self, registry):
        """One burst interleaving two cascades, with duplicate adopters
        (within the burst and against prior state) and timestamps that
        run backwards per cascade."""
        snap = registry.current()
        store = FeatureStore()
        store.ingest("a", 1, 0.9, snap)  # pre-existing state for "a"
        burst = [
            ("a", 2, 0.5),  # out of order for "a" (0.5 < 0.9)
            ("b", 7, 0.8),
            ("a", 1, 1.0),  # duplicate vs prior state
            ("b", 9, 0.2),  # out of order for "b"
            ("b", 7, 0.3),  # duplicate within the burst
            ("a", 4, 0.1),
        ]
        assert store.ingest_columns(*event_columns(burst), snap) == 4
        assert store.stats.duplicates == 2
        vec_a = store.features("a", snap)
        vec_b = store.features("b", snap)
        batch_a = extract_features(snap.model, Cascade([1, 2, 4], [0.9, 0.5, 0.1]))
        batch_b = extract_features(snap.model, Cascade([7, 9], [0.8, 0.2]))
        assert np.array_equal(vec_a, batch_a)
        assert np.array_equal(vec_b, batch_b)

    def test_mid_burst_eviction_discards_deferred_folds(self, registry):
        """A cascade with events earlier in the burst is LRU-evicted by
        an admission later in the same burst: its queued folds die with
        it, and a still-later event re-admits it from scratch —
        exactly the sequential semantics."""
        snap = registry.current()
        store = FeatureStore(config=StoreConfig(capacity=1))
        burst = [
            ("a", 1, 0.0),
            ("a", 2, 0.1),  # deferred fold for "a"
            ("b", 3, 0.2),  # admits "b": evicts "a" with folds pending
            ("a", 4, 0.3),  # re-admits "a": evicts "b"
        ]
        assert store.ingest_columns(*event_columns(burst), snap) == 4
        assert "b" not in store and "a" in store
        assert store.stats.evictions == 2
        assert store.stats.admissions == 3
        tracker = store.get("a")
        assert tracker.n_events == 1  # pre-eviction history is gone
        vec = store.features("a", snap)
        assert np.array_equal(vec, extract_features(snap.model, Cascade([4], [0.3])))

    def test_burst_validated_atomically(self, registry):
        """An invalid event anywhere in the burst raises before any
        state changes (unlike the scalar path, which applies a prefix)."""
        snap = registry.current()
        store = FeatureStore()
        with pytest.raises(ValueError, match="outside the model universe"):
            store.ingest_columns(*event_columns([("a", 1, 0.0), ("b", 999, 0.1)]), snap)
        with pytest.raises(ValueError, match="finite"):
            store.ingest_columns(*event_columns([("a", 1, 0.0), ("b", 2, float("nan"))]), snap)
        assert len(store) == 0
        assert store.stats.events == 0 and store.stats.admissions == 0

    def test_burst_rebuilds_stale_cascade_once(self, registry):
        snap1 = registry.current()
        store = FeatureStore()
        store.ingest("c", 3, 0.0, snap1)
        rng = np.random.default_rng(11)
        snap2 = registry.publish(
            EmbeddingModel(rng.uniform(0, 1, (40, 4)), rng.uniform(0, 1, (40, 4)))
        )
        assert store.ingest_columns(*event_columns([("c", 7, 0.2), ("c", 9, 0.4)]), snap2) == 2
        assert store.stats.rebuilds == 1
        assert store.get("c").model_version == snap2.version
        vec = store.features("c", snap2)
        batch = extract_features(snap2.model, Cascade([3, 7, 9], [0.0, 0.2, 0.4]))
        assert np.array_equal(vec, batch)


class TestLazySweep:
    def test_idle_sweep_does_not_walk_trackers(self, registry):
        """Regression: a sweep over a large idle (nothing-expired) store
        must be O(1), not a scan of every tracker — the heap top is
        young, so the sweep performs zero heap operations."""
        clock = FakeClock()
        store = FeatureStore(config=StoreConfig(ttl=10.0), clock=clock)
        snap = registry.current()
        for i in range(500):
            store.ingest(f"c{i}", i % 40, 0.1 * i, snap)
        clock.now = 5.0  # nothing is close to expiring
        assert store.sweep() == 0
        assert store.stats.sweep_pops == 0

    def test_sweep_cost_tracks_expired_not_tracked(self, registry):
        """Expiring a handful of stale cascades out of many live ones
        pops O(expired) heap entries, not O(tracked)."""
        clock = FakeClock()
        store = FeatureStore(config=StoreConfig(ttl=10.0), clock=clock)
        snap = registry.current()
        for i in range(10):  # stale cohort, admitted at t=0
            store.ingest(f"old{i}", i, 0.0, snap)
        clock.now = 8.0
        for i in range(200):  # fresh cohort
            store.ingest(f"new{i}", (10 + i) % 40, 0.1, snap)
        clock.now = 15.0
        assert store.sweep() == 10
        assert store.stats.sweep_pops == 10
        assert len(store) == 200

    def test_refreshed_entry_requeued_not_expired(self, registry):
        clock = FakeClock()
        store = FeatureStore(config=StoreConfig(ttl=10.0), clock=clock)
        snap = registry.current()
        store.ingest("c", 1, 0.0, snap)
        clock.now = 9.0
        store.ingest("c", 2, 0.5, snap)  # refreshes the column only
        clock.now = 15.0
        assert store.sweep() == 0  # heap entry re-queued at t=9, not popped
        assert "c" in store
        assert store.stats.sweep_pops == 1  # one refresh re-queue, no scan
        clock.now = 25.0
        assert store.sweep() == 1  # and it does expire once truly stale

    def test_evicted_incarnation_entry_skipped_as_stale(self, registry):
        clock = FakeClock()
        store = FeatureStore(config=StoreConfig(capacity=1, ttl=10.0), clock=clock)
        snap = registry.current()
        store.ingest("a", 1, 0.0, snap)
        store.ingest("b", 2, 0.1, snap)  # evicts "a"; its heap entry is stale
        clock.now = 15.0
        assert store.sweep() == 1  # only "b" expires
        assert store.stats.expirations == 1


class TestGatherBatch:
    def test_gather_matches_per_id_features(self, registry):
        snap = registry.current()
        store = FeatureStore()
        for cid, node, t in [("a", 1, 0.0), ("b", 2, 0.1), ("a", 3, 0.2)]:
            store.ingest(cid, node, t, snap)
        ws = ScoringWorkspace()
        x, row_of, n_events = store.gather_batch(["b", "nope", "a"], snap, ws)
        assert x.shape == (2, len(store.feature_set))
        assert row_of.tolist() == [0, -1, 1]
        assert n_events.tolist() == [1, 0, 2]
        assert np.array_equal(x[0], store.features("b", snap))
        assert np.array_equal(x[1], store.features("a", snap))

    def test_gather_reuses_workspace_buffers(self, registry):
        snap = registry.current()
        store = FeatureStore()
        for i in range(8):
            store.ingest(f"c{i}", i, 0.1 * i, snap)
        ws = ScoringWorkspace()
        ids = [f"c{i}" for i in range(8)]
        x1, _, _ = store.gather_batch(ids, snap, ws)
        base1 = x1.base if x1.base is not None else x1
        x2, _, _ = store.gather_batch(ids, snap, ws)
        base2 = x2.base if x2.base is not None else x2
        assert base1 is base2  # same pooled buffer, no reallocation
