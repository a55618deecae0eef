"""Property-based tests for the sharded serving tier.

The whole-service property: for *any* interleaved event stream — dup
adopters, out-of-order timestamps, cascades scattered arbitrarily
across the hash ranges — a sharded service and one in-process
:class:`ScoringService` are bit-identical: the same applied-event
count, the same scores/labels/early-counts/features, the same
duplicate statistics.  A second property pins the eviction story:
under a tight per-shard capacity, each shard behaves exactly like a
single-process store fed only that shard's substream.

Examples are deliberately few (each one forks worker processes); the
cheap single-process half of the invariant is hammered separately in
``test_prop_serving.py``.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.embedding.model import EmbeddingModel
from repro.prediction.pipeline import PredictionDataset, ViralityPredictor
from repro.serving.registry import ModelRegistry
from repro.serving.service import ScoringService
from repro.serving.sharding import ShardedScoringService, shard_of
from repro.serving.tracker import StoreConfig
from tests.columns import event_columns

N = 12
K = 3
CASCADE_IDS = tuple(f"cascade-{i}" for i in range(8))


def make_model(seed):
    rng = np.random.default_rng(seed)
    return EmbeddingModel(rng.uniform(0, 2, (N, K)), rng.uniform(0, 2, (N, K)))


def make_predictor(seed):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(40, K))
    sizes = np.where(X[:, 0] > 0, 30, 3).astype(np.int64)
    ds = PredictionDataset(X=X, final_sizes=sizes, feature_names=tuple("xyz"))
    return ViralityPredictor(threshold=10, seed=seed).fit(ds)


@st.composite
def stream_strategy(draw, max_events=40):
    """Interleaved (cascade_id, node, t) events, dups and ties allowed."""
    size = draw(st.integers(min_value=1, max_value=max_events))
    events = []
    for j in range(size):
        cid = draw(st.sampled_from(CASCADE_IDS))
        node = draw(st.integers(min_value=0, max_value=N - 1))
        t = draw(st.floats(min_value=0, max_value=1, allow_nan=False))
        events.append((cid, node, t))
    return events


def assert_columns_equal(got, want):
    assert np.array_equal(got.ok, want.ok)
    assert np.array_equal(got.n_early, want.n_early)
    for field in ("scores", "labels", "features"):
        g, w = getattr(got, field), getattr(want, field)
        if w is None:
            assert g is None
        else:
            assert g is not None and np.array_equal(g, w, equal_nan=True)


class TestShardedParity:
    @given(
        stream_strategy(),
        st.integers(min_value=0, max_value=2**31 - 1),
        st.integers(min_value=2, max_value=3),
    )
    @settings(max_examples=8, deadline=None)
    def test_sharded_matches_single_process(self, events, seed, n_shards):
        sharded = ShardedScoringService(n_shards=n_shards)
        try:
            model, predictor = make_model(seed), make_predictor(seed)
            sharded.publish(model, predictor=predictor)
            reg = ModelRegistry()
            reg.publish(model, predictor=predictor)
            reference = ScoringService(reg)
            columns = event_columns(events)
            assert sharded.ingest_columns(*columns) == reference.ingest_columns(*columns)
            probe = list(CASCADE_IDS)
            assert_columns_equal(
                sharded.score_columns(probe, include_features=True),
                reference.score_columns(probe, include_features=True),
            )
            got, want = sharded.stats(), reference.stats()
            for key in ("ingested", "duplicates", "tracked_cascades"):
                assert got[key] == want[key]
        finally:
            sharded.close()

    @given(
        stream_strategy(max_events=60),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=6, deadline=None)
    def test_shard_equals_single_process_on_its_substream(self, events, seed):
        # tight capacity: LRU eviction must be confined to each hash
        # range, i.e. shard 0 == a capacity-2 store fed only its ids
        n_shards, capacity = 2, 2
        sharded = ShardedScoringService(n_shards=n_shards, capacity=capacity)
        try:
            model, predictor = make_model(seed), make_predictor(seed)
            sharded.publish(model, predictor=predictor)
            reg = ModelRegistry()
            reg.publish(model, predictor=predictor)
            reference = ScoringService(
                reg, store_config=StoreConfig(capacity=capacity)
            )
            substream = [e for e in events if shard_of(e[0], n_shards) == 0]
            sub_ids = [c for c in CASCADE_IDS if shard_of(c, n_shards) == 0]
            sharded.ingest_columns(*event_columns(events))
            reference.ingest_columns(*event_columns(substream))
            assert_columns_equal(
                sharded.score_columns(sub_ids, include_features=True),
                reference.score_columns(sub_ids, include_features=True),
            )
            assert (
                sharded.stats()["shards"][0]["evictions"]
                == reference.stats()["evictions"]
            )
        finally:
            sharded.close()
