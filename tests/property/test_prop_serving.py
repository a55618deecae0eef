"""Property-based tests for the serving layer.

The load-bearing property: a :class:`CascadeTracker` fed events one at a
time is **bit-identical** to batch :func:`extract_features` over the
observed prefix — after *every* event, for random adoption orders
(including out-of-order timestamps and duplicate adopters), across both
feature sets, and through LRU eviction / re-admission.

The batched-ingest twin carries the same invariant: folding events
through :meth:`IncrementalFeatures.update_many` /
:meth:`FeatureStore.ingest_columns` in arbitrary burst sizes — interleaved
across cascades, through mid-burst LRU eviction, re-admission, and
model hot-swap replay — produces bit-identical features, identical LRU
order, and identical stats to the one-at-a-time path.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cascades.types import Cascade
from repro.embedding.model import EmbeddingModel
from repro.prediction.features import (
    EXTENDED_FEATURES,
    PAPER_FEATURES,
    IncrementalFeatures,
    extract_features,
)
from repro.serving.registry import ModelRegistry
from repro.serving.tracker import FeatureStore, StoreConfig
from tests.columns import event_columns

N = 10
K = 3


@st.composite
def model_strategy(draw):
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    return EmbeddingModel(rng.uniform(0, 2, (N, K)), rng.uniform(0, 2, (N, K)))


@st.composite
def event_stream(draw, min_size=0, max_size=N):
    """Adoption events in *arrival* order: distinct nodes, arbitrary
    (possibly non-monotone) finite timestamps."""
    size = draw(st.integers(min_value=min_size, max_value=max_size))
    nodes = draw(st.permutations(list(range(N))).map(lambda p: list(p[:size])))
    times = draw(
        st.lists(
            st.floats(min_value=0, max_value=1, allow_nan=False),
            min_size=size,
            max_size=size,
        )
    )
    return list(zip(nodes, times))


class TestStreamedBatchParity:
    @given(model_strategy(), event_stream(), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_bit_identical_after_every_event(self, model, events, extended):
        feature_set = EXTENDED_FEATURES if extended else PAPER_FEATURES
        inc = IncrementalFeatures(model, feature_set)
        seen = []
        for node, t in events:
            assert inc.update(node, t)
            seen.append((node, t))
            batch = extract_features(
                model,
                Cascade([n for n, _ in seen], [tt for _, tt in seen]),
                feature_set,
            )
            streamed = inc.features()
            assert np.array_equal(streamed, batch), (seen, streamed, batch)

    @given(model_strategy(), event_stream(min_size=1))
    @settings(max_examples=40, deadline=None)
    def test_duplicate_adopters_do_not_change_state(self, model, events):
        inc = IncrementalFeatures(model, EXTENDED_FEATURES)
        for node, t in events:
            inc.update(node, t)
        before = inc.features()
        node0, _ = events[0]
        assert not inc.update(node0, 2.0)  # at-least-once redelivery
        assert np.array_equal(inc.features(), before)

    @given(model_strategy(), event_stream(min_size=2))
    @settings(max_examples=40, deadline=None)
    def test_rebind_replays_identically(self, model, events):
        inc = IncrementalFeatures(model, EXTENDED_FEATURES)
        for node, t in events:
            inc.update(node, t)
        before = inc.features()
        inc.rebind(model)  # same model: a rebuild must change nothing
        assert np.array_equal(inc.features(), before)


class TestStoreParityUnderEviction:
    @given(
        model_strategy(),
        st.lists(
            st.tuples(
                st.sampled_from(["a", "b", "c", "d"]),
                st.integers(min_value=0, max_value=N - 1),
                st.floats(min_value=0, max_value=1, allow_nan=False),
            ),
            min_size=1,
            max_size=30,
        ),
        st.integers(min_value=1, max_value=3),
    )
    @settings(max_examples=40, deadline=None)
    def test_store_features_match_observed_prefix(self, model, events, capacity):
        """Under LRU pressure the tracked state is exactly the events
        observed since (re-)admission — bit-identical to a batch
        extraction over that suffix, after every single event."""
        reg = ModelRegistry()
        snap = reg.publish(model)
        store = FeatureStore(config=StoreConfig(capacity=capacity))
        observed = {}  # cid -> [(node, t)] since last (re-)admission
        for cid, node, t in events:
            if cid not in store:
                observed[cid] = []  # fresh or re-admitted: history gone
            applied = store.ingest(cid, node, t, snap)
            dup = node in {n for n, _ in observed[cid]}
            assert applied != dup
            if applied:
                observed[cid].append((node, t))
            # eviction may have dropped other cascades; prune our view
            observed = {c: ev for c, ev in observed.items() if c in store}
            assert cid in store  # the cascade just touched is never evicted
            vec = store.features(cid, snap)
            batch = extract_features(
                model,
                Cascade(
                    [n for n, _ in observed[cid]],
                    [tt for _, tt in observed[cid]],
                ),
            )
            assert np.array_equal(vec, batch)


class TestBatchedIngestParity:
    """`update_many` / `ingest_columns` ≡ one-at-a-time ≡ batch extraction."""

    @given(
        model_strategy(),
        event_stream(),
        st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=20),
        st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_update_many_bit_identical_at_every_burst_boundary(
        self, model, events, lengths, extended
    ):
        feature_set = EXTENDED_FEATURES if extended else PAPER_FEATURES
        inc = IncrementalFeatures(model, feature_set)
        seen = []
        i = b = 0
        while i < len(events):
            burst = events[i : i + lengths[b % len(lengths)]]
            i += len(burst)
            b += 1
            applied = inc.update_many(
                [n for n, _ in burst], [t for _, t in burst]
            )
            assert applied == len(burst)  # nodes are distinct by construction
            seen.extend(burst)
            batch = extract_features(
                model,
                Cascade([n for n, _ in seen], [tt for _, tt in seen]),
                feature_set,
            )
            assert np.array_equal(inc.features(), batch)

    @given(
        model_strategy(),
        st.lists(
            st.tuples(
                st.sampled_from(["a", "b", "c", "d"]),
                st.integers(min_value=0, max_value=N - 1),
                st.floats(min_value=0, max_value=1, allow_nan=False),
            ),
            min_size=0,
            max_size=36,
        ),
        st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=12),
        st.lists(st.booleans(), min_size=12, max_size=12),
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=0, max_value=2**31 - 1),
        st.booleans(),
    )
    @settings(max_examples=30, deadline=None)
    def test_ingest_many_matches_sequential_store(
        self, model, events, lengths, swaps, capacity, seed, extended
    ):
        """Interleaved bursts ≡ sequential ≡ batch: same features (bit
        for bit, against `extract_features` over the events observed
        since (re-)admission), same LRU order, same stats — through
        mid-burst eviction, re-admission, and hot-swap replay."""
        feature_set = EXTENDED_FEATURES if extended else PAPER_FEATURES
        reg = ModelRegistry()
        snap = reg.publish(model)
        cfg = StoreConfig(capacity=capacity)
        seq = FeatureStore(feature_set, config=cfg)
        bat = FeatureStore(feature_set, config=cfg)
        rng = np.random.default_rng(seed)
        observed = {}  # cid -> [(node, t)] since last (re-)admission
        i = b = 0
        while i < len(events):
            if swaps[b % len(swaps)]:  # hot-swap between bursts
                snap = reg.publish(
                    EmbeddingModel(
                        rng.uniform(0, 2, (N, K)), rng.uniform(0, 2, (N, K))
                    )
                )
            burst = events[i : i + lengths[b % len(lengths)]]
            i += len(burst)
            b += 1
            applied_seq = 0
            for cid, node, t in burst:
                if cid not in seq:
                    observed[cid] = []
                if seq.ingest(cid, node, t, snap):
                    observed[cid].append((node, t))
                    applied_seq += 1
                observed = {c: ev for c, ev in observed.items() if c in seq}
            assert bat.ingest_columns(*event_columns(burst), snap) == applied_seq
            assert bat.cascade_ids() == seq.cascade_ids()
            for cid in bat.cascade_ids():  # LRU-order touch, same on both
                vec = bat.features(cid, snap)
                assert vec is not None
                batch = extract_features(
                    snap.model,
                    Cascade(
                        [n for n, _ in observed[cid]],
                        [tt for _, tt in observed[cid]],
                    ),
                    feature_set,
                )
                assert np.array_equal(vec, batch)
                assert np.array_equal(vec, seq.features(cid, snap))
        assert vars(bat.stats) == vars(seq.stats)
