"""Column-refresh property suite: one feature-row pass against the per-row refresh.

Scoring reads each cascade's feature vector from the store's cached row
matrix.  A stale row used to be refreshed one cascade at a time:
``FeatureStore._refresh_row`` called ``IncrementalFeatures.features_into``,
which called ``_value`` once per feature.  Those are kept below verbatim
as the reference (``ReferenceRow`` and ``ReferenceStore``).
:func:`repro.prediction.features.feature_rows` now refreshes all of a
call's stale rows with one column pass per feature.

The properties, for the paper and the extended feature sets:

* a :class:`ScoringService` and a twin whose store reads through the
  reference return byte-identical scores, labels, early-adopter counts
  and features from ``score_columns`` calls that hold repeated and
  unknown ids, byte-identical single-id ``features()``, and the same
  ``state_fingerprint()``, LRU order and stats.  The cases cover
  hot-swaps between ingest and score (some change K), LRU eviction and
  re-admission, and fold states overwritten with edge values: a running
  max of ``-0.0``, of a slightly negative or NaN value, and running sums
  from 1e-300 to 1e300 with K up to 64;
* a standalone engine with 0, 1 or more adopters, and
  ``extract_features``, give the reference's bytes.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cascades.types import Cascade
from repro.embedding.model import EmbeddingModel
from repro.prediction.features import (
    EXTENDED_FEATURES,
    PAPER_FEATURES,
    IncrementalFeatures,
    extract_features,
)
from repro.prediction.pipeline import PredictionDataset, ViralityPredictor
from repro.serving.batching import ScoringWorkspace
from repro.serving.registry import ModelRegistry, ModelSnapshot
from repro.serving.service import ScoringService
from repro.serving.tracker import FeatureStore, StoreConfig

# --------------------------------------------------------------------- #
# The reference: the per-row refresh, verbatim
# --------------------------------------------------------------------- #


class ReferenceRow:
    """``IncrementalFeatures.features_into`` and ``_value`` as they were,
    reading one engine's current fold state, tree state and count."""

    def __init__(self, engine: IncrementalFeatures) -> None:
        self.feature_set = engine.feature_set
        self._state = engine._state
        self._row = engine._row
        self._tree = engine._tree
        self._m = engine._m

    def features_into(self, out: np.ndarray) -> None:
        """Write the current feature vector into *out* (no allocation).

        This is what lets the serving store's flush path refresh a row
        of its pooled feature-cache matrix in place.
        """
        m = self._m
        if m == 0:
            out[: len(self.feature_set)] = 0.0
            return
        for idx, name in enumerate(self.feature_set):
            out[idx] = self._value(name, m)

    def _value(self, name: str, m: int) -> float:
        state, r = self._state, self._row
        if name in ("diverA", "diverB"):
            # max pairwise Euclidean distance (Eq. 17), 0 for < 2 adopters
            if m < 2:
                return 0.0
            d2max = state.d2max[0 if name == "diverA" else 1]
            assert d2max is not None
            return float(np.sqrt(max(float(d2max[r]), 0.0)))
        if name in ("normA", "maxA", "normB", "maxB"):
            sums = state.sums[0 if name[-1] == "A" else 1]
            assert sums is not None
            vec_sum = sums[r]
            if name.startswith("norm"):
                return float(np.linalg.norm(vec_sum))
            return float(vec_sum.max()) if vec_sum.size else 0.0
        if name == "n_early":
            return float(m)
        tree = self._tree
        assert tree is not None
        if name == "depth":
            return float(tree.max_depth)
        if name == "breadth":
            return float(tree.max_breadth)
        if name == "sviral":
            return float(tree.sviral(m))
        raise ValueError(
            f"unknown feature {name!r}; valid: {EXTENDED_FEATURES}"
        )  # pragma: no cover - names validated at construction


class ReferenceStore(FeatureStore):
    """``FeatureStore`` whose read path is the per-row refresh, verbatim
    but for ``features_into`` read through :class:`ReferenceRow`."""

    def _refresh_row(self, slot: int) -> None:
        if not self._row_valid[slot]:
            engine = self._engines[slot]
            assert engine is not None
            ReferenceRow(engine).features_into(self._rows[slot])
            self._row_valid[slot] = True

    def features(self, cascade_id: str, snapshot: ModelSnapshot) -> Optional[np.ndarray]:
        slot = self._slots.get(cascade_id)
        if slot is None:
            return None
        self._slots.move_to_end(cascade_id)
        self._sync_slot(slot, snapshot)
        public = self._public[slot]
        if public is None:
            self._refresh_row(slot)
            public = self._rows[slot].copy()
            public.setflags(write=False)
            self._public[slot] = public
        return public

    def gather_batch(
        self,
        cascade_ids: Sequence[str],
        snapshot: ModelSnapshot,
        ws: ScoringWorkspace,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        n = len(cascade_ids)
        row_of = ws.vec("gather_row_of", n, np.int64)
        n_events = ws.vec("gather_n_events", n, np.int64)
        live = ws.vec("gather_slots", n, np.int64)
        slots = self._slots
        k = 0
        for i, cascade_id in enumerate(cascade_ids):
            slot = slots.get(cascade_id)
            if slot is None:
                row_of[i] = -1
                n_events[i] = 0
                continue
            slots.move_to_end(cascade_id)
            self._sync_slot(slot, snapshot)
            self._refresh_row(slot)
            row_of[i] = k
            n_events[i] = self._n_events[slot]
            live[k] = slot
            k += 1
        x = ws.mat("gather_X", k, self._rows.shape[1])
        np.take(self._rows, live[:k], axis=0, out=x)
        return x, row_of, n_events


# --------------------------------------------------------------------- #
# Inputs
# --------------------------------------------------------------------- #

N = 90
POOL = 16  # cascade ids c0 .. c15; more than the smallest capacity

#: running max values the scalar ``max(x, 0.0)`` and a vectorized clamp
#: can disagree on, and ordinary ones
_D2MAX_EDGES = (-0.0, 0.0, -1e-300, -5e-17, np.nan, 2.5, 1e300)


def _model(rng: np.random.Generator, K: int) -> EmbeddingModel:
    return EmbeddingModel(rng.uniform(0, 2, (N, K)), rng.uniform(0, 2, (N, K)))


def _predictor(rng: np.random.Generator, d: int) -> ViralityPredictor:
    X = rng.normal(size=(40, d))
    sizes = np.where(X[:, 0] + 0.3 * rng.normal(size=40) > 0, 30, 3).astype(np.int64)
    names = tuple(f"f{i}" for i in range(d))
    ds = PredictionDataset(X=X, final_sizes=sizes, feature_names=names)
    return ViralityPredictor(threshold=10, seed=0).fit(ds)


@st.composite
def service_cases(draw):
    return {
        "extended": draw(st.booleans()),
        "K": draw(st.sampled_from((1, 3, 10, 64))),
        "swap_K": draw(st.sampled_from((1, 3, 10, 64))),
        "capacity": draw(st.sampled_from((5, 12, 1000))),
        "seed": draw(st.integers(0, 2**32 - 1)),
        "ops": draw(
            st.lists(
                st.sampled_from(("ingest", "ingest", "score", "features", "swap", "poke")),
                min_size=1,
                max_size=10,
            )
        ),
    }


def _burst(rng: np.random.Generator, t0: float) -> Tuple[List[str], np.ndarray, np.ndarray]:
    """A time-sorted burst over a few cascades, with re-deliveries."""
    cids: List[str] = []
    nodes: List[int] = []
    for i in rng.choice(POOL, size=int(rng.integers(1, 7)), replace=False):
        for _ in range(int(rng.geometric(0.4))):
            cids.append(f"c{i}")
            nodes.append(int(rng.integers(N)))
    times = t0 + np.sort(rng.uniform(0, 1, len(cids)))
    return cids, np.asarray(nodes, dtype=np.int64), times


def _poke(stores: Sequence[FeatureStore], rng: np.random.Generator) -> None:
    """Overwrite the fold state of some tracked cascades with edge values,
    identically in every store, and mark their rows stale."""
    cids = stores[0].cascade_ids()
    if not cids:
        return
    width = stores[0]._fold.n_topics
    picked = rng.choice(len(cids), size=int(rng.integers(1, len(cids) + 1)), replace=False)
    for i in picked.tolist():
        d2 = float(rng.choice(_D2MAX_EDGES))
        sums_rows = []
        for _ in range(2):  # one row per plane
            row = rng.uniform(0, 1, width) * 10.0 ** rng.uniform(-300, 300, width)
            row[rng.random(width) < 0.1] = 0.0
            sums_rows.append(row)
        for store in stores:
            slot = store._slots[cids[i]]
            fold = store._fold
            for p in range(2):
                d2max, sums = fold.d2max[p], fold.sums[p]
                if d2max is not None:
                    d2max[slot] = d2
                if sums is not None:
                    sums[slot] = sums_rows[p]
            store._invalidate(slot)


def _assert_columns_equal(got, want) -> None:
    assert got.ok.tobytes() == want.ok.tobytes()
    assert got.scores.tobytes() == want.scores.tobytes()
    assert got.labels.tobytes() == want.labels.tobytes()
    assert got.n_early.tobytes() == want.n_early.tobytes()
    assert got.model_version == want.model_version
    assert (got.features is None) == (want.features is None)
    if got.features is not None:
        assert got.features.tobytes() == want.features.tobytes()


def _assert_stores_equal(store: FeatureStore, ref: FeatureStore) -> None:
    assert store.cascade_ids() == ref.cascade_ids()
    assert vars(store.stats) == vars(ref.stats)
    assert store.state_fingerprint() == ref.state_fingerprint()


# --------------------------------------------------------------------- #
# The properties
# --------------------------------------------------------------------- #


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")  # 1e300 sums
@given(service_cases())
@settings(
    max_examples=80,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_column_refresh_matches_per_row_refresh(case):
    rng = np.random.default_rng(case["seed"])
    feature_set = EXTENDED_FEATURES if case["extended"] else PAPER_FEATURES
    F = len(feature_set)
    registry = ModelRegistry()
    registry.publish(_model(rng, case["K"]), predictor=_predictor(rng, F))
    config = StoreConfig(capacity=case["capacity"])
    svc = ScoringService(registry, feature_set, store_config=config, clock=lambda: 0.0)
    ref = ScoringService(registry, feature_set, store_config=config, clock=lambda: 0.0)
    ref.store = ReferenceStore(feature_set, config=config, clock=lambda: 0.0)
    stores = (svc.store, ref.store)
    t = 0.0

    def score(ids: List[str], with_features: bool) -> None:
        _assert_columns_equal(
            svc.score_columns(ids, include_features=with_features),
            ref.score_columns(ids, include_features=with_features),
        )

    def score_everything() -> None:
        tracked = svc.store.cascade_ids()
        score(tracked + tracked[::2] + ["unknown"], True)

    for op in case["ops"]:
        if op == "ingest":
            cids, nodes, times = _burst(rng, t)
            t += 1.0
            assert svc.ingest_columns(cids, nodes, times) == ref.ingest_columns(cids, nodes, times)
        elif op == "score":
            # repeated ids, unknown ids and evicted ids in one call
            ids = [f"c{i}" for i in rng.integers(0, POOL + 3, size=int(rng.integers(1, 24)))]
            score(ids, bool(rng.integers(2)))
        elif op == "features":
            cid = f"c{int(rng.integers(0, POOL + 3))}"
            snap = registry.current()
            got, want = svc.store.features(cid, snap), ref.store.features(cid, snap)
            assert (got is None) == (want is None)
            if got is not None:
                assert got.tobytes() == want.tobytes()
        elif op == "swap":
            K = case["swap_K"] if rng.integers(2) else registry.current().model.n_topics
            registry.publish(_model(rng, K), predictor=_predictor(rng, F))
        else:
            _poke(stores, rng)
        _assert_stores_equal(*stores)
    score_everything()
    _poke(stores, rng)
    score_everything()
    _assert_stores_equal(*stores)


@given(
    st.integers(0, 6),
    st.sampled_from((1, 3, 10, 64)),
    st.booleans(),
    st.sampled_from((None,) + _D2MAX_EDGES),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=120, deadline=None)
def test_standalone_engine_and_extract_features(m, K, extended, d2, seed):
    rng = np.random.default_rng(seed)
    feature_set = EXTENDED_FEATURES if extended else PAPER_FEATURES
    model = _model(rng, K)
    nodes = rng.choice(N, size=m, replace=False)
    times = np.sort(rng.uniform(0, 5, m))
    engine = IncrementalFeatures(model, feature_set)
    for node, t in zip(nodes, times):
        engine.update(int(node), float(t))
    want = np.empty(len(feature_set))
    ReferenceRow(engine).features_into(want)
    batch = extract_features(model, Cascade(nodes, times), feature_set)
    assert batch.tobytes() == want.tobytes()
    assert engine.features().tobytes() == want.tobytes()
    if d2 is not None:  # an edge value in the one-row fold state
        for col in engine._state.d2max:
            if col is not None:
                col[0] = d2
        ReferenceRow(engine).features_into(want)
        assert engine.features().tobytes() == want.tobytes()
