"""Reference-fold property suite: the burst kernel against the per-cascade fold.

:func:`repro.prediction.features.fold_burst` folds a whole burst of
adoption events across all its cascades with one numeric pass over the
shared fold-state columns.  Before it, every touched cascade folded its
share through its own engine: ``IncrementalFeatures.update_many``, which
drove ``_SideState.append_many`` once per plane.  Those two are kept
below verbatim as the reference (``ReferenceFeatures.update_many`` and
``ReferenceSideState.append_many``, aliased ``reference_update_many``
and ``reference_append_many``), with the engine state they fold into.

The property: feeding the same bursts through a :class:`FeatureStore`
and through a reference store — arrival-order bookkeeping, then one
``reference_update_many`` per cascade incarnation — leaves

* every feature row bit-identical,
* every cascade's fold state (the running max squared pair distance and
  the running sum of each plane) bit-identical — compared directly,
  because ``diver*`` clamps a negative running max to 0, so a stray
  self-pair (distance 0) would not show in the features,
* the same ``state_fingerprint()``, LRU order and ``vars(stats)``,

for multi-cascade bursts with 1–80 cascades, one cascade taking up to
300 events in a burst and growing a history past 128 adopters (and past
the pair-buffer cap, which the property also shrinks so that tiles split
by rows and passes split by cascades), duplicates within a burst and
against prior state, out-of-order arrivals that force a rebuild, model
hot-swaps between bursts, mid-burst LRU evictions, K ∈ {1, 3, 10, 16},
near-duplicate embedding rows, and both feature sets.
"""

from __future__ import annotations

import hashlib
import json
import threading
from collections import OrderedDict
from typing import AbstractSet, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.prediction.features as features
from repro.cascades.types import Cascade
from repro.embedding.model import EmbeddingModel
from repro.prediction.features import (
    EXTENDED_FEATURES,
    PAPER_FEATURES,
    _TreeState,
    extract_features,
)
from repro.serving.registry import ModelRegistry, ModelSnapshot
from repro.serving.tracker import FeatureStore, StoreConfig
from tests.columns import event_columns

# --------------------------------------------------------------------- #
# The reference: the per-cascade fold, verbatim
# --------------------------------------------------------------------- #

#: initial per-cascade buffer capacity (doubled on demand)
_INIT_CAPACITY = 8

#: max events folded per vectorized append; larger bursts run as
#: sequential sub-folds (bit-identical — see ``_append_many``).  128
#: keeps a ~100-event serving burst in a single fold (halving the
#: fixed per-fold cost vs 64) while the pair-distance temporaries
#: (``history × chunk`` doubles) still fit comfortably in L2.
_FOLD_CHUNK = 128

#: shared 0..chunk index ramp (read-only; sliced per fold)
_CHUNK_ARANGE = np.arange(_FOLD_CHUNK)

#: largest pair-matrix scratch retained between folds (in doubles);
#: pathological history×chunk shapes beyond this fall back to fresh
#: temporaries rather than pinning tens of megabytes per thread
_PAIR_SCRATCH_MAX = 1 << 20


class _ReferenceScratch(threading.local):
    """Reusable per-thread buffers for the vectorized fold temporaries.

    One fold fully writes and fully consumes its temporaries before
    returning, so every engine on a thread can share one set — the
    serving store tracks thousands of cascades and per-engine scratch
    would multiply, while per-fold ``np.empty`` calls put two
    ``history × chunk`` mallocs on the hot path.  Thread-locality keeps
    concurrent services from racing on the buffers.
    """

    def __init__(self) -> None:
        self.pair = np.empty(0)
        self.fold = np.empty((0, 0))

    def pair_views(self, end: int, j: int) -> Tuple[np.ndarray, np.ndarray]:
        """Two ``(end, j)`` work matrices (dot block, distance block)."""
        need = 2 * end * j
        if self.pair.shape[0] < need:
            self.pair = np.empty(need)
        half = end * j
        return (
            self.pair[:half].reshape(end, j),
            self.pair[half:need].reshape(end, j),
        )

    def fold_view(self, j: int, n_topics: int) -> np.ndarray:
        """A ``(j + 1, n_topics)`` matrix for the cumsum scan."""
        if self.fold.shape[0] < j + 1 or self.fold.shape[1] != n_topics:
            self.fold = np.empty((max(j + 1, _FOLD_CHUNK + 1), n_topics))
        return self.fold[: j + 1]


_reference_scratch = _ReferenceScratch()


def _row_sq_norm(v: np.ndarray) -> float:
    """Squared Euclidean norm of one embedding row, the canonical way.

    Both the batch path and the incremental tracker compute ‖x‖² through
    this single call so the bits can never diverge.
    """
    return float(np.einsum("k,k->", v, v))


def _row_sq_norms(
    rows: np.ndarray, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """Squared norms of many rows at once, bit-identical per row to
    :func:`_row_sq_norm` (same einsum sum-of-products core, contraction
    over the same axis — the outer dimension only changes the stride
    walk, not the per-element arithmetic).  ``out`` only redirects where
    the identical results land."""
    if out is not None:
        return np.einsum("ik,ik->i", rows, rows, out=out)
    return np.einsum("ik,ik->i", rows, rows)


def _hist_dots(
    history: np.ndarray,
    new_rows: np.ndarray,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Dot products of every history row against every new row.

    ``(c, K) × (j, K) → (c, j)`` — THE canonical contraction of the
    ``diver*`` update.  Evaluated through numpy's einsum core rather
    than BLAS: einsum contracts over ``k`` with the same inner loop for
    any output shape, so one block call over ``j`` new rows produces
    bit-for-bit the columns a per-event vector call would (BLAS does
    not give that guarantee — its gemv and gemm micro-kernels accumulate
    in different orders).  ``out`` (a preallocated ``(c, j)`` buffer)
    only changes where the bits land, never what they are.
    """
    if out is not None:
        return np.einsum("ck,jk->cj", history, new_rows, out=out)
    return np.einsum("ck,jk->cj", history, new_rows)


class ReferenceSideState:
    """Incremental state for one embedding plane (A or B).

    Maintains what the requested features need and nothing more: the
    adopter rows + squared norms and the running max pairwise squared
    distance when ``diver*`` is wanted; the running left-fold sum when
    ``norm*``/``max*`` are.
    """

    __slots__ = (
        "need_diver",
        "need_sum",
        "V",
        "sq",
        "d2max",
        "vec_sum",
    )

    def __init__(self, n_topics: int, need_diver: bool, need_sum: bool) -> None:
        self.need_diver = need_diver
        self.need_sum = need_sum
        self.V: Optional[np.ndarray] = (
            np.empty((_INIT_CAPACITY, n_topics)) if need_diver else None
        )
        self.sq: Optional[np.ndarray] = (
            np.empty(_INIT_CAPACITY) if need_diver else None
        )
        self.d2max = float("-inf")
        self.vec_sum: Optional[np.ndarray] = (
            np.zeros(n_topics) if need_sum else None
        )

    def grow(self, capacity: int) -> None:
        if self.V is not None and self.sq is not None:
            V = np.empty((capacity, self.V.shape[1]))
            V[: self.V.shape[0]] = self.V
            self.V = V
            sq = np.empty(capacity)
            sq[: self.sq.shape[0]] = self.sq
            self.sq = sq

    def reset(self) -> None:
        """Forget all folded state but keep the grown buffers (the slot
        pool in the serving store recycles side states across cascade
        incarnations; re-admission must not re-allocate)."""
        self.d2max = float("-inf")
        if self.vec_sum is not None:
            self.vec_sum.fill(0.0)

    def append(self, i: int, row: np.ndarray) -> None:
        """Fold adopter *i*'s embedding row into the running state.

        The ``diver`` update is the O(mK) step: squared distances of the
        new adopter against every previous one via one :func:`_hist_dots`
        call, folded into the running max (max is order-independent, so
        the running fold equals the batch max bit-for-bit).
        """
        if self.V is not None and self.sq is not None:
            self.V[i] = row
            sq_new = _row_sq_norm(self.V[i])
            self.sq[i] = sq_new
            if i >= 1:
                dots = _hist_dots(self.V[:i], self.V[i : i + 1])[:, 0]
                d2 = self.sq[:i] + sq_new - 2.0 * dots
                self.d2max = max(self.d2max, float(d2.max()))
        if self.vec_sum is not None:
            # left fold in adoption order — the canonical summation
            self.vec_sum = self.vec_sum + row

    def append_many(self, i0: int, rows: np.ndarray) -> None:
        """Fold ``j`` adopters (positions ``i0 .. i0+j-1``) in a handful
        of vectorized calls, bit-identical to ``j`` :meth:`append` calls.

        * ``diver``: one :func:`_hist_dots` block over history + new
          rows; each column restricted to that adopter's strict
          predecessors (a pair ``(p, c)`` is valid iff ``p < i0 + c``),
          then one exact max fold.
        * ``sum``: the left fold is evaluated as a row-prepended
          ``np.cumsum`` — a strict sequential scan, so the final row
          carries exactly ``((sum + r0) + r1) + …``.
        """
        j = rows.shape[0]
        if j == 0:
            return
        if self.V is not None and self.sq is not None:
            end = i0 + j
            self.V[i0:end] = rows
            new_rows = self.V[i0:end]
            sq_new = _row_sq_norms(new_rows, out=self.sq[i0:end])
            if end >= 2:
                # work matrices from the shared scratch when they fit —
                # the two ``history × chunk`` temporaries are the only
                # mallocs left on this path
                if 2 * end * j <= _PAIR_SCRATCH_MAX:
                    dots, d2 = _reference_scratch.pair_views(end, j)
                else:
                    dots, d2 = None, np.empty((end, j))
                dots = _hist_dots(self.V[:end], new_rows, out=dots)
                # (sq_p + sq_c) - 2·dot, grouped exactly as the scalar
                # append writes it, evaluated entirely in-place
                np.add(self.sq[:end, None], sq_new[None, :], out=d2)
                np.multiply(dots, 2.0, out=dots)
                np.subtract(d2, dots, out=d2)
                # A pair (p, c) is valid iff p strictly precedes c.  The
                # invalid region below the diagonal holds only *mirrors*
                # of valid entries — (p, c) with p > i0+c reappears as
                # the valid (i0+c, p-i0), and the mirrored dot/sum are
                # bitwise equal because float multiply-and-add commute
                # exactly.  So after striking the self-pair diagonal,
                # one contiguous full-matrix max equals the masked max
                # bit-for-bit, with no mask materialization.
                cols = _CHUNK_ARANGE[:j]
                d2[i0 + cols, cols] = float("-inf")
                self.d2max = max(self.d2max, float(d2.max()))
        if self.vec_sum is not None:
            fold = _reference_scratch.fold_view(j, rows.shape[1])
            fold[0] = self.vec_sum
            fold[1:] = rows
            np.cumsum(fold, axis=0, out=fold)  # strict sequential scan
            self.vec_sum = fold[j].copy()

    # -- feature reads ------------------------------------------------- #

    def diver(self, m: int) -> float:
        """Max pairwise Euclidean distance (Eq. 17), 0 for < 2 adopters."""
        if m < 2:
            return 0.0
        return float(np.sqrt(max(self.d2max, 0.0)))

    def norm(self) -> float:
        assert self.vec_sum is not None
        return float(np.linalg.norm(self.vec_sum))

    def max(self) -> float:
        assert self.vec_sum is not None
        return float(self.vec_sum.max()) if self.vec_sum.size else 0.0


class ReferenceFeatures:
    """Streaming evaluator of one cascade's early-adopter features.

    Feed adoption events through :meth:`update`; read the current
    feature vector with :meth:`features`.  Designed for the serving
    layer's per-cascade trackers, and *the* definition of the feature
    math: :func:`extract_features` replays this class over a prefix, so
    stream and batch agree bit-for-bit on every observed prefix.

    Parameters
    ----------
    model:
        Trained embeddings.  Swap with :meth:`rebind` (replays the
        observed events under the new model).
    feature_set:
        Names from :data:`EXTENDED_FEATURES`; order defines the output
        layout.

    Notes
    -----
    * Events may arrive out of time order; the tracker then rebuilds its
      state over the stable time-sorted event log — the same ordering
      :class:`~repro.cascades.types.Cascade` applies — so the result is
      always the feature vector of ``Cascade(nodes_seen, times_seen)``.
      In-order (and tied-time) arrivals take the cheap append path.
    * A node adopting twice is ignored (:meth:`update` returns ``False``)
      — cascades are SI processes, re-deliveries are expected in an
      at-least-once event stream.
    * Zero observed adopters yield a well-defined all-zero vector.
    """

    def __init__(
        self,
        model: EmbeddingModel,
        feature_set: Sequence[str] = PAPER_FEATURES,
    ) -> None:
        for name in feature_set:
            if name not in EXTENDED_FEATURES:
                raise ValueError(
                    f"unknown feature {name!r}; valid: {EXTENDED_FEATURES}"
                )
        self.model = model
        self.feature_set = tuple(feature_set)
        fs = frozenset(self.feature_set)
        self._need_a = ("diverA" in fs, bool(fs & {"normA", "maxA"}))
        self._need_b = ("diverB" in fs, bool(fs & {"normB", "maxB"}))
        self._need_tree = bool(fs & {"depth", "breadth", "sviral"})
        self._need_sviral = "sviral" in fs
        #: arrival-order event log; the source of truth for rebuilds.
        #: Two parallel lists, not a list of tuples: burst appends are
        #: then two C-level ``extend`` calls with no tuple boxing.
        self._event_nodes: List[int] = []
        self._event_times: List[float] = []
        self._node_set: Set[int] = set()
        self._init_derived()

    # ------------------------------------------------------------------ #

    def _init_derived(self) -> None:
        """(Re-)zero the derived state, recycling grown buffers.

        Buffers are only reallocated when absent or when the embedding
        dimension changed; otherwise the existing capacity is kept so
        rebuilds and slot reuse in the serving store allocate nothing.
        Every retained buffer is fully rewritten before it is read, so
        stale data cannot leak between incarnations.
        """
        K = self.model.n_topics
        self._m = 0
        if getattr(self, "_buf_topics", None) == K:
            self._side_a.reset()
            self._side_b.reset()
            if self._tree is not None:
                self._tree.reset()
        else:
            self._capacity = _INIT_CAPACITY
            self._nodes = np.empty(_INIT_CAPACITY, dtype=np.int64)
            self._times = np.empty(_INIT_CAPACITY, dtype=np.float64)
            self._side_a = ReferenceSideState(K, *self._need_a)
            self._side_b = ReferenceSideState(K, *self._need_b)
            self._tree = (
                _TreeState(self._need_sviral) if self._need_tree else None
            )
            self._buf_topics = K

    def _ensure_capacity(self, n: int) -> None:
        if n <= self._capacity:
            return
        capacity = self._capacity
        while capacity < n:
            capacity *= 2
        nodes = np.empty(capacity, dtype=np.int64)
        nodes[: self._m] = self._nodes[: self._m]
        self._nodes = nodes
        times = np.empty(capacity, dtype=np.float64)
        times[: self._m] = self._times[: self._m]
        self._times = times
        self._side_a.grow(capacity)
        self._side_b.grow(capacity)
        if self._tree is not None:
            self._tree.grow(capacity)
        self._capacity = capacity

    # ------------------------------------------------------------------ #

    @property
    def n_events(self) -> int:
        """Number of distinct adopters observed so far."""
        return self._m

    @property
    def last_time(self) -> float:
        """Latest adoption time observed (-inf before any event)."""
        return float(self._times[self._m - 1]) if self._m else float("-inf")

    def observed(self) -> Cascade:
        """The observed prefix as a :class:`Cascade` (stable time order)."""
        if not self._event_nodes:
            return Cascade([], [])
        return Cascade(list(self._event_nodes), list(self._event_times))

    # ------------------------------------------------------------------ #

    def update(self, node: int, t: float) -> bool:
        """Observe one adoption event; ``False`` if the node is a re-adopt.

        In-order arrivals (``t`` at or after the latest observed time)
        take the O(mK) append path; an out-of-order arrival triggers a
        rebuild over the stable time-sorted log.
        """
        node = int(node)
        t = float(t)
        if not np.isfinite(t):
            raise ValueError("adoption times must be finite")
        if node < 0 or node >= self.model.n_nodes:
            raise ValueError(
                f"node {node} outside the model universe of "
                f"{self.model.n_nodes} nodes"
            )
        if node in self._node_set:
            return False
        self._event_nodes.append(node)
        self._event_times.append(t)
        self._node_set.add(node)
        if self._m and t < float(self._times[self._m - 1]):
            self._rebuild()
        else:
            self._append(node, t)
        return True

    def update_many(
        self,
        nodes: Sequence[int],
        times: Sequence[float],
        validate: bool = True,
        assume_sorted: bool = False,
    ) -> int:
        """Fold a burst of adoption events in; returns how many applied.

        The batched twin of :meth:`update`: duplicates are dropped in
        arrival order (against prior state *and* within the burst), the
        surviving events take the vectorized append path when they are
        time-ordered, and any out-of-order arrival falls back to one
        rebuild over the stable time-sorted log — so the resulting state
        is bit-identical to feeding the same events through
        :meth:`update` one at a time.

        Unlike the scalar path, the whole burst is validated before any
        state changes (an invalid node or non-finite time raises with
        the engine untouched).  A caller that has already validated the
        burst — the serving store checks a whole multi-cascade burst
        atomically before queueing per-cascade folds — passes
        ``validate=False`` to skip the redundant reductions.

        ``assume_sorted=True`` is a trusted promise that *times* is
        non-decreasing within the burst (the store checks its whole
        multi-cascade burst once; every gathered subsequence of a
        sorted firehose inherits the ordering).  Only the intra-burst
        scan is skipped — the boundary against the cascade's last
        folded event is still checked, so a sorted burst arriving
        before earlier state still takes the rebuild path correctly.
        """
        n = len(nodes)
        if n != len(times):
            raise ValueError("nodes and times must have the same length")
        if n == 0:
            return 0
        node_arr = np.asarray(nodes, dtype=np.int64)
        time_arr = np.asarray(times, dtype=np.float64)
        if validate:
            if not np.all(np.isfinite(time_arr)):
                raise ValueError("adoption times must be finite")
            if node_arr.size and (
                int(node_arr.min()) < 0
                or int(node_arr.max()) >= self.model.n_nodes
            ):
                raise ValueError(
                    f"burst contains nodes outside the model universe of "
                    f"{self.model.n_nodes} nodes"
                )
        # -- duplicate filtering, arrival order --------------------------- #
        # native ints via tolist(): the set probes and the event log
        # stay off numpy scalar extraction.  One blind set-union detects
        # the common no-repeat case: n fresh nodes grow the adopter set
        # by exactly n.  On a repeat the union is repaired from the
        # event log (the adopter set is always exactly its node set).
        seen = self._node_set
        node_list = node_arr.tolist()
        before = len(seen)
        seen.update(node_list)
        if len(seen) - before == n:
            j = n  # no repeats anywhere — keep the whole burst
        else:
            # rare path: drop repeats in arrival order (against prior
            # state and within the burst)
            seen.clear()
            seen.update(self._event_nodes)
            keep: List[int] = []
            for i, node in enumerate(node_list):
                if node in seen:
                    continue
                seen.add(node)
                keep.append(i)
            if not keep:
                return 0
            j = len(keep)
            if j != n:
                node_arr = node_arr[keep]
                time_arr = time_arr[keep]
                node_list = [node_list[i] for i in keep]
        self._event_nodes.extend(node_list)
        self._event_times.extend(time_arr.tolist())
        in_order = (
            assume_sorted or bool((time_arr[1:] >= time_arr[:-1]).all())
        ) and (
            self._m == 0 or float(time_arr[0]) >= float(self._times[self._m - 1])
        )
        if not in_order:
            self._rebuild()  # state := fold over the stable-sorted log
            return j
        self._append_many(node_arr, time_arr)
        return j

    def _append_many(self, nodes: np.ndarray, times: np.ndarray) -> None:
        """Vectorized in-order append of ``j`` pre-filtered events."""
        j = nodes.shape[0]
        if j > _FOLD_CHUNK:
            # Split a large burst into sequential sub-folds.  Bit-safe:
            # each chunk is itself a full in-order burst, and every fold
            # (running max, cumulative sum, MAP-parent recurrence)
            # accumulates left-to-right in the same order either way.
            # This bounds the pairwise-distance temporaries and skips
            # most of the invalid upper triangle one giant fold would
            # compute and mask away.
            for c0 in range(0, j, _FOLD_CHUNK):
                self._append_many(
                    nodes[c0 : c0 + _FOLD_CHUNK],
                    times[c0 : c0 + _FOLD_CHUNK],
                )
            return
        i0 = self._m
        end = i0 + j
        self._ensure_capacity(end)
        self._nodes[i0:end] = nodes
        self._times[i0:end] = times
        self._m = end
        if self._side_a.need_diver or self._side_a.need_sum:
            self._side_a.append_many(i0, self.model.A[nodes])
        if self._side_b.need_diver or self._side_b.need_sum:
            self._side_b.append_many(i0, self.model.B[nodes])
        if self._tree is not None:
            # the MAP-parent recurrence is inherently sequential (each
            # event's parent search sees every earlier event)
            for i in range(i0, end):
                self._tree.append(
                    self.model, self._nodes[: i + 1], self._times[: i + 1], i
                )

    def has_node(self, node: int) -> bool:
        """True when *node* already adopted in the observed prefix."""
        return int(node) in self._node_set

    @property
    def adopters(self) -> AbstractSet[int]:
        """Live view of the adopter set (do not mutate).

        Exists so burst ingest can duplicate-check with a set probe per
        event instead of a method call; the view tracks every update.
        """
        return self._node_set

    def rebind(self, model: EmbeddingModel) -> None:
        """Swap the embedding model and replay the event log under it."""
        if self._node_set and max(self._node_set) >= model.n_nodes:
            raise ValueError(
                "new model's node universe does not cover the observed nodes"
            )
        self.model = model
        self._rebuild()

    def reset(self, model: Optional[EmbeddingModel] = None) -> None:
        """Forget the observed prefix (optionally swapping the model),
        recycling the grown buffers — the serving store's slot-reuse
        primitive: re-admitting a cascade after eviction must not
        re-allocate its engine."""
        if model is not None:
            self.model = model
        self._event_nodes.clear()
        self._event_times.clear()
        self._node_set.clear()
        self._init_derived()

    def _rebuild(self) -> None:
        if not self._event_nodes:
            self._init_derived()
            return
        nodes = np.asarray(self._event_nodes, dtype=np.int64)
        times = np.asarray(self._event_times, dtype=np.float64)
        self._init_derived()
        order = np.argsort(times, kind="stable")  # Cascade's ordering
        # the sorted log is in-order by construction: replay it as one
        # batched fold (bit-identical to scalar appends by the
        # update_many parity invariant)
        self._append_many(nodes[order], times[order])

    def _append(self, node: int, t: float) -> None:
        i = self._m
        self._ensure_capacity(i + 1)
        self._nodes[i] = node
        self._times[i] = t
        self._m = i + 1
        if self._side_a.need_diver or self._side_a.need_sum:
            self._side_a.append(i, self.model.A[node])
        if self._side_b.need_diver or self._side_b.need_sum:
            self._side_b.append(i, self.model.B[node])
        if self._tree is not None:
            self._tree.append(
                self.model, self._nodes[: self._m], self._times[: self._m], i
            )

    # ------------------------------------------------------------------ #

    def features(self) -> np.ndarray:
        """Current feature vector, shape ``(len(feature_set),)``.

        Zero observed adopters yield the all-zero vector — every feature
        is identically 0 for an empty prefix, stated here explicitly
        rather than left to downstream arithmetic.
        """
        out = np.empty(len(self.feature_set), dtype=np.float64)
        self.features_into(out)
        return out

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
        if name == "diverA":
            return self._side_a.diver(m)
        if name == "normA":
            return self._side_a.norm()
        if name == "maxA":
            return self._side_a.max()
        if name == "diverB":
            return self._side_b.diver(m)
        if name == "normB":
            return self._side_b.norm()
        if name == "maxB":
            return self._side_b.max()
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

reference_append_many = ReferenceSideState.append_many
reference_update_many = ReferenceFeatures.update_many


# --------------------------------------------------------------------- #
# The reference store
# --------------------------------------------------------------------- #


class _Pending:
    """One cascade incarnation's queued share of a burst."""

    __slots__ = ("nodes", "times", "burst", "rebind")

    def __init__(self) -> None:
        self.nodes: List[int] = []
        self.times: List[float] = []
        self.burst: Set[int] = set()
        self.rebind = False


class ReferenceStore:
    """``FeatureStore`` burst semantics over reference engines.

    Bookkeeping runs in arrival order — admission, LRU touch, model
    sync, duplicate filter, capacity eviction (an evicted incarnation's
    queued events die with it) — then each surviving incarnation folds
    its share with one ``reference_update_many`` call.
    """

    def __init__(self, feature_set: Sequence[str], capacity: int) -> None:
        self.feature_set = tuple(feature_set)
        self.capacity = capacity
        self.lru: "OrderedDict[str, ReferenceFeatures]" = OrderedDict()
        self.version: Dict[str, int] = {}
        self.stats = {
            "events": 0,
            "duplicates": 0,
            "admissions": 0,
            "evictions": 0,
            "expirations": 0,
            "rebuilds": 0,
            "sweep_pops": 0,
        }

    def ingest(self, events: Sequence[Tuple[str, int, float]], snap: ModelSnapshot) -> int:
        pending: Dict[ReferenceFeatures, _Pending] = {}
        applied = 0
        for cid, node, t in events:
            engine = self.lru.get(cid)
            if engine is None:
                engine = ReferenceFeatures(snap.model, self.feature_set)
                self.lru[cid] = engine
                self.version[cid] = snap.version
                self.stats["admissions"] += 1
                group = pending[engine] = _Pending()
            else:
                self.lru.move_to_end(cid)
                group = pending.get(engine)  # type: ignore[assignment]
                if group is None:
                    group = pending[engine] = _Pending()
                    if self.version[cid] != snap.version:
                        group.rebind = True
                        self.version[cid] = snap.version
                        self.stats["rebuilds"] += 1
            if node in group.burst or node in engine.adopters:
                self.stats["duplicates"] += 1
            else:
                group.burst.add(node)
                group.nodes.append(node)
                group.times.append(t)
                self.stats["events"] += 1
                applied += 1
            if len(self.lru) > self.capacity:
                victim_cid, victim = self.lru.popitem(last=False)
                del self.version[victim_cid]
                pending.pop(victim, None)
                self.stats["evictions"] += 1
        for engine, group in pending.items():
            if group.rebind:
                engine.rebind(snap.model)
            if group.nodes:
                reference_update_many(engine, group.nodes, group.times, validate=False)
        return applied

    def features(self, cid: str, snap: ModelSnapshot) -> np.ndarray:
        """``FeatureStore.features``: LRU touch, model sync, read."""
        self.lru.move_to_end(cid)
        if self.version[cid] != snap.version:
            self.lru[cid].rebind(snap.model)
            self.version[cid] = snap.version
            self.stats["rebuilds"] += 1
        return self.lru[cid].features()

    def fingerprint(self) -> str:
        """``FeatureStore.state_fingerprint`` of the same content."""
        cids = list(self.lru)
        blocks = [self.lru[cid].observed() for cid in cids]
        offsets = np.zeros(len(cids) + 1, dtype=np.int64)
        np.cumsum([len(c.nodes) for c in blocks], out=offsets[1:])
        h = hashlib.blake2b(digest_size=16)
        h.update(json.dumps(cids).encode("utf-8"))
        h.update(offsets.tobytes())
        h.update(np.asarray([v for c in blocks for v in c.nodes], dtype=np.int64).tobytes())
        h.update(np.asarray([v for c in blocks for v in c.times], dtype=np.float64).tobytes())
        return h.hexdigest()


# --------------------------------------------------------------------- #
# Inputs
# --------------------------------------------------------------------- #

N = 420
POOL = 120  # ordinary cascade ids; "hot" is the one that grows long


def _model(rng: np.random.Generator, K: int, near_dup: bool) -> EmbeddingModel:
    """Uniform rows, or every row a last-bits perturbation of one base
    row, so that many computed pair distances round to <= 0."""
    if not near_dup:
        return EmbeddingModel(rng.uniform(0, 2, (N, K)), rng.uniform(0, 2, (N, K)))
    planes = []
    for _ in range(2):
        base = rng.uniform(0.5, 2, K)
        wiggle = rng.integers(-4, 5, (N, K)) * np.finfo(float).eps
        planes.append(base * (1.0 + wiggle))
    return EmbeddingModel(planes[0], planes[1])


@st.composite
def fold_cases(draw):
    bursts = draw(
        st.lists(
            st.fixed_dictionaries(
                {
                    "cascades": st.integers(1, 80),
                    "hot": st.integers(0, 300),
                    "dup": st.booleans(),
                    "disorder": st.booleans(),
                    "swap": st.booleans(),
                }
            ),
            min_size=1,
            max_size=5,
        )
    )
    return {
        "K": draw(st.sampled_from((1, 3, 10, 16))),
        "extended": draw(st.booleans()),
        "near_dup": draw(st.booleans()),
        "capacity": draw(st.sampled_from((3, 20, 10_000))),
        "pair_cap": draw(st.sampled_from((None, 64, 2048))),
        "seed": draw(st.integers(0, 2**32 - 1)),
        "bursts": bursts,
    }


def _burst(
    rng: np.random.Generator,
    shape: dict,
    b: int,
    used: Dict[str, List[int]],
) -> List[Tuple[str, int, float]]:
    """One burst in arrival order: a time-sorted interleaving of the
    chosen cascades' events, then the requested disorder."""
    cids = [f"c{i}" for i in rng.choice(POOL, size=shape["cascades"], replace=False)]
    counts = rng.geometric(0.45, size=len(cids))
    if shape["hot"]:
        cids.append("hot")
        counts = np.append(counts, shape["hot"])
    events = []
    for cid, count in zip(cids, counts):
        prior = used.setdefault(cid, [])
        for _ in range(int(count)):
            if shape["dup"] and prior and rng.random() < 0.2:
                node = int(prior[rng.integers(len(prior))])  # re-delivery
            else:
                node = int(rng.integers(N))
            prior.append(node)
            events.append((cid, node, float(b + rng.random())))
    events.sort(key=lambda e: e[2])
    if shape["disorder"] and len(events) > 1:
        for _ in range(max(1, len(events) // 20)):
            i, j = rng.integers(len(events), size=2)
            events[i], events[j] = events[j], events[i]
        i = int(rng.integers(len(events)))  # behind every prior burst
        cid, node, _ = events[i]
        events[i] = (cid, node, float(b - 1 + rng.random()))
    return events


def _assert_fold_state_equal(store: FeatureStore, ref: ReferenceStore) -> None:
    for cid, ref_engine in ref.lru.items():
        engine = store.get(cid).engine
        state, row = engine._state, engine._row
        assert engine.features().tobytes() == ref_engine.features().tobytes(), cid
        for p, side in enumerate((ref_engine._side_a, ref_engine._side_b)):
            d2max, sums = state.d2max[p], state.sums[p]
            assert (d2max is not None) == side.need_diver
            assert (sums is not None) == side.need_sum
            if d2max is not None:
                assert np.float64(d2max[row]).tobytes() == np.float64(side.d2max).tobytes(), cid
            if sums is not None:
                assert sums[row].tobytes() == side.vec_sum.tobytes(), cid


# --------------------------------------------------------------------- #
# The property
# --------------------------------------------------------------------- #


@given(fold_cases())
@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_burst_kernel_matches_per_cascade_fold(case):
    rng = np.random.default_rng(case["seed"])
    feature_set = EXTENDED_FEATURES if case["extended"] else PAPER_FEATURES
    K, near_dup = case["K"], case["near_dup"]
    reg = ModelRegistry()
    snap = reg.publish(_model(rng, K, near_dup))
    store = FeatureStore(feature_set, config=StoreConfig(capacity=case["capacity"]))
    ref = ReferenceStore(feature_set, case["capacity"])
    used: Dict[str, List[int]] = {}
    saved_cap = features._PAIR_CAP
    if case["pair_cap"] is not None:
        features._PAIR_CAP = case["pair_cap"]
    try:
        for b, shape in enumerate(case["bursts"]):
            if shape["swap"] and b:
                snap = reg.publish(_model(rng, K, near_dup))
            events = _burst(rng, shape, b, used)
            assert store.ingest_columns(*event_columns(events), snap) == ref.ingest(events, snap)
            assert store.cascade_ids() == list(ref.lru)
            assert vars(store.stats) == ref.stats
            assert store.state_fingerprint() == ref.fingerprint()
            _assert_fold_state_equal(store, ref)
        # scoring reads sync every stale cascade; both sides alike
        for cid in list(ref.lru):
            got = store.features(cid, snap)
            assert got is not None
            assert got.tobytes() == ref.features(cid, snap).tobytes()
        assert vars(store.stats) == ref.stats
        _assert_fold_state_equal(store, ref)
    finally:
        features._PAIR_CAP = saved_cap
    # the scalar path (what ``extract_features`` replays) keeps its bits
    for cid, ref_engine in list(ref.lru.items())[:8]:
        observed = ref_engine.observed()
        scalar = ReferenceFeatures(snap.model, feature_set)
        for node, t in zip(observed.nodes, observed.times):
            scalar.update(node, t)
        batch = extract_features(snap.model, Cascade(observed.nodes, observed.times), feature_set)
        assert batch.tobytes() == scalar.features().tobytes(), cid
