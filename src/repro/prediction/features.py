"""Early-adopter feature extraction (Eq. 17–19), batch and streaming.

The features deliberately use only the *influence* vectors of the early
adopters — no topology — which is what lets the predictor work when the
propagation network is hidden (§V).  Selectivity-based analogues
(``diverB``/``normB``/``maxB``) and the raw early-adopter count are
provided as extensions; the paper's feature set is the default.

Streaming evaluation
--------------------
:class:`IncrementalFeatures` folds adoption events in one at a time —
``normA``/``maxA`` as running sums, ``diverA`` via an O(mK) new-adopter
distance update, the MAP-infector-tree statistics via appending to the
parent forest — instead of the O(m²K) recompute a batch call performs on
every prefix.  :func:`extract_features` *is* this class replayed over a
prefix, so the streamed and batch feature vectors are bit-identical on
every observed prefix by construction (the serving layer's parity
guarantee, property-tested in ``tests/property/test_prop_serving.py``).

A consequence worth stating: the canonical summation order of ``sumA``
is the *left fold in adoption order* (not numpy's pairwise ``sum``), and
``diverA`` is the max over per-adopter distance updates (not one Gram
matrix).  Both are mathematically the quantities of Eq. 17–19; only the
float rounding path is pinned down so that two implementations can agree
bit-for-bit.

Batched folding
---------------
The *fold state* of a cascade is, per embedding plane, the running max
squared pair distance (``diver*``) and the running left-fold sum
(``norm*``/``max*``).  It lives in :class:`FoldColumns`, one row per
cascade: a standalone engine owns a one-row instance, the serving store
shares one across all its slots.  :func:`fold_burst` folds a burst of
events spanning many cascades with one numeric pass over those columns —
a stable sort groups the burst, each cascade does only its bookkeeping
(duplicate check, event-log append, in-order check) and one block
contraction, and the distances, the per-cascade max and the running-sum
fold run once for the whole burst.  :meth:`IncrementalFeatures.update_many`
and the replay of an out-of-order log call the same kernel with one
cascade.  History rows are the model's rows of the logged nodes, gathered
per burst.  Bit-identity with the scalar :meth:`IncrementalFeatures.update`
holds because every primitive is *block-stable*:

* history dot products go through :func:`_hist_dots` (numpy's einsum
  core, whose per-element contraction over ``k`` is identical whether
  the output is a vector or a block — unlike BLAS, whose gemv and gemm
  kernels round differently);
* squared row norms go through :func:`_row_sq_norms`, the batched twin
  of :func:`_row_sq_norm` (same einsum core);
* a pair block over history + new rows also holds the sub-diagonal
  mirror of each valid pair, bitwise equal to its valid twin (float
  multiply and add commute exactly), so once the self-pairs are struck
  the block's plain max is the masked max;
* the running ``sum`` is added to the first new row and the rest are
  folded with ``np.cumsum``, which numpy evaluates as a strict
  sequential scan — exactly the per-event left fold;
* ``diver*``'s running max commutes with batching (max is exact).

Reading features back is batched the same way: :func:`feature_rows`
turns many cascades' fold-state rows into feature rows with one column
pass per feature, and :meth:`IncrementalFeatures.features` is its
one-row case.

These hold for finite embedding rows; a model holding NaN or infinity
gets no bit-identity promise.
"""

from __future__ import annotations

from itertools import accumulate
from typing import AbstractSet, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.cascades.types import Cascade
from repro.embedding.model import EmbeddingModel

try:
    # the C core ``np.einsum`` runs when ``optimize`` is off: the same
    # bits, without the Python wrapper and array-function dispatch that
    # cost a few microseconds on each of a burst's per-cascade calls
    from numpy._core.multiarray import c_einsum as _einsum
except ImportError:  # pragma: no cover - numpy < 2
    _einsum = np.einsum

__all__ = [
    "PAPER_FEATURES",
    "EXTENDED_FEATURES",
    "extract_features",
    "feature_rows",
    "fold_burst",
    "FeatureExtractor",
    "FoldColumns",
    "IncrementalFeatures",
]

PAPER_FEATURES: Tuple[str, ...] = ("diverA", "normA", "maxA")
EXTENDED_FEATURES: Tuple[str, ...] = (
    "diverA",
    "normA",
    "maxA",
    "diverB",
    "normB",
    "maxB",
    "n_early",
    # structural features of the MAP infector tree of the early prefix
    # (the Cheng et al. family the paper cites as [21])
    "depth",
    "breadth",
    "sviral",
)

#: initial per-cascade buffer capacity (doubled on demand)
_INIT_CAPACITY = 8

#: widest block of new adopters one pair tile contracts (and one
#: running-sum pass folds): a larger share of a burst folds as
#: successive column tiles, so replaying a long log computes little of
#: its pair block's invalid upper triangle
_FOLD_CHUNK = 128

#: cap, in doubles, on the transient work of one fold pass: the dot and
#: distance blocks of the pair tiles contracted together, and the padded
#: running-sum block.  A burst wider than this folds in several passes
#: and a history longer than it allows splits its tile by rows, so the
#: scratch does not grow with burst width or cascade length.
_PAIR_CAP = 1 << 16


def _row_sq_norm(v: np.ndarray) -> float:
    """Squared Euclidean norm of one embedding row, the canonical way.

    Both the batch path and the incremental tracker compute ‖x‖² through
    this single call so the bits can never diverge.
    """
    return float(_einsum("k,k->", v, v))


def _row_sq_norms(rows: np.ndarray) -> np.ndarray:
    """Squared norms of many rows at once, bit-identical per row to
    :func:`_row_sq_norm` (same einsum sum-of-products core, contraction
    over the same axis — the outer dimension only changes the stride
    walk, not the per-element arithmetic)."""
    return _einsum("ik,ik->i", rows, rows)


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
        return _einsum("ck,jk->cj", history, new_rows, out=out)
    return _einsum("ck,jk->cj", history, new_rows)


class FoldColumns:
    """The fold state of many cascades, one row per cascade.

    Per embedding plane (0 = A, 1 = B), holding only what the feature
    set reads: ``d2max[p][row]``, the running max squared pair distance,
    when ``diver*`` is wanted (``-inf`` before the first pair); and
    ``sums[p][row]``, the running left-fold sum of the adopters' rows,
    when ``norm*``/``max*`` are.  Rows are recycled, never freed.
    """

    __slots__ = ("n_topics", "capacity", "d2max", "sums")

    def __init__(self, feature_set: Sequence[str], capacity: int = 1) -> None:
        fs = frozenset(feature_set)
        self.n_topics = 0
        self.capacity = capacity
        self.d2max: List[Optional[np.ndarray]] = [
            np.full(capacity, -np.inf) if f"diver{p}" in fs else None for p in "AB"
        ]
        self.sums: List[Optional[np.ndarray]] = [
            np.zeros((capacity, 0)) if fs & {f"norm{p}", f"max{p}"} else None
            for p in "AB"
        ]

    def grow(self, capacity: int) -> None:
        """Enlarge to *capacity* rows, keeping every existing row."""
        for p, col in enumerate(self.d2max):
            if col is not None:
                new = np.full(capacity, -np.inf)
                new[: self.capacity] = col
                self.d2max[p] = new
        for p, mat in enumerate(self.sums):
            if mat is not None:
                new = np.zeros((capacity, self.n_topics))
                new[: self.capacity] = mat
                self.sums[p] = new
        self.capacity = capacity

    def fit_topics(self, n_topics: int) -> None:
        """Size the sum rows for a model with *n_topics* topics.

        A different width reallocates the sums: every row computed
        under the old model is stale then and is rebuilt before it is
        read (the store replays a slot whose model version is behind).
        """
        if n_topics != self.n_topics:
            self.n_topics = n_topics
            self.sums = [
                None if mat is None else np.zeros((self.capacity, n_topics))
                for mat in self.sums
            ]

    def clear(self, row: int) -> None:
        """Reset *row* to the state of a cascade with no adopters."""
        for col in self.d2max:
            if col is not None:
                col[row] = -np.inf
        for mat in self.sums:
            if mat is not None:
                mat[row] = 0.0

    def planes(
        self, model: EmbeddingModel
    ) -> List[Tuple[np.ndarray, Optional[np.ndarray], Optional[np.ndarray]]]:
        """``(embedding plane, d2max column, sums matrix)`` of every
        plane some feature reads."""
        return [
            (plane, d2max, sums)
            for plane, d2max, sums in zip(
                (model.A, model.B), self.d2max, self.sums
            )
            if d2max is not None or sums is not None
        ]


def _fold_pairs(
    X: np.ndarray,
    d2max: np.ndarray,
    rows: Sequence[int],
    offsets: Sequence[int],
    starts: Sequence[int],
    ends: Sequence[int],
) -> None:
    """Fold every group's new pair distances into its running max.

    ``X[offsets[g] : offsets[g] + ends[g]]`` are group *g*'s rows in
    adoption order; the first ``starts[g]`` of them are already folded.
    A new adopter at position *c* pairs with every position before it,
    so the group's block is rows ``[0, c1)`` × new columns ``[c0, c1)``
    — split into column tiles of at most ``_FOLD_CHUNK`` and, when a
    tile would pass the cap, into row ranges.  Each tile is one
    :func:`_hist_dots` contraction and one broadcast add of the squared
    norms into a shared buffer, filled a chunk at a time, and one
    strided slice striking its self-pairs (dot := ``+inf``, so the
    distance is ``-inf``, which no max picks); the distances, tile
    maxima and per-group fold are whole-chunk calls.
    """
    sq = _row_sq_norms(X)
    sq_col = sq[:, None]
    half = _PAIR_CAP // 2  # the dot block and the distance block
    # (group, first row, end row, first new column, end column, pairs)
    # in X's coordinates
    tiles: List[Tuple[int, int, int, int, int, int]] = []
    for g, (o, i0, end) in enumerate(zip(offsets, starts, ends)):
        if end < 2:
            continue  # the first adopter alone has no pair
        if end - i0 <= _FOLD_CHUNK and end * (end - i0) <= half:  # one tile
            tiles.append((g, o, o + end, o + i0, o + end, end * (end - i0)))
            continue
        for c0 in range(i0, end, _FOLD_CHUNK):
            c1 = min(c0 + _FOLD_CHUNK, end)
            if c1 < 2:
                continue
            cols = c1 - c0
            step = max(1, half // cols)
            for r0 in range(0, c1, step):
                r1 = min(r0 + step, c1)
                tiles.append((g, o + r0, o + r1, o + c0, o + c1, (r1 - r0) * cols))
    lo = 0
    while lo < len(tiles):
        hi, total = lo, 0
        while hi < len(tiles) and (hi == lo or total + tiles[hi][5] <= half):
            total += tiles[hi][5]
            hi += 1
        dots = np.empty(total)
        d2 = np.empty(total)
        tile_at: List[int] = []
        group_at: List[int] = []
        group_rows: List[int] = []
        off = 0
        last = -1
        for t in range(lo, hi):
            g, r0, r1, c0, c1, size = tiles[t]
            shape = (r1 - r0, c1 - c0)
            _hist_dots(X[r0:r1], X[c0:c1], out=dots[off : off + size].reshape(shape))
            # (sq_p + sq_c) - 2·dot, grouped exactly as the scalar
            # update writes it; the difference runs once per chunk
            np.add(sq_col[r0:r1], sq[c0:c1], out=d2[off : off + size].reshape(shape))
            # the self-pairs (p == c) lie on one stride-(cols + 1) diagonal
            s0 = r0 if r0 > c0 else c0
            s1 = r1 if r1 < c1 else c1
            if s1 > s0:
                step = c1 - c0 + 1
                first = off + (s0 - r0) * (step - 1) + (s0 - c0)
                dots[first : first + (s1 - s0) * step : step] = np.inf
            tile_at.append(off)
            if g != last:  # a group's tiles are adjacent
                group_at.append(t - lo)
                group_rows.append(rows[g])
                last = g
            off += size
        np.multiply(dots, 2.0, out=dots)
        np.subtract(d2, dots, out=d2)
        # fmax folds like the scalar ``max(d2max, block max)``
        group_max = np.fmax.reduceat(np.maximum.reduceat(d2, tile_at), group_at)
        where = np.asarray(group_rows, dtype=np.intp)
        d2max[where] = np.fmax(d2max[where], group_max)
        lo = hi


def _fold_sums(
    X: np.ndarray,
    sums: np.ndarray,
    rows: Sequence[int],
    firsts: Sequence[int],
    counts: Sequence[int],
) -> None:
    """Left-fold every group's new rows into its running sum.

    Group *g*'s new rows are ``X[firsts[g] : firsts[g] + counts[g]]``.
    They are gathered into one ``(groups, new, K)`` block, padded past a
    group's last row with copies of it; the running sum is added to each
    group's first row and one ``np.cumsum`` along axis 1 continues the
    sequential scan ``((sum + r0) + r1) + …`` of every group at once.
    Each total is read at its group's own length, so the padding never
    reaches it.  A group with more than ``_FOLD_CHUNK`` new rows folds
    them in successive passes carrying the sum, and each pass stacks as
    many groups as fit under the cap.
    """
    K = X.shape[1]
    rows_arr = np.asarray(rows, dtype=np.intp)
    firsts_arr = np.asarray(firsts, dtype=np.intp)
    counts_arr = np.asarray(counts, dtype=np.intp)
    live = np.arange(rows_arr.shape[0])
    done = 0
    while live.size:
        n_live = np.minimum(counts_arr[live] - done, _FOLD_CHUNK)
        width = int(n_live.max())
        per = max(1, _PAIR_CAP // (width * max(K, 1)))
        for a in range(0, live.shape[0], per):
            grp, n_new = live[a : a + per], n_live[a : a + per]
            where = rows_arr[grp]
            first = firsts_arr[grp] + done
            block = X[np.minimum(first[:, None] + np.arange(width), (first + n_new - 1)[:, None])]
            block[:, 0] += sums[where]
            np.cumsum(block, axis=1, out=block)  # strict sequential scan
            sums[where] = block[np.arange(grp.shape[0]), n_new - 1]
        done += _FOLD_CHUNK
        live = live[counts_arr[live] > done]


def _fold_rows(
    model: EmbeddingModel,
    state: FoldColumns,
    rows: Sequence[int],
    logs: Sequence[np.ndarray],
    starts: Sequence[int],
) -> None:
    """The numeric fold: group *g*'s node log ``logs[g]`` (adoption
    order) has its first ``starts[g]`` adopters folded into fold-state
    row ``rows[g]``; fold the rest in.  Rows must be distinct."""
    if not rows:
        return
    ends = [log.shape[0] for log in logs]
    counts = [end - i0 for end, i0 in zip(ends, starts)]
    for plane, d2max, sums in state.planes(model):
        if d2max is not None:
            # every group's rows, history then new, back to back
            X = plane[np.concatenate(logs)]
            offsets = list(accumulate(ends[:-1], initial=0))
            _fold_pairs(X, d2max, rows, offsets, starts, ends)
            firsts = [o + i0 for o, i0 in zip(offsets, starts)]
        else:  # the sum reads only the new rows
            X = plane[np.concatenate([log[i0:] for log, i0 in zip(logs, starts)])]
            firsts = list(accumulate(counts[:-1], initial=0))
        if sums is not None:
            _fold_sums(X, sums, rows, firsts, counts)


def fold_burst(
    engines: Sequence["IncrementalFeatures"],
    group_of: Optional[np.ndarray],
    nodes: np.ndarray,
    times: np.ndarray,
    assume_sorted: bool = False,
) -> List[int]:
    """Fold one validated burst into many cascades at once.

    Event *i* (``nodes[i]`` at ``times[i]``) belongs to
    ``engines[group_of[i]]``; ``group_of=None`` means every event
    belongs to the single engine.  The engines must share one
    :class:`FoldColumns` (distinct rows) and one model.  Returns how
    many events each engine applied.

    One stable sort groups the burst.  Per engine, only the bookkeeping
    runs in Python: duplicates are dropped in arrival order (against the
    adopter set and within the burst), the event log grows, and the
    in-order check picks the append path or a replay of the stable
    time-sorted log.  Then every appending engine's new adopters fold
    with one numeric pass (:func:`_fold_rows`), bit-identical to feeding
    the same events through :meth:`IncrementalFeatures.update` one at a
    time.  ``assume_sorted`` promises *times* is non-decreasing within
    each engine's share; the check against each engine's last folded
    event still runs.
    """
    n = nodes.shape[0]
    if group_of is None:
        bounds = [0, n]
        g_nodes, g_times = nodes, times
    else:
        order = np.argsort(group_of, kind="stable")
        g_nodes, g_times = nodes[order], times[order]
        bounds = [0]
        bounds.extend(np.cumsum(np.bincount(group_of, minlength=len(engines))).tolist())
    node_list = g_nodes.tolist()
    time_list = g_times.tolist()
    descents: Optional[List[int]] = None
    if not assume_sorted:
        # descents[i]: time decreases counted over positions 1 .. i
        descents = [0]
        descents.extend(np.cumsum(g_times[1:] < g_times[:-1]).tolist())
    applied: List[int] = []
    rows: List[int] = []
    logs: List[np.ndarray] = []
    starts: List[int] = []
    for g, engine in enumerate(engines):
        a = bounds[g]
        b = bounds[g + 1]
        count = b - a
        new_nodes = node_list[a:b]
        seen = engine._node_set
        before = len(seen)
        # one blind set-union detects the common no-repeat case; on a
        # repeat the set is repaired from the event log (it is always
        # exactly the log's node set)
        seen.update(new_nodes)
        if len(seen) - before == count:
            new_times = time_list[a:b]
            node_arr = g_nodes[a:b]
            in_order = descents is None or descents[b - 1] == descents[a]
        else:
            seen.clear()
            seen.update(engine._event_nodes)
            keep: List[int] = []
            for i, node in enumerate(new_nodes):
                if node not in seen:
                    seen.add(node)
                    keep.append(i)
            count = len(keep)
            new_nodes = [new_nodes[i] for i in keep]
            new_times = [time_list[a + i] for i in keep]
            node_arr = np.asarray(new_nodes, dtype=np.int64)
            in_order = descents is None or all(
                x <= y for x, y in zip(new_times, new_times[1:])
            )
        applied.append(count)
        if not count:
            continue
        engine._event_nodes.extend(new_nodes)
        engine._event_times.extend(new_times)
        m = engine._m
        if not in_order or (m and new_times[0] < engine._last):
            engine._rebuild()  # state := fold over the stable-sorted log
            continue
        engine._place(node_arr, new_times)
        rows.append(engine._row)
        logs.append(engine._nodes[: m + count])
        starts.append(m)
    if rows:
        _fold_rows(engines[0].model, engines[0]._state, rows, logs, starts)
    return applied



class _TreeState:
    """Incremental MAP infector forest + Cheng-et-al. structure stats.

    Parents only ever *append* under time-ordered arrival (a new adopter
    cannot change an earlier adopter's MAP parent — its strict
    predecessors are fixed), so depth/breadth are O(1) updates and the
    Wiener total is an O(m·depth) LCA sweep per event.  All quantities
    are integers accumulated exactly, so the running totals match the
    batch recompute bit-for-bit in any arrival order.
    """

    __slots__ = (
        "parents",
        "depths",
        "times",
        "depth_counts",
        "max_depth",
        "max_breadth",
        "anc_sets",
        "sv_total",
        "track_sviral",
    )

    def __init__(self, track_sviral: bool) -> None:
        self.parents = np.empty(_INIT_CAPACITY, dtype=np.int64)
        self.depths = np.empty(_INIT_CAPACITY, dtype=np.int64)
        #: adoption times in fold order (the MAP-parent search reads them)
        self.times = np.empty(_INIT_CAPACITY, dtype=np.float64)
        self.depth_counts: List[int] = []
        self.max_depth = 0
        self.max_breadth = 0
        #: per-position {ancestor position: distance}; -1 is the virtual
        #: origin every root hangs off (structural_virality's convention)
        self.anc_sets: List[Dict[int, int]] = []
        self.sv_total = 0.0
        self.track_sviral = track_sviral

    def grow(self, capacity: int) -> None:
        parents = np.empty(capacity, dtype=np.int64)
        parents[: self.parents.shape[0]] = self.parents
        self.parents = parents
        depths = np.empty(capacity, dtype=np.int64)
        depths[: self.depths.shape[0]] = self.depths
        self.depths = depths
        times = np.empty(capacity, dtype=np.float64)
        times[: self.times.shape[0]] = self.times
        self.times = times

    def reset(self) -> None:
        """Forget the forest but keep the grown buffers."""
        self.depth_counts.clear()
        self.max_depth = 0
        self.max_breadth = 0
        self.anc_sets.clear()
        self.sv_total = 0.0

    def extend(
        self,
        model: EmbeddingModel,
        nodes: np.ndarray,
        times: Sequence[float],
        i0: int,
    ) -> None:
        """Append the in-order adopters at positions ``i0 ..`` of the
        fold-order log *nodes*, at *times*, one event at a time."""
        end = i0 + len(times)
        self.times[i0:end] = times
        for i in range(i0, end):
            self.append(model, nodes[: i + 1], self.times[: i + 1], i)

    def append(
        self,
        model: EmbeddingModel,
        nodes: np.ndarray,
        times: np.ndarray,
        i: int,
    ) -> None:
        from repro.cascades.trees import map_parent

        start = int(np.searchsorted(times, times[i], side="left"))
        p = map_parent(model, nodes, times, i, start)
        self.parents[i] = p
        d = 0 if p < 0 else int(self.depths[p]) + 1
        self.depths[i] = d
        if d >= len(self.depth_counts):
            self.depth_counts.append(0)
        self.depth_counts[d] += 1
        self.max_depth = max(self.max_depth, d)
        self.max_breadth = max(self.max_breadth, self.depth_counts[d])
        if not self.track_sviral:
            return
        chain = [i]
        while self.parents[chain[-1]] >= 0:
            chain.append(int(self.parents[chain[-1]]))
        chain.append(-1)  # virtual origin above every root
        for j in range(i):
            set_j = self.anc_sets[j]
            for d_i, n in enumerate(chain):
                if n in set_j:
                    self.sv_total += set_j[n] + d_i  # ints: exact in any order
                    break
        self.anc_sets.append({n: d for d, n in enumerate(chain)})

    def sviral(self, m: int) -> float:
        """Mean pairwise tree distance (Wiener index), 0 for < 2 adopters."""
        if m < 2:
            return 0.0
        return self.sv_total / (m * (m - 1) // 2)



class IncrementalFeatures:
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
    state, row:
        Where the fold state lives: row *row* of *state*.  By default
        the engine owns a one-row :class:`FoldColumns`; the serving
        store binds each slot's engine to its row of shared columns, so
        one :func:`fold_burst` call folds a burst across cascades.

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
        *,
        state: Optional[FoldColumns] = None,
        row: int = 0,
    ) -> None:
        for name in feature_set:
            if name not in EXTENDED_FEATURES:
                raise ValueError(
                    f"unknown feature {name!r}; valid: {EXTENDED_FEATURES}"
                )
        self.model = model
        self.feature_set = tuple(feature_set)
        self._state = state if state is not None else FoldColumns(self.feature_set)
        self._row = row
        fs = frozenset(self.feature_set)
        self._need_sviral = "sviral" in fs
        self._tree = (
            _TreeState(self._need_sviral)
            if fs & {"depth", "breadth", "sviral"}
            else None
        )
        #: arrival-order event log; the source of truth for rebuilds.
        #: Two parallel lists, not a list of tuples: burst appends are
        #: then two C-level ``extend`` calls with no tuple boxing.
        self._event_nodes: List[int] = []
        self._event_times: List[float] = []
        self._node_set: Set[int] = set()
        #: adopters in fold (stable time) order — the rows of the fold
        self._capacity = _INIT_CAPACITY
        self._nodes = np.empty(_INIT_CAPACITY, dtype=np.int64)
        self._init_derived()

    # ------------------------------------------------------------------ #

    def _init_derived(self) -> None:
        """(Re-)zero the derived state, recycling grown buffers.

        Every retained buffer is fully rewritten before it is read, so
        stale data cannot leak between incarnations.
        """
        self._m = 0
        self._last = float("-inf")  # latest folded adoption time
        self._state.fit_topics(self.model.n_topics)
        self._state.clear(self._row)
        if self._tree is not None:
            self._tree.reset()

    def _ensure_capacity(self, n: int) -> None:
        if n <= self._capacity:
            return
        capacity = self._capacity
        while capacity < n:
            capacity *= 2
        nodes = np.empty(capacity, dtype=np.int64)
        nodes[: self._m] = self._nodes[: self._m]
        self._nodes = nodes
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
        return self._last

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
        if self._m and t < self._last:
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

        The batched twin of :meth:`update`, and :func:`fold_burst` with
        one cascade: duplicates are dropped in arrival order (against
        prior state *and* within the burst), the surviving events take
        the vectorized append path when they are time-ordered, and any
        out-of-order arrival falls back to one rebuild over the stable
        time-sorted log — so the resulting state is bit-identical to
        feeding the same events through :meth:`update` one at a time.

        Unlike the scalar path, the whole burst is validated before any
        state changes (an invalid node or non-finite time raises with
        the engine untouched); ``validate=False`` skips that for a
        caller that has already checked the burst.  ``assume_sorted=True``
        is a trusted promise that *times* is non-decreasing within the
        burst; the boundary against the last folded event is still
        checked.
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
            if int(node_arr.min()) < 0 or int(node_arr.max()) >= self.model.n_nodes:
                raise ValueError(
                    f"burst contains nodes outside the model universe of "
                    f"{self.model.n_nodes} nodes"
                )
        return fold_burst([self], None, node_arr, time_arr, assume_sorted)[0]

    def _place(self, nodes: np.ndarray, times: Sequence[float]) -> None:
        """Append pre-filtered in-order events to the fold-order log; the
        fold itself is the caller's :func:`_fold_rows` pass.  The
        MAP-parent recurrence is sequential, so it runs per event."""
        i0 = self._m
        end = i0 + nodes.shape[0]
        if end > self._capacity:
            self._ensure_capacity(end)
        self._nodes[i0:end] = nodes
        self._m = end
        self._last = float(times[-1])
        if self._tree is not None:
            self._tree.extend(self.model, self._nodes, times, i0)

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
        self._init_derived()
        if not self._event_nodes:
            return
        nodes = np.asarray(self._event_nodes, dtype=np.int64)
        times = np.asarray(self._event_times, dtype=np.float64)
        order = np.argsort(times, kind="stable")  # Cascade's ordering
        # the sorted log is in-order by construction: replay it as one
        # batched fold (bit-identical to scalar appends)
        self._place(nodes[order], times[order])
        _fold_rows(self.model, self._state, [self._row], [self._nodes[: self._m]], [0])

    def _append(self, node: int, t: float) -> None:
        """Fold one in-order adopter: the scalar twin of :func:`_fold_rows`.

        The ``diver`` update is the O(mK) step: squared distances of the
        new adopter against every previous one via one :func:`_hist_dots`
        call, folded into the running max (max is order-independent, so
        the running fold equals the batch max bit-for-bit); the sum is
        the left fold in adoption order.
        """
        i = self._m
        self._ensure_capacity(i + 1)
        self._nodes[i] = node
        self._m = i + 1
        self._last = t
        r = self._row
        for plane, d2max, sums in self._state.planes(self.model):
            if d2max is not None and i >= 1:
                history = plane[self._nodes[:i]]
                sq_new = _row_sq_norm(plane[node])
                dots = _hist_dots(history, plane[node : node + 1])[:, 0]
                d2 = _row_sq_norms(history) + sq_new - 2.0 * dots
                d2max[r] = max(float(d2max[r]), float(d2.max()))
            if sums is not None:
                np.add(sums[r], plane[node], out=sums[r])
        if self._tree is not None:
            self._tree.extend(self.model, self._nodes, (t,), i)

    # ------------------------------------------------------------------ #

    def features(self) -> np.ndarray:
        """Current feature vector, shape ``(len(feature_set),)``.

        The one-row case of :func:`feature_rows`.  Zero observed
        adopters yield the all-zero vector — every feature is
        identically 0 for an empty prefix, stated explicitly rather than
        left to downstream arithmetic.
        """
        return feature_rows([self])[0]



def feature_rows(engines: Sequence[IncrementalFeatures]) -> np.ndarray:
    """Feature vectors of many engines at once, ``(len(engines), F)``.

    The engines must share one :class:`FoldColumns` and one feature set
    (the serving store's slots do; a standalone engine is the one-row
    case).  Each fold-state feature is one column pass over the engines'
    rows; the tree features are read from each engine's tree state.  A
    row's bits do not depend on which other engines share the call.  Two
    choices pin the values to the scalar expressions that define them:

    * ``diver*`` is ``sqrt(max(d2max, 0.0))`` with Python's ``max``,
      which returns its first argument on a tie, so a running max of
      ``-0.0`` gives ``-0.0``.  ``np.where(d2 < 0.0, 0.0, d2)`` keeps
      that; ``np.maximum(-0.0, 0.0)`` is ``+0.0``.
    * ``norm*`` is ``sqrt(sum · sum)`` with the dot kernel of
      ``ndarray.dot`` on one row (what ``np.linalg.norm`` computes).  A
      stacked ``(n, 1, K) @ (n, K, 1)`` matmul runs that kernel once per
      row; ``einsum`` and ``.sum(axis=1)`` accumulate in other orders.

    Fewer than two adopters give ``diver*`` = 0 (Eq. 17 needs a pair),
    and zero adopters the all-zero row.
    """
    first = engines[0]
    state = first._state
    rows = np.array([e._row for e in engines], dtype=np.intp)
    m = np.array([e._m for e in engines], dtype=np.int64)
    out = np.empty((rows.shape[0], len(first.feature_set)))
    sums: Dict[int, np.ndarray] = {}  # each plane's rows, gathered once
    for j, name in enumerate(first.feature_set):
        if name in ("diverA", "diverB"):
            d2max = state.d2max[0 if name == "diverA" else 1]
            assert d2max is not None
            d2 = d2max[rows]
            out[:, j] = np.sqrt(np.where(d2 < 0.0, 0.0, d2))
            out[m < 2, j] = 0.0
        elif name in ("normA", "maxA", "normB", "maxB"):
            p = 0 if name[-1] == "A" else 1
            s = sums.get(p)
            if s is None:
                plane_sums = state.sums[p]
                assert plane_sums is not None
                s = sums[p] = plane_sums[rows]
            if name.startswith("norm"):
                out[:, j] = np.sqrt(np.matmul(s[:, None, :], s[:, :, None])[:, 0, 0])
            else:
                out[:, j] = s.max(axis=1) if s.shape[1] else 0.0
        elif name == "n_early":
            out[:, j] = m
        else:  # the MAP-infector-tree statistics, kept per engine
            # (every engine of a set naming one has a tree state)
            trees = [e._tree for e in engines if e._tree is not None]
            if name == "depth":
                out[:, j] = [tree.max_depth for tree in trees]
            elif name == "breadth":
                out[:, j] = [tree.max_breadth for tree in trees]
            else:
                out[:, j] = [tree.sviral(e._m) for tree, e in zip(trees, engines)]
    out[m == 0] = 0.0
    return out


def extract_features(
    model: EmbeddingModel,
    early: Cascade,
    feature_set: Sequence[str] = PAPER_FEATURES,
) -> np.ndarray:
    """Feature vector of one cascade's early adopters.

    Implemented as a replay of :class:`IncrementalFeatures` — the batch
    and streaming paths are literally the same code, which is what makes
    the serving tracker's features bit-identical to this function on
    every prefix.  An empty prefix returns the all-zero vector.

    Parameters
    ----------
    model:
        Trained embeddings.
    early:
        The early-adopter prefix of a cascade (e.g.
        ``cascade.prefix_by_time(t0 + window * 2 / 7)``).
    feature_set:
        Names from :data:`EXTENDED_FEATURES`; order defines the output
        layout.

    Returns
    -------
    numpy.ndarray of shape (len(feature_set),)
    """
    inc = IncrementalFeatures(model, feature_set)
    for v, t in zip(early.nodes, early.times):
        inc.update(int(v), float(t))
    return inc.features()


class FeatureExtractor:
    """Batch extraction over many cascades with a fixed feature set."""

    def __init__(
        self,
        model: EmbeddingModel,
        feature_set: Sequence[str] = PAPER_FEATURES,
    ) -> None:
        for name in feature_set:
            if name not in EXTENDED_FEATURES:
                raise ValueError(f"unknown feature {name!r}")
        self.model = model
        self.feature_set = tuple(feature_set)

    @property
    def n_features(self) -> int:
        return len(self.feature_set)

    def transform(self, prefixes: Sequence[Cascade]) -> np.ndarray:
        """(n_cascades × n_features) design matrix."""
        X = np.empty((len(prefixes), self.n_features), dtype=np.float64)
        for i, c in enumerate(prefixes):
            X[i] = extract_features(self.model, c, self.feature_set)
        return X
