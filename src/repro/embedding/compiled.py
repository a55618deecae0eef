"""Corpus compilation: one vectorized, allocation-free gradient pass.

The two-sweep gradients of :mod:`repro.embedding.gradients` are exact but
pay NumPy call overhead per cascade — ruinous when a corpus holds
thousands of small sub-cascades (the common case inside the parallel
engine).  Since cascade *structure* (node order, tie groups, boundaries)
never changes between optimizer iterations, we compile it once into flat
arrays spanning the whole corpus and evaluate every iteration with a
fixed, small number of NumPy operations over ``(total_infections, K)``
arrays:

* prefix sums run over the concatenation; per-cascade prefixes are
  recovered by subtracting the cumulative value at each cascade's start;
* suffix sums likewise, subtracting at each cascade's end;
* scatter-accumulation into the gradient matrices follows a compile-time
  :class:`ScatterPlan` — an argsort-by-node permutation whose per-node
  segments are reduced by contiguous "rank rounds" (and, for very
  high-multiplicity nodes, power-of-two padded cumsum rectangles), then
  added into the gradient rows with one fancy-index store.  The plan
  applies each node's contributions as a strict left fold in original
  position order, so it is *bit-identical* to ``np.add.at`` while being
  several times faster (``np.add.reduceat`` is not an option: it
  reassociates sums pairwise within segments and changes the bits).

The pass is split where the log-likelihood is known:
:func:`forward_sweep` returns it and leaves its intermediates in the
workspace, and :func:`backward_sweep` turns them into gradients.
:func:`corpus_gradients` is the two in sequence; the optimizer runs the
backward sweep only for steps it accepts.

All per-iteration buffers live in a :class:`GradientWorkspace` that is
reused across optimizer iterations, making both sweeps allocation-free
in steady state.  The result is bit-for-bit the same math as the
per-cascade path (the test suite cross-checks them) at a fraction of the
interpreter and allocator overhead.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Iterable, Optional, Tuple

import numpy as np

from repro.cascades.types import Cascade
from repro.embedding.likelihood import EPS

__all__ = [
    "CompiledCorpus",
    "ScatterPlan",
    "GradientWorkspace",
    "corpus_gradients",
    "forward_sweep",
    "backward_sweep",
]

#: Per-node segments longer than this leave the rank-round path and are
#: reduced as power-of-two padded cumsum rectangles instead — rank
#: rounds degrade to one NumPy call per occurrence rank, which loses to
#: ``np.add.at`` once a single node dominates the corpus (zipf-style
#: multiplicity).  128 was picked empirically: rounds win decisively
#: below it on CI-scale corpora, rectangles win above it.
ROUND_CAP = 128


@dataclass(frozen=True)
class ScatterPlan:
    """Compile-time recipe turning per-position contributions into
    per-node gradient updates, bit-identical to ``np.add.at``.

    Built once per corpus from the node ids alone.  ``gather_rows``
    permutes the ``(M + 1, K)`` contribution buffer (row ``M`` is an
    always-zero sentinel used as padding) into segment-reduction order:
    first the power-of-two padded rectangles of the high-multiplicity
    nodes, then, for every occurrence rank ``r``, the rank-``r`` rows of
    the remaining nodes (segments sorted by descending length so each
    round is one contiguous slice).  ``gather_rows2`` is the same
    permutation duplicated at plane offset ``M + 1`` so both gradient
    contributions (dA, dB) are gathered with a single ``np.take``.
    """

    gather_rows: np.ndarray  # (G,) rows of the (M+1, K) contribution buffer
    gather_rows2: np.ndarray  # (2G,) dual-plane rows of the (2(M+1), K) view
    targets: np.ndarray  # (U,) gradient row per reduced segment
    bins: Tuple[Tuple[int, int, int, int, int], ...]  # (r0, r1, s0, s1, lb)
    rounds: Tuple[Tuple[int, int, int, int], ...]  # (src0, src1, dst0, dst1)
    n_long: int  # segments reduced via rectangles (acc rows [0, n_long))
    n_unique: int  # U, distinct nodes in the corpus
    n_gather: int  # G, rows in the single-plane gather

    @classmethod
    def from_nodes(cls, nodes: np.ndarray, n_positions: int) -> "ScatterPlan":
        """Build the plan for *nodes*; ``n_positions`` is the sentinel row."""
        M = n_positions
        perm = np.argsort(nodes, kind="stable")
        if M == 0:
            empty = np.empty(0, dtype=np.int64)
            return cls(empty, empty, empty, (), (), 0, 0, 0)
        sn = nodes[perm]
        is_start = np.empty(M, dtype=bool)
        is_start[0] = True
        np.not_equal(sn[1:], sn[:-1], out=is_start[1:])
        seg_starts = np.flatnonzero(is_start)
        n_unique = int(seg_starts.size)
        seg_ends = np.append(seg_starts[1:], M)
        lengths = seg_ends - seg_starts
        long_mask = lengths > ROUND_CAP
        long_ids = np.flatnonzero(long_mask)
        short_ids = np.flatnonzero(~long_mask)
        # Descending length makes round r's active set a prefix, so each
        # round reads one contiguous slice of the gathered buffer.
        short_ids = short_ids[np.argsort(-lengths[short_ids], kind="stable")]
        n_long = int(long_ids.size)
        parts = []
        bins = []
        row_off = 0
        seg_off = 0
        if n_long:
            # Pad each long segment to the next power of two with the
            # sentinel row (contributes +0.0, preserving every bit), so
            # one cumsum over a (n_bins, pad, K) rectangle folds all
            # segments of equal padded length at once.
            pad = np.ones(n_long, dtype=np.int64)
            ll = lengths[long_ids]
            while np.any(pad < ll):
                pad[pad < ll] *= 2
            order = np.argsort(pad, kind="stable")
            long_ids = long_ids[order]
            pad = pad[order]
            i = 0
            while i < n_long:
                j = i
                lb = int(pad[i])
                while j < n_long and pad[j] == lb:
                    j += 1
                nb = j - i
                block = np.full((nb, lb), M, dtype=np.int64)
                for row, seg in enumerate(long_ids[i:j]):
                    block[row, : lengths[seg]] = perm[
                        seg_starts[seg] : seg_ends[seg]
                    ]
                parts.append(block.ravel())
                bins.append((row_off, row_off + nb * lb, seg_off, seg_off + nb, lb))
                row_off += nb * lb
                seg_off += nb
                i = j
        rounds = []
        if short_ids.size:
            short_lengths = lengths[short_ids]
            n_rounds = int(short_lengths[0])
            dst0 = n_long
            for r in range(n_rounds):
                n_active = int(np.searchsorted(-short_lengths, -r, side="left"))
                parts.append(perm[seg_starts[short_ids[:n_active]] + r])
                rounds.append((row_off, row_off + n_active, dst0, dst0 + n_active))
                row_off += n_active
        gather_rows = (
            np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)
        )
        gather_rows2 = np.concatenate([gather_rows, gather_rows + (M + 1)])
        targets = np.concatenate(
            [sn[seg_starts[long_ids]], sn[seg_starts[short_ids]]]
        )
        return cls(
            gather_rows=gather_rows,
            gather_rows2=gather_rows2,
            targets=targets,
            bins=tuple(bins),
            rounds=tuple(rounds),
            n_long=n_long,
            n_unique=n_unique,
            n_gather=int(gather_rows.size),
        )

    def reduce_into(self, gathered: np.ndarray, acc: np.ndarray) -> None:
        """Fold one gathered plane ``(n_gather, K)`` into ``acc[:U]``.

        Rectangles first (cumsum along the padded axis, last column is
        the segment total), then rank rounds — round 0 assigns, later
        rounds add, applying occurrences in original position order.
        """
        K = gathered.shape[1]
        for r0, r1, s0, s1, lb in self.bins:
            cube = gathered[r0:r1].reshape(s1 - s0, lb, K)
            np.cumsum(cube, axis=1, out=cube)
            acc[s0:s1] = cube[:, lb - 1, :]
        first = True
        for src0, src1, dst0, dst1 in self.rounds:
            if first:
                acc[dst0:dst1] = gathered[src0:src1]
                first = False
            else:
                acc[dst0:dst1] += gathered[src0:src1]

    def apply_into(
        self, grad: np.ndarray, acc: np.ndarray, gbuf: np.ndarray
    ) -> None:
        """``grad[targets] += acc[:U]`` via gather/add/store (targets are
        unique, so the fancy store is exact)."""
        U = self.n_unique
        g = gbuf[:U]
        np.take(grad, self.targets, axis=0, out=g, mode="clip")
        g += acc[:U]
        grad[self.targets] = g


@dataclass(frozen=True)
class CompiledCorpus:
    """Static structure of a corpus, flattened for vectorized evaluation.

    All index arrays are *global* positions into the concatenated corpus;
    ``starts``/``ends`` delimit each position's strict-tie group,
    ``cascade_begin``/``cascade_end`` the owning cascade.
    """

    nodes: np.ndarray  # (M,) node ids
    times: np.ndarray  # (M,) infection times
    starts: np.ndarray  # (M,) global index of first same-time position
    ends: np.ndarray  # (M,) one past last same-time position
    cascade_begin: np.ndarray  # (M,) global index of cascade's first position
    cascade_end: np.ndarray  # (M,) one past cascade's last position
    valid: np.ndarray  # (M,) has >= 1 strict predecessor

    @classmethod
    def from_cascades(cls, cascades: Iterable[Cascade]) -> "CompiledCorpus":
        """Flatten *cascades* (size-<2 cascades contribute nothing and are
        skipped)."""
        nodes_l, times_l, starts_l, ends_l, cb_l, ce_l = [], [], [], [], [], []
        offset = 0
        for c in cascades:
            s = c.size
            if s < 2:
                continue
            t = c.times
            starts = np.searchsorted(t, t, side="left")
            ends = np.searchsorted(t, t, side="right")
            nodes_l.append(c.nodes)
            times_l.append(t)
            starts_l.append(starts + offset)
            ends_l.append(ends + offset)
            cb_l.append(np.full(s, offset, dtype=np.int64))
            ce_l.append(np.full(s, offset + s, dtype=np.int64))
            offset += s
        if not nodes_l:
            empty_i = np.empty(0, dtype=np.int64)
            empty_f = np.empty(0, dtype=np.float64)
            return cls(
                empty_i, empty_f, empty_i, empty_i, empty_i, empty_i,
                np.empty(0, dtype=bool),
            )
        nodes = np.concatenate(nodes_l)
        times = np.concatenate(times_l)
        starts = np.concatenate(starts_l)
        ends = np.concatenate(ends_l)
        cb = np.concatenate(cb_l)
        ce = np.concatenate(ce_l)
        return cls(nodes, times, starts, ends, cb, ce, starts > cb)

    @classmethod
    def from_arena(
        cls,
        nodes: np.ndarray,
        times: np.ndarray,
        offsets: np.ndarray,
        assume_compact: bool = False,
    ) -> "CompiledCorpus":
        """Compile a flat CSR sub-corpus without materializing ``Cascade``s.

        The zero-copy path of the parallel engine: *nodes*/*times* are the
        concatenated (already time-sorted) sub-cascades a worker gathered
        from the shared-memory arena, *offsets* the ``(S+1,)`` sub-cascade
        boundaries.  Produces bit-identical structure to
        :meth:`from_cascades` over the same sub-cascades — including the
        skip of size-<2 sub-cascades — but with a fixed number of
        vectorized passes instead of a Python loop per cascade.

        ``assume_compact=True`` skips the size-<2 scan entirely; callers
        (the split planner emits groups with ``min_size=2``) use it when
        every sub-cascade is guaranteed to carry likelihood signal.
        """
        nodes = np.ascontiguousarray(nodes, dtype=np.int64)
        times = np.ascontiguousarray(times, dtype=np.float64)
        offsets = np.asarray(offsets, dtype=np.int64)
        sizes = np.diff(offsets)
        if not assume_compact and np.any(sizes < 2):
            # Compact away sub-cascades that carry no likelihood signal.
            keep = sizes >= 2
            mask = np.repeat(keep, sizes)
            nodes = nodes[mask]
            times = times[mask]
            sizes = sizes[keep]
            offsets = np.zeros(sizes.size + 1, dtype=np.int64)
            np.cumsum(sizes, out=offsets[1:])
        M = int(nodes.size)
        if M == 0:
            empty_i = np.empty(0, dtype=np.int64)
            return cls(
                empty_i,
                np.empty(0, dtype=np.float64),
                empty_i,
                empty_i,
                empty_i,
                empty_i,
                np.empty(0, dtype=bool),
            )
        idx = np.arange(M, dtype=np.int64)
        cb = np.repeat(offsets[:-1], sizes)
        ce = np.repeat(offsets[1:], sizes)
        # Tie-group starts: first position of each run of equal times
        # within a cascade (== searchsorted(t, t, "left") per cascade).
        is_first = np.empty(M, dtype=bool)
        is_first[0] = True
        is_first[1:] = times[1:] != times[:-1]
        is_first[offsets[:-1]] = True
        starts = np.maximum.accumulate(np.where(is_first, idx, 0))
        # Tie-group ends: one past the last equal-time position.
        is_last = np.empty(M, dtype=bool)
        is_last[M - 1] = True
        is_last[:-1] = times[1:] != times[:-1]
        is_last[offsets[1:] - 1] = True
        ends = np.minimum.accumulate(np.where(is_last, idx + 1, M)[::-1])[::-1]
        return cls(nodes, times, starts, ends, cb, ce, starts > cb)

    @property
    def n_infections(self) -> int:
        return int(self.nodes.size)

    # -- compile-time derived structure (cached; corpus is immutable) -- #

    @cached_property
    def scatter_plan(self) -> ScatterPlan:
        """The segment-reduce plan for this corpus's node multiset."""
        return ScatterPlan.from_nodes(self.nodes, self.n_infections)

    @cached_property
    def ties_free(self) -> bool:
        """True when no two infections share a timestamp within a
        cascade — then ``starts == arange(M)`` / ``ends == arange(M)+1``
        and the kernel reads prefix/suffix rows as views instead of
        gathering them."""
        M = self.n_infections
        idx = np.arange(M, dtype=np.int64)
        return bool(
            np.array_equal(self.starts, idx)
            and np.array_equal(self.ends, idx + 1)
        )

    @cached_property
    def invalid_rows(self) -> np.ndarray:
        """Positions with no strict predecessor (first tie group of each
        cascade); their dB/suffix contributions are zeroed."""
        return np.flatnonzero(~self.valid)

    @cached_property
    def valid_rows(self) -> np.ndarray:
        """Complement of :attr:`invalid_rows` — the positions whose
        likelihood terms are summed.  Cached so the kernel's compaction
        is a plain ``np.take`` (``np.compress`` re-derives this index
        array on every call, ~600 KB of transient heap at CI scale)."""
        return np.flatnonzero(self.valid)

    @cached_property
    def n_valid(self) -> int:
        return int(self.valid.sum())


class GradientWorkspace:
    """Reusable buffer pool for :func:`corpus_gradients` (and the
    optimizer's retract candidates).

    Buffers grow monotonically and are recycled across iterations — in
    steady state (same corpus, same K) a gradient evaluation performs no
    heap allocation.  The workspace also carries the intermediates of a
    :func:`forward_sweep` to the :func:`backward_sweep` that follows it;
    ``_swept`` names the corpus and K they belong to until the backward
    sweep consumes them.  The workspace may be reused across corpora of
    different shapes; every buffer is fully written before it is read
    within a sweep pair, so no stale data can leak between corpora (the
    property suite checks workspace-reuse against fresh allocation
    bitwise).  Not thread-safe: one workspace per thread/process.
    """

    #: Growth slack so a slowly growing corpus sequence doesn't realloc
    #: on every call.
    _SLACK = 1.25

    def __init__(self) -> None:
        self._mats: Dict[str, np.ndarray] = {}
        self._vecs: Dict[str, np.ndarray] = {}
        self._swept: Optional[Tuple[int, int]] = None

    # -- sizing ------------------------------------------------------- #

    def _mat(self, name: str, rows: int, cols: int) -> np.ndarray:
        buf = self._mats.get(name)
        if buf is None or buf.shape[1] != cols or buf.shape[0] < rows:
            cap = max(rows, int(rows * self._SLACK), 1)
            buf = np.empty((cap, cols), dtype=np.float64)
            self._mats[name] = buf
        return buf[:rows]

    def _vec(self, name: str, size: int) -> np.ndarray:
        buf = self._vecs.get(name)
        if buf is None or buf.size < size:
            cap = max(size, int(size * self._SLACK), 1)
            buf = np.empty(cap, dtype=np.float64)
            self._vecs[name] = buf
        return buf[:size]

    # -- optimizer candidates ------------------------------------------ #

    def model_candidates(
        self, n_rows: int, n_cols: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Two ``(n_rows, n_cols)`` buffers for the optimizer's
        out-of-place candidate step (ping-pong retraction)."""
        a = self._mats.get("candA")
        b = self._mats.get("candB")
        if a is None or a.shape != (n_rows, n_cols):
            a = np.empty((n_rows, n_cols), dtype=np.float64)
            self._mats["candA"] = a
        if b is None or b.shape != (n_rows, n_cols):
            b = np.empty((n_rows, n_cols), dtype=np.float64)
            self._mats["candB"] = b
        return a, b

    def release_candidates(self) -> None:
        """Drop the candidate buffers (they may alias a model's arrays
        after the optimizer's final pointer swap)."""
        self._mats.pop("candA", None)
        self._mats.pop("candB", None)


def corpus_gradients(
    A: np.ndarray,
    B: np.ndarray,
    corpus: CompiledCorpus,
    gradA: np.ndarray,
    gradB: np.ndarray,
    eps: float = EPS,
    workspace: Optional[GradientWorkspace] = None,
) -> float:
    """Add the full-corpus ∇L to *gradA*/*gradB* in place; return Σ_c L_c.

    Exactly Eq. 12–16, evaluated in one pass (see module docstring):
    :func:`forward_sweep` then :func:`backward_sweep` through one
    workspace.  Passing a :class:`GradientWorkspace` makes the evaluation
    allocation-free in steady state; results are bit-identical either
    way.
    """
    if workspace is None:
        workspace = GradientWorkspace()
    ll = forward_sweep(A, B, corpus, workspace, eps=eps)
    backward_sweep(corpus, gradA, gradB, workspace)
    return ll


def forward_sweep(
    A: np.ndarray,
    B: np.ndarray,
    corpus: CompiledCorpus,
    workspace: GradientWorkspace,
    eps: float = EPS,
) -> float:
    """Return Σ_c L_c at (*A*, *B*) and keep the sweep's intermediates.

    The prefix sums H/G, the per-position B rows and the denominators
    stay in *workspace* for :func:`backward_sweep`, which turns them into
    gradients without reading *A* or *B* again.  A caller that only needs
    the objective (the optimizer's rejected candidates) stops here, at
    about 0.4 of a full :func:`corpus_gradients` pass (``BENCH_kernel.json``).
    """
    ws = workspace
    M = corpus.n_infections
    K = A.shape[1]
    ws._swept = (id(corpus), K)
    if M == 0:
        return 0.0
    nodes = corpus.nodes
    ties_free = corpus.ties_free
    # Column broadcasts (by times here, by inv_denom in the backward
    # sweep) all go through einsum "ik,i->ik": multiplying by a (M,1)
    # operand makes numpy's ufunc machinery allocate a 64 KB iterator
    # buffer per call and run ~1.5x slower; the einsum products are
    # bit-identical.
    times = corpus.times

    # All gathers use mode="clip": indices are in bounds by construction
    # and the default "raise" path is ~2.5x slower when writing to out=.
    cumA = ws._mat("cumA", M + 1, K)
    cumtA = ws._mat("cumtA", M + 1, K)
    dual = ws._mat("dual", 2 * (M + 1), K)  # plane 0: dA, plane 1: dB
    H = ws._mat("H", M, K)
    T1 = ws._mat("T1", M, K)
    # Per-position B rows live in sufB, where the backward sweep turns
    # them into its suffix sums in place.
    B_pos = ws._mat("sufB", M + 1, K)[:M]

    np.take(A, nodes, axis=0, out=cumA[1:], mode="clip")
    np.einsum("ik,i->ik", cumA[1:], times, out=cumtA[1:])
    cumA[0] = 0.0
    cumtA[0] = 0.0
    np.cumsum(cumA[1:], axis=0, out=cumA[1:])
    np.cumsum(cumtA[1:], axis=0, out=cumtA[1:])
    G = dual[M + 1 : 2 * M + 1]
    np.take(cumA, corpus.cascade_begin, axis=0, out=T1, mode="clip")
    if ties_free:
        np.subtract(cumA[:M], T1, out=H)
    else:
        np.take(cumA, corpus.starts, axis=0, out=H, mode="clip")
        H -= T1
    np.take(cumtA, corpus.cascade_begin, axis=0, out=T1, mode="clip")
    if ties_free:
        np.subtract(cumtA[:M], T1, out=G)
    else:
        np.take(cumtA, corpus.starts, axis=0, out=G, mode="clip")
        G -= T1

    np.take(B, nodes, axis=0, out=B_pos, mode="clip")
    denom = ws._vec("denom", M)
    np.einsum("ik,ik->i", H, B_pos, out=denom)
    np.maximum(denom, eps, out=denom)

    # lin = G - t*H, built in the dB plane (the backward sweep adds H/denom).
    np.einsum("ik,i->ik", H, times, out=T1)
    np.subtract(G, T1, out=G)
    ll_lin = ws._vec("ll_lin", M)
    np.einsum("ik,ik->i", G, B_pos, out=ll_lin)

    # ---- log-likelihood ----------------------------------------------- #
    n_valid = corpus.n_valid
    # np.compress would re-derive the index array every call (~600 KB of
    # transient heap at CI scale); take through the cached valid_rows is
    # allocation-free.  c1 gets its own buffer: take's out must not alias
    # its input.
    c1 = ws._vec("ll_sum", M)[:n_valid]
    c2 = ws._vec("ll_log", M)[:n_valid]
    valid_rows = corpus.valid_rows
    np.take(ll_lin, valid_rows, out=c1, mode="clip")
    np.take(denom, valid_rows, out=c2, mode="clip")
    np.log(c2, out=c2)
    c1 += c2
    return float(np.sum(c1))


def backward_sweep(
    corpus: CompiledCorpus,
    gradA: np.ndarray,
    gradB: np.ndarray,
    workspace: GradientWorkspace,
) -> None:
    """Add ∇L to *gradA*/*gradB* from the last :func:`forward_sweep`.

    Consumes the intermediates that sweep left in *workspace* (they are
    overwritten in place), so it runs at most once per forward sweep,
    with the same corpus and K; anything else raises ``ValueError``.
    """
    ws = workspace
    M = corpus.n_infections
    K = gradA.shape[1]
    swept, ws._swept = ws._swept, None
    if swept != (id(corpus), K):
        raise ValueError(
            "backward_sweep needs the forward_sweep of this corpus and K "
            "just before it"
        )
    if M == 0:
        return
    plan = corpus.scatter_plan
    ties_free = corpus.ties_free
    invalid_rows = corpus.invalid_rows
    times = corpus.times
    dual = ws._mat("dual", 2 * (M + 1), K)
    dA_plane = dual[: M + 1]
    dB_plane = dual[M + 1 :]
    H = ws._mat("H", M, K)
    Q = ws._mat("Q", M, K)
    T1 = ws._mat("T1", M, K)
    sufB = ws._mat("sufB", M + 1, K)
    suftB = ws._mat("suftB", M + 1, K)
    sufBd = ws._mat("sufBd", M + 1, K)
    B_pos = sufB[:M]
    denom = ws._vec("denom", M)
    inv_denom = ws._vec("inv_denom", M)
    np.divide(1.0, denom, out=inv_denom)

    # dB = lin + H/denom, finished in the dB plane.
    G = dB_plane[:M]
    np.einsum("ik,i->ik", H, inv_denom, out=T1)
    np.add(G, T1, out=G)
    G[invalid_rows] = 0.0
    dB_plane[M] = 0.0  # scatter sentinel row

    B_pos[invalid_rows] = 0.0  # B_pos becomes vB in place
    np.einsum("ik,i->ik", B_pos, times, out=suftB[:M])
    np.einsum("ik,i->ik", B_pos, inv_denom, out=sufBd[:M])
    for buf in (sufB, suftB, sufBd):
        buf[M] = 0.0
        rev = buf[:M][::-1]
        np.cumsum(rev, axis=0, out=rev)
    P = dA_plane[:M]
    np.take(sufB, corpus.cascade_end, axis=0, out=T1, mode="clip")
    if ties_free:
        np.subtract(sufB[1:], T1, out=P)
    else:
        np.take(sufB, corpus.ends, axis=0, out=P, mode="clip")
        P -= T1
    np.take(suftB, corpus.cascade_end, axis=0, out=T1, mode="clip")
    if ties_free:
        np.subtract(suftB[1:], T1, out=Q)
    else:
        np.take(suftB, corpus.ends, axis=0, out=Q, mode="clip")
        Q -= T1
    np.einsum("ik,i->ik", P, times, out=T1)  # einsum's out must not alias
    np.subtract(T1, Q, out=P)
    np.take(sufBd, corpus.cascade_end, axis=0, out=Q, mode="clip")
    if ties_free:
        np.subtract(sufBd[1:], Q, out=T1)
    else:
        np.take(sufBd, corpus.ends, axis=0, out=T1, mode="clip")
        T1 -= Q
    P += T1  # dA = t*P - Q + R
    dA_plane[M] = 0.0  # scatter sentinel row

    # ---- scatter ------------------------------------------------------- #
    if plan.n_unique:
        gathered = ws._mat("gather", max(2 * plan.n_gather, 1), K)
        accA = ws._mat("accA", max(plan.n_unique, 1), K)
        accB = ws._mat("accB", max(plan.n_unique, 1), K)
        gbuf = ws._mat("gbuf", max(plan.n_unique, 1), K)
        both = gathered[: 2 * plan.n_gather]
        np.take(dual, plan.gather_rows2, axis=0, out=both, mode="clip")
        plan.reduce_into(both[: plan.n_gather], accA)
        plan.reduce_into(both[plan.n_gather :], accB)
        plan.apply_into(gradA, accA, gbuf)
        plan.apply_into(gradB, accB, gbuf)
