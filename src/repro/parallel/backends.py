"""Execution backends for per-community block optimization.

A **block task** is the unit of parallel work in Algorithm 1: one
community's local corpus plus its rows of ``A``/``B``; running it means
block projected-gradient ascent until early stopping.  Backends differ only
in *where* tasks run:

* :class:`SerialBackend` — in the calling process, one after another;
  also records per-task wall-clock used to calibrate the cost model.
* :class:`MultiprocessBackend` — real OS processes.  ``A`` and ``B`` live
  in POSIX shared memory; each worker attaches, gathers its community's
  rows, optimizes locally, and scatters the rows back.  Communities are
  disjoint, so writes touch disjoint row blocks — the write-write
  conflict freedom of §IV-B — and no locks are needed.

Both run one block-fit path.  :meth:`Backend.prepare` takes the corpus
in the flat layout of :func:`~repro.parallel.arena.flatten_corpus` — in
process memory for the serial backend, copied to a shared-memory
:class:`~repro.parallel.arena.CorpusArena` for the pool — and the driver
splits it into tasks that address their sub-cascades as index ranges.
Every task, wherever it runs, compiles its sub-corpus with
:func:`_compile_subcorpus` and fits it with :func:`_run_block`.  The pool
also publishes each level's split to a
:class:`~repro.parallel.arena.LevelSelection`, so a task ships as a tuple
of index ranges and workers compile (and cache) straight from the shared
buffers.

Tasks are dispatched longest-predicted-first (LPT order from
:class:`~repro.parallel.costmodel.DispatchCostEstimator`), so the level's
straggler starts as early as possible instead of wherever ``Pool.map``'s
chunking happened to place it.

Dispatch is *supervised* (see :mod:`repro.parallel.supervision`): each
attempt carries a deadline derived from the cost estimator, pool-process
liveness is polled, and a crashed/hung/raising attempt is retried with
exponential backoff — in a respawned pool while retries remain, and the
last permitted attempt in the parent, against the same shared blocks
(parent-owned shared segments survive a respawn; fresh workers simply
re-attach and re-warm their compile caches).  Every retry re-seeds the
task's embedding rows first, so faults never leak partial state.

Serial, pooled and in-parent runs produce bit-identical results for the
same task inputs because the block optimizer is deterministic given its
initial rows and every run of a task compiles the same corpus.
"""

from __future__ import annotations

import multiprocessing as mp
import pickle
import time
import weakref
from collections import OrderedDict
from dataclasses import dataclass, field
from functools import partial
from multiprocessing import shared_memory
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cascades.types import CascadeSet
from repro.devtools import sanitize
from repro.embedding.compiled import CompiledCorpus, GradientWorkspace
from repro.embedding.model import EmbeddingModel
from repro.embedding.optimizer import OptimizerConfig, ProjectedGradientAscent
from repro.parallel._shm import create_segment
from repro.parallel.arena import (
    ArenaMeta,
    CorpusArena,
    FlatCorpus,
    LevelSelection,
    SelectionMeta,
    flatten_corpus,
)
from repro.parallel.supervision import (
    FaultLogEntry,
    SupervisedDispatcher,
    SupervisionConfig,
    inject_fault,
)
from repro.utils.timing import Stopwatch

__all__ = [
    "BlockTask",
    "BlockResult",
    "DispatchStats",
    "Backend",
    "SerialBackend",
    "MultiprocessBackend",
]


@dataclass
class BlockTask:
    """One community's work at one merge-tree level.

    Attributes
    ----------
    community_id:
        Dense community id at this level.
    nodes:
        Global node ids of the community (sorted ascending).
    A_rows, B_rows:
        Initial (len(nodes), K) embedding rows (level *i* output seeds
        level *i+1*, Alg. 2).
    config:
        Optimizer hyper-parameters.
    level:
        Merge-tree level this task belongs to (cache/bookkeeping key).
    arena_positions:
        Flat positions into the prepared corpus of this community's
        sub-cascade infections (grouped by sub-cascade, time order
        preserved); empty for a task without nodes.
    arena_sub_offsets:
        ``(s+1,)`` sub-cascade boundaries within ``arena_positions``
        (first entry 0).
    """

    community_id: int
    nodes: np.ndarray
    A_rows: np.ndarray
    B_rows: np.ndarray
    config: OptimizerConfig
    level: int = 0
    arena_positions: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.int64)
    )
    arena_sub_offsets: np.ndarray = field(
        default_factory=lambda: np.zeros(1, dtype=np.int64)
    )

    @property
    def n_infections(self) -> int:
        """Total infections across the task's sub-cascades (workload proxy)."""
        return int(self.arena_positions.size)


@dataclass
class BlockResult:
    """Updated rows plus bookkeeping from one block optimization."""

    community_id: int
    nodes: np.ndarray
    A_rows: np.ndarray
    B_rows: np.ndarray
    n_iters: int
    final_loglik: float
    wall_seconds: float
    #: iterations × infections — the unit-cost workload the cost model uses
    work_units: int = 0
    #: steps the fit accepted (``len(FitResult.history) - 1``) and why it
    #: stopped (``FitResult.reason``)
    accepted_steps: int = 0
    stop_reason: str = ""
    #: compute-time split: sub-corpus compile/fetch, optimizer iterations,
    #: and shared-memory row gather/scatter (each a slice of wall_seconds)
    compile_seconds: float = 0.0
    kernel_seconds: float = 0.0
    gather_seconds: float = 0.0


@dataclass
class DispatchStats:
    """Per-level dispatch accounting recorded by :class:`MultiprocessBackend`.

    ``overhead_seconds`` is the level's wall-clock minus the compute time
    the workers measured for themselves — i.e. everything the parallel
    harness *added*: payload pickling, IPC, shared-memory (re)writes,
    scheduling, result collection, and (when faults occurred) retries,
    backoff, and pool respawns.  ``compute_seconds`` counts each task's
    *successful* attempt exactly once, so the accounting stays consistent
    under retries — wasted attempts show up as overhead, where they
    belong.

    ``fault_log`` records every detected fault (timeout / crash /
    exception) with the fallback rung chosen for the retry; see
    :class:`~repro.parallel.supervision.FaultLogEntry`.
    """

    mode: str  # "arena" | "empty"
    n_tasks: int
    wall_seconds: float
    compute_seconds: float
    build_seconds: float
    payload_bytes: Optional[int] = None
    payload_pickle_seconds: Optional[float] = None
    fault_log: List[FaultLogEntry] = field(default_factory=list)
    n_respawns: int = 0
    #: worker-measured split of ``compute_seconds``: sub-corpus compile
    #: (zero on a warm cache), gradient-kernel iterations, and embedding
    #: row gather/scatter against shared memory.  ``None`` for "empty"
    #: levels, which dispatch no work.
    kernel_seconds: Optional[float] = None
    compile_seconds: Optional[float] = None
    gather_seconds: Optional[float] = None

    @property
    def overhead_seconds(self) -> float:
        return max(0.0, self.wall_seconds - self.compute_seconds)


def _empty_result(task: BlockTask) -> BlockResult:
    """The answer to a task without nodes: it references no embedding
    row, so there is nothing to fit — its seed rows come back unchanged
    with no iterations, steps or stop reason, on every backend."""
    return BlockResult(
        community_id=task.community_id,
        nodes=task.nodes,
        A_rows=task.A_rows.copy(),
        B_rows=task.B_rows.copy(),
        n_iters=0,
        final_loglik=0.0,
        wall_seconds=0.0,
        work_units=0,
        accepted_steps=0,
        stop_reason="",
    )


#: the refusal of a task with nodes before ``prepare`` (both backends)
_UNPREPARED = (
    "run_level got a task with nodes before prepare(): hand the backend "
    "the corpus first and build the tasks from what it returns "
    "(HierarchicalInference.fit does both)"
)


def _block_result(
    task: BlockTask, record: Tuple, A_rows: np.ndarray, B_rows: np.ndarray
) -> BlockResult:
    """*task*'s result from its :func:`_run_block` record and fitted rows."""
    _idx, cid, n_iters, accepted, reason, ll, secs, units, split = record
    compile_s, kernel_s, gather_s = split
    return BlockResult(
        community_id=cid,
        nodes=task.nodes,
        A_rows=A_rows,
        B_rows=B_rows,
        n_iters=n_iters,
        final_loglik=ll,
        wall_seconds=secs,
        work_units=units,
        accepted_steps=accepted,
        stop_reason=reason,
        compile_seconds=compile_s,
        kernel_seconds=kernel_s,
        gather_seconds=gather_s,
    )


class Backend:
    """Interface: run a level's block tasks, return their results."""

    def prepare(self, cascades: CascadeSet) -> "FlatCorpus | CorpusArena":
        """Take the full corpus before the first level runs.

        Returns it in the flat layout (``times``, ``nodes``, ``offsets``)
        the driver splits into each level's tasks; :meth:`run_level`
        refuses a task with nodes until this has run.
        """
        raise NotImplementedError

    def run_level(self, tasks: Sequence[BlockTask]) -> List[BlockResult]:
        raise NotImplementedError

    def close(self) -> None:
        """Release resources (idempotent)."""

    def __enter__(self) -> "Backend":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


class SerialBackend(Backend):
    """Run tasks one after another in the calling process.

    :meth:`prepare` keeps the flat corpus in process memory (no shared
    memory segment), and each task is compiled and fitted as the pool's
    last retry rung fits it in the parent.
    """

    # Lazy class-level defaults: subclasses that skip __init__ still work.
    _corpus: Optional[FlatCorpus] = None
    _workspace: Optional[GradientWorkspace] = None

    def prepare(self, cascades: CascadeSet) -> FlatCorpus:
        self._corpus = flatten_corpus(cascades)
        return self._corpus

    def run_level(self, tasks: Sequence[BlockTask]) -> List[BlockResult]:
        corpus = self._corpus
        if corpus is None and any(t.nodes.size for t in tasks):
            raise ValueError(_UNPREPARED)
        if self._workspace is None:
            self._workspace = GradientWorkspace()
        results = []
        for t in tasks:
            if not t.nodes.size:
                results.append(_empty_result(t))
                continue
            # _run_block fits its rows of A/B in place: here, a copy of
            # the task's seed rows, which becomes the result.
            A, B = t.A_rows.copy(), t.B_rows.copy()
            record = _run_block(
                0,
                t.community_id,
                A,
                B,
                np.arange(t.nodes.size),
                partial(_compile_task, corpus, t),
                t.config,
                self._workspace,
            )
            results.append(_block_result(t, record, A, B))
        return results


# --------------------------------------------------------------------- #
# Worker-side state (per worker process, populated lazily)
# --------------------------------------------------------------------- #

#: shm name -> attached SharedMemory, kept open across tasks/levels.
_ATTACHMENTS: "OrderedDict[str, shared_memory.SharedMemory]" = OrderedDict()
_ATTACHMENTS_MAX = 16

#: (arena name, selection digest) -> {community_id: (CompiledCorpus,
#: raw_infections)}.  An arena segment is written once and a new corpus
#: gets a new segment, so the arena name pins the corpus and the digest
#: pins the level's split: optimizer restarts over an unchanged level
#: reuse the compiled structure even across run_level calls, and a
#: second corpus published by ``prepare`` never hits the first one's.
_COMPILE_CACHE: "OrderedDict[Tuple[str, str], Dict[int, Tuple[CompiledCorpus, int]]]" = (
    OrderedDict()
)
_COMPILE_CACHE_MAX_LEVELS = 4

#: per-process gradient workspace, reused across every task/level this
#: worker runs (lives alongside the compile cache; grow-only buffers, so
#: one instance serves corpora of any shape without reallocation churn).
_WORKSPACE: Optional[GradientWorkspace] = None


def _worker_workspace() -> GradientWorkspace:
    global _WORKSPACE
    if _WORKSPACE is None:
        _WORKSPACE = GradientWorkspace()
    return _WORKSPACE


def _attach_cached(name: str) -> shared_memory.SharedMemory:
    shm = _ATTACHMENTS.get(name)
    if shm is None:
        from repro.parallel._shm import attach_untracked

        shm = attach_untracked(name)
        _ATTACHMENTS[name] = shm
    else:
        _ATTACHMENTS.move_to_end(name)
    return shm


def _prune_worker_caches(in_use: Tuple[str, ...]) -> None:
    """Drop attachments/compile entries beyond the caps (oldest first)."""
    while len(_ATTACHMENTS) > _ATTACHMENTS_MAX:
        for name in _ATTACHMENTS:
            if name not in in_use:
                _ATTACHMENTS.pop(name).close()
                break
        else:  # pragma: no cover - everything in use; nothing to prune
            break
    while len(_COMPILE_CACHE) > _COMPILE_CACHE_MAX_LEVELS:
        _COMPILE_CACHE.popitem(last=False)


def _compile_subcorpus(
    times_v: np.ndarray,
    nodes_v: np.ndarray,
    pos_v: np.ndarray,
    sub_v: np.ndarray,
    members: np.ndarray,
    sub_lo: int,
    sub_hi: int,
) -> Tuple[CompiledCorpus, int]:
    """Gather sub-cascades ``[sub_lo, sub_hi)`` out of the arena and compile.

    *times_v*/*nodes_v* are the corpus's flat buffers, *pos_v*/*sub_v*
    the positions and sub-cascade offsets that address them, and
    *members* the community's sorted member list (the local-id remap).
    Workers, the pool's serial rung and :class:`SerialBackend` all
    compile here, so a task runs on the same corpus wherever it runs.
    Returns the corpus and its infection count.
    """
    pos_lo, pos_hi = int(sub_v[sub_lo]), int(sub_v[sub_hi])
    sel = pos_v[pos_lo:pos_hi]
    # Fancy indexing copies, so the corpus never aliases shared memory
    # (safe to cache past the segment's lifetime).
    local_nodes = np.searchsorted(members, nodes_v[sel]).astype(np.int64)
    rel_offsets = sub_v[sub_lo : sub_hi + 1] - pos_lo
    # The driver's sub-cascade splitter drops size-<2 groups before they
    # reach the arena, so the compaction scan is a guaranteed no-op.
    corpus = CompiledCorpus.from_arena(
        local_nodes, times_v[sel], rel_offsets, assume_compact=True
    )
    return corpus, pos_hi - pos_lo


def _compile_task(
    corpus: "FlatCorpus | CorpusArena", task: BlockTask
) -> Tuple[CompiledCorpus, int]:
    """Compile *task*'s sub-corpus from the parent's copy of the corpus."""
    offsets = task.arena_sub_offsets
    return _compile_subcorpus(
        corpus.times,
        corpus.nodes,
        task.arena_positions,
        offsets,
        task.nodes,
        0,
        offsets.size - 1,
    )


def _compiled_for_task(
    arena_meta: ArenaMeta,
    sel_meta: SelectionMeta,
    community_id: int,
    sub_lo: int,
    sub_hi: int,
    members: np.ndarray,
) -> Tuple[CompiledCorpus, int]:
    """Fetch (or build and cache) a task's compiled sub-corpus."""
    key = (arena_meta.name, sel_meta.digest)
    per_level = _COMPILE_CACHE.get(key)
    if per_level is not None:
        _COMPILE_CACHE.move_to_end(key)
        hit = per_level.get(community_id)
        if hit is not None:
            return hit
    else:
        per_level = _COMPILE_CACHE[key] = {}
    arena_shm = _attach_cached(arena_meta.name)
    sel_shm = _attach_cached(sel_meta.name)
    times_v, nodes_v, _ = CorpusArena.view(arena_shm.buf, arena_meta)
    pos_v, sub_v, _ = LevelSelection.view(sel_shm.buf, sel_meta)
    entry = _compile_subcorpus(
        times_v, nodes_v, pos_v, sub_v, members, sub_lo, sub_hi
    )
    per_level[community_id] = entry
    return entry


def _run_block(
    task_idx: int,
    community_id: int,
    A: np.ndarray,
    B: np.ndarray,
    members: np.ndarray,
    compile_corpus: Callable[[], Tuple[CompiledCorpus, int]],
    config: OptimizerConfig,
    workspace: GradientWorkspace,
) -> Tuple:
    """Fit one community's rows of the ``A``/``B`` blocks in place.

    Gathers the rows of *members*, runs the block optimizer on the corpus
    *compile_corpus* returns, and scatters the rows back — disjoint rows
    per community, so conflict-free by design.  The blocks are the pool's
    shared segments, or :class:`SerialBackend`'s copy of one task's seed
    rows.  Returns the result record
    ``(task_idx, community_id, n_iters, accepted_steps, stop_reason,
    final_loglik, wall_seconds, work_units, (compile_s, kernel_s,
    gather_s))``; the rows travel back in ``A``/``B``.
    """
    sw = Stopwatch()
    with sw:
        t0 = time.perf_counter()
        corpus, n_inf = compile_corpus()
        t1 = time.perf_counter()
        model = EmbeddingModel(A[members], B[members])  # fancy gather = copy
        t2 = time.perf_counter()
        fit = ProjectedGradientAscent(config).fit(model, corpus, workspace=workspace)
        t3 = time.perf_counter()
        A[members] = model.A
        B[members] = model.B
        t4 = time.perf_counter()
    return (
        task_idx,
        community_id,
        fit.n_iters,
        len(fit.history) - 1,
        fit.reason,
        fit.final_loglik,
        sw.elapsed,
        max(1, fit.n_iters) * n_inf,
        (t1 - t0, t3 - t2, (t2 - t1) + (t4 - t3)),
    )


def _mp_worker(args: Tuple) -> Tuple:
    """Worker entry: run one arena-backed block task (see :func:`_run_block`).

    The payload carries only index ranges into the shared arena and
    selection blocks.  Its trailing element is a test-only fault spec
    (normally ``None``); it fires *before* any shared state is touched, so
    injected faults exercise the supervision loop deterministically.
    """
    (
        task_idx,
        shm_a_name,
        shm_b_name,
        shape,
        arena_meta,
        sel_meta,
        community_id,
        sub_lo,
        sub_hi,
        mem_lo,
        mem_hi,
        config,
        fault,
    ) = args
    inject_fault(fault)
    # The parent owns (and unlinks) these segments; workers attach without
    # letting their resource tracker claim them too.
    shm_a = _attach_cached(shm_a_name)
    shm_b = _attach_cached(shm_b_name)
    sel_shm = _attach_cached(sel_meta.name)
    _prune_worker_caches((shm_a_name, shm_b_name, arena_meta.name, sel_meta.name))
    A = np.ndarray(shape, dtype=np.float64, buffer=shm_a.buf)
    B = np.ndarray(shape, dtype=np.float64, buffer=shm_b.buf)
    _, _, mem_v = LevelSelection.view(sel_shm.buf, sel_meta)
    members = mem_v[mem_lo:mem_hi]
    return _run_block(
        task_idx,
        community_id,
        A,
        B,
        members,
        lambda: _compiled_for_task(
            arena_meta, sel_meta, community_id, sub_lo, sub_hi, members
        ),
        config,
        _worker_workspace(),
    )


# --------------------------------------------------------------------- #
# Parent-side resource management
# --------------------------------------------------------------------- #


class _EmbeddingSegments:
    """Persistent shared A/B segments, grown (never shrunk) on demand."""

    _SLACK = 1.25

    def __init__(self) -> None:
        self._shm_a: Optional[shared_memory.SharedMemory] = None
        self._shm_b: Optional[shared_memory.SharedMemory] = None
        self._capacity = 0

    def ensure(
        self, shape: Tuple[int, int]
    ) -> Tuple[np.ndarray, np.ndarray, str, str]:
        """Return ``(A, B, name_a, name_b)`` views of at least *shape*."""
        nbytes = int(np.prod(shape)) * 8
        if self._shm_a is None or nbytes > self._capacity:
            self.close()
            self._capacity = max(int(nbytes * self._SLACK), 1)
            self._shm_a = create_segment(self._capacity)
            self._shm_b = create_segment(self._capacity)
        A = np.ndarray(shape, dtype=np.float64, buffer=self._shm_a.buf)
        B = np.ndarray(shape, dtype=np.float64, buffer=self._shm_b.buf)
        return A, B, self._shm_a.name, self._shm_b.name

    def close(self) -> None:
        for attr in ("_shm_a", "_shm_b"):
            shm = getattr(self, attr)
            setattr(self, attr, None)
            if shm is not None:
                shm.close()
                try:
                    shm.unlink()
                except FileNotFoundError:  # pragma: no cover
                    pass
        self._capacity = 0


class _Resources:
    """Everything a backend owns that must be reaped exactly once.

    Held via :func:`weakref.finalize` so abandoning a backend without
    ``close()`` (or an ``__init__`` failure after pool creation) still
    reaps the worker pool and unlinks the shared segments.

    ``pool`` always points at the backend's *current* pool generation:
    fault-triggered respawns terminate the old generation themselves and
    then re-point this handle, so ``release`` stays idempotent across
    generations — whichever generation is live when the backend closes
    (or is GC'd) is the one reaped, and segments are unlinked exactly
    once no matter how many respawns happened.
    """

    def __init__(self, pool: Optional[mp.pool.Pool]) -> None:
        self.pool = pool
        self.segments: List = []  # objects exposing .close()
        self.released = False

    def release(self, graceful: bool = False) -> None:
        if self.released:
            return
        self.released = True
        if self.pool is not None:
            if graceful:
                self.pool.close()
            else:
                self.pool.terminate()
            self.pool.join()
            self.pool = None
        for seg in self.segments:
            seg.close()
        self.segments = []


def _finalize_resources(resources: _Resources) -> None:
    resources.release(graceful=False)


@dataclass
class _LevelContext:
    """Per-``run_level`` state the supervised dispatch loop works against.

    Holds everything needed to (re)build any task's payload and to reseed
    its embedding rows, so retries need not re-derive level state.
    """

    tasks: List[BlockTask]
    shape: Tuple[int, int]
    name_a: str
    name_b: str
    A: np.ndarray  # parent view of the shared A block
    B: np.ndarray
    arena_meta: ArenaMeta
    sel_meta: SelectionMeta
    #: per-task (sub_lo, sub_hi, mem_lo, mem_hi) index ranges
    ranges: List[Tuple[int, int, int, int]]


class MultiprocessBackend(Backend):
    """Run tasks on a pool of OS processes with shared-memory embeddings.

    :meth:`prepare` must publish the corpus before :meth:`run_level` sees
    a task with nodes, and the tasks address the returned
    :class:`~repro.parallel.arena.CorpusArena`;
    :meth:`HierarchicalInference.fit
    <repro.parallel.hierarchical.HierarchicalInference.fit>` does both.
    Workers are forked.

    Parameters
    ----------
    n_workers:
        Pool size (the paper's "cores"); defaults to ``os.cpu_count()``.
    profile_dispatch:
        Record per-level payload size and pickle time in
        :attr:`level_profiles` (costs one extra serialization per payload;
        meant for the dispatch benchmark, not production runs).
    max_retries:
        Extra attempts per block task beyond the first.  Attempts before
        the last run in the pool; the last permitted attempt (attempt
        ``max_retries``) runs serially in the parent, so one pathological
        community degrades instead of failing the run.  The default 3
        allows up to three pool attempts before the parent; ``0`` runs
        every task in the parent.  Sets the :class:`SupervisionConfig`
        field of the same name, as does ``task_timeout``.
    task_timeout:
        Explicit per-task deadline in seconds; ``None`` derives one from
        the dispatch cost estimator once it has observed a level (see
        :class:`SupervisionConfig`).
    _fault_plan:
        Test-only: a :class:`~repro.parallel.supervision._FaultPlan` (or
        sequence of them) shipped to workers inside payloads to trigger
        deterministic crash/hang/raise faults.
    """

    def __init__(
        self,
        n_workers: Optional[int] = None,
        profile_dispatch: bool = False,
        max_retries: int = 3,
        task_timeout: Optional[float] = None,
        _fault_plan=None,
    ) -> None:
        if n_workers is not None and n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        self.n_workers = n_workers if n_workers is not None else mp.cpu_count()
        self._ctx = mp.get_context("fork")
        pool = self._ctx.Pool(self.n_workers)
        try:
            self._resources = _Resources(pool)
            self._finalizer = weakref.finalize(
                self, _finalize_resources, self._resources
            )
            self._pool = pool
            self._worker_pids = frozenset(p.pid for p in pool._pool)
            self._closed = False
            self.profile_dispatch = bool(profile_dispatch)
            self.supervision = SupervisionConfig(
                max_retries=max_retries, task_timeout=task_timeout
            )
            if _fault_plan is None:
                self._fault_plans = ()
            elif isinstance(_fault_plan, (list, tuple)):
                self._fault_plans = tuple(_fault_plan)
            else:
                self._fault_plans = (_fault_plan,)
            #: pool generations spawned after faults (0 = never respawned)
            self.respawn_count = 0
            self._level_ctx: Optional[_LevelContext] = None
            #: kernel buffers for the in-parent serial rung
            self._serial_workspace = GradientWorkspace()
            self._segments = _EmbeddingSegments()
            self._resources.segments.append(self._segments)
            self._arena: Optional[CorpusArena] = None
            self._selection: Optional[LevelSelection] = None
            from repro.parallel.costmodel import DispatchCostEstimator

            self.estimator = DispatchCostEstimator()
            #: per-run_level dispatch accounting (most recent last)
            self.level_profiles: List[DispatchStats] = []
        except BaseException:
            # __init__ died after the pool existed: reap it here, since no
            # usable object (hence no finalizer-owned handle) escapes.
            pool.terminate()
            pool.join()
            raise

    # ------------------------------------------------------------------ #

    def prepare(self, cascades: CascadeSet) -> CorpusArena:
        """Publish *cascades* to a shared-memory arena (replacing any
        previously published corpus)."""
        if self._closed:
            raise RuntimeError("backend already closed")
        if self._arena is not None:
            self._arena.close()
            self._resources.segments.remove(self._arena)
        self._arena = CorpusArena(cascades)
        self._resources.segments.append(self._arena)
        if self._selection is None:
            self._selection = LevelSelection()
            self._resources.segments.append(self._selection)
        return self._arena

    # ------------------------------------------------------------------ #

    def run_level(self, tasks: Sequence[BlockTask]) -> List[BlockResult]:
        if self._closed:
            raise RuntimeError("backend already closed")
        tasks = list(tasks)
        if not tasks:
            return []
        t_start = time.perf_counter()
        # A task without nodes references no embedding row: there is
        # nothing for a worker to optimize.
        work = [t for t in tasks if t.nodes.size]
        if not work:
            stats = DispatchStats("empty", len(tasks), 0.0, 0.0, 0.0)
            self.level_profiles.append(stats)
            return [_empty_result(t) for t in tasks]
        if self._arena is None:
            raise ValueError(_UNPREPARED)

        # All tasks at a level share the embedding shape; size the shared
        # blocks by the largest referenced row.
        K = work[0].A_rows.shape[1]
        n_total = 1 + max(int(t.nodes.max()) for t in work)
        shape = (n_total, K)
        A, B, name_a, name_b = self._segments.ensure(shape)
        for t in work:
            A[t.nodes] = t.A_rows
            B[t.nodes] = t.B_rows
        sel_meta, ranges = self._publish_selection(work)
        ctx = _LevelContext(
            tasks=work,
            shape=shape,
            name_a=name_a,
            name_b=name_b,
            A=A,
            B=B,
            arena_meta=self._arena.meta,
            sel_meta=sel_meta,
            ranges=ranges,
        )
        if sanitize.enabled():
            self._sanitize_level(ctx)
        build_seconds = time.perf_counter() - t_start

        payload_bytes = pickle_seconds = None
        if self.profile_dispatch:
            t0 = time.perf_counter()
            payload_bytes = 0
            for idx in range(len(work)):
                payload = self._payload_for(ctx, idx, None)
                payload_bytes += len(
                    pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
                )
            pickle_seconds = time.perf_counter() - t0

        # LPT dispatch: predicted-longest first, so the level's straggler
        # is in flight before the cheap tasks queue up behind it.  The
        # supervised loop keeps ≤ n_workers outstanding, applies
        # deadlines, and retries faults (pool, then parent).
        order = self.estimator.order([t.n_infections for t in work])
        self._level_ctx = ctx
        try:
            outcome = SupervisedDispatcher(
                self, self.supervision, self.n_workers
            ).run(order)
        finally:
            self._level_ctx = None

        results = [
            _block_result(
                t, outcome.records[idx], A[t.nodes].copy(), B[t.nodes].copy()
            )
            for idx, t in enumerate(work)
        ]
        self.estimator.observe_level(
            [r.work_units for r in results],
            [t.n_infections for t in work],
            [r.wall_seconds for r in results],
        )
        self.level_profiles.append(
            DispatchStats(
                mode="arena",
                n_tasks=len(tasks),
                wall_seconds=time.perf_counter() - t_start,
                compute_seconds=float(sum(r.wall_seconds for r in results)),
                build_seconds=build_seconds,
                payload_bytes=payload_bytes,
                payload_pickle_seconds=pickle_seconds,
                fault_log=outcome.fault_log,
                n_respawns=outcome.n_respawns,
                kernel_seconds=float(sum(r.kernel_seconds for r in results)),
                compile_seconds=float(sum(r.compile_seconds for r in results)),
                gather_seconds=float(sum(r.gather_seconds for r in results)),
            )
        )
        done = iter(results)
        return [
            next(done) if t.nodes.size else _empty_result(t) for t in tasks
        ]

    # ------------------------------------------------------------------ #

    def _sanitize_level(self, ctx: _LevelContext) -> None:
        """``REPRO_SANITIZE`` pre-dispatch check of the level's writes.

        Workers scatter ``A[members_slice] = ...``; the slices must be
        pairwise disjoint and match each task's assignment.  The members
        block is validated *read back from the published shared segment*
        — the exact array workers will address — so a stale digest-reuse
        or a corrupt selection write is caught before any worker runs.
        """
        _, _, mem_v = self._selection.resident_views()
        try:
            sanitize.verify_selection(
                ctx.tasks[0].level,
                [t.community_id for t in ctx.tasks],
                [np.asarray(t.nodes, dtype=np.int64) for t in ctx.tasks],
                mem_v,
                [(mem_lo, mem_hi) for (_, _, mem_lo, mem_hi) in ctx.ranges],
            )
        finally:
            del mem_v

    # ------------------------------------------------------------------ #
    # Payload construction
    # ------------------------------------------------------------------ #

    def _publish_selection(
        self, tasks: List[BlockTask]
    ) -> Tuple[SelectionMeta, List[Tuple[int, int, int, int]]]:
        """Publish the level's selection block; return its meta and the
        per-task ``(sub_lo, sub_hi, mem_lo, mem_hi)`` ranges."""
        positions = np.concatenate([t.arena_positions for t in tasks])
        members = np.concatenate(
            [np.asarray(t.nodes, dtype=np.int64) for t in tasks]
        )
        # Stitch per-task relative sub-offsets into one global array.
        n_groups = sum(t.arena_sub_offsets.size - 1 for t in tasks)
        sub_offsets = np.zeros(n_groups + 1, dtype=np.int64)
        ranges = []
        g = 0
        pos_base = 0
        mem_base = 0
        for t in tasks:
            s = t.arena_sub_offsets.size - 1
            sub_offsets[g + 1 : g + s + 1] = t.arena_sub_offsets[1:] + pos_base
            ranges.append((g, g + s, mem_base, mem_base + int(t.nodes.size)))
            g += s
            pos_base += int(t.arena_positions.size)
            mem_base += int(t.nodes.size)
        return self._selection.update(positions, sub_offsets, members), ranges

    def _payload_for(
        self, ctx: _LevelContext, idx: int, fault: Optional[Tuple]
    ) -> Tuple:
        """Task *idx*'s worker payload: index ranges into shared blocks."""
        t = ctx.tasks[idx]
        sub_lo, sub_hi, mem_lo, mem_hi = ctx.ranges[idx]
        return (
            idx,
            ctx.name_a,
            ctx.name_b,
            ctx.shape,
            ctx.arena_meta,
            ctx.sel_meta,
            t.community_id,
            sub_lo,
            sub_hi,
            mem_lo,
            mem_hi,
            t.config,
            fault,
        )

    # ------------------------------------------------------------------ #
    # SupervisedDispatcher host protocol
    # ------------------------------------------------------------------ #

    def submit_attempt(self, idx: int, attempt: int) -> "mp.pool.AsyncResult":
        """Dispatch one attempt of task *idx* to the current pool."""
        fault = self._fault_spec(idx, attempt)
        payload = self._payload_for(self._level_ctx, idx, fault)
        return self._pool.apply_async(_mp_worker, (payload,))

    def run_serial_fallback(self, idx: int) -> Tuple:
        """Last rung: run task *idx* in the parent, against the same shared
        ``A``/``B`` blocks and arena, with the worker's own compile step
        (minus its cache)."""
        ctx = self._level_ctx
        t = ctx.tasks[idx]
        return _run_block(
            idx,
            t.community_id,
            ctx.A,
            ctx.B,
            t.nodes,
            partial(_compile_task, self._arena, t),
            t.config,
            self._serial_workspace,
        )

    def reseed_tasks(self, indices: Sequence[int]) -> None:
        """Restore tasks' seed rows before a retry (faults may have
        partially scattered)."""
        ctx = self._level_ctx
        for idx in indices:
            t = ctx.tasks[idx]
            if t.nodes.size:
                ctx.A[t.nodes] = t.A_rows
                ctx.B[t.nodes] = t.B_rows

    def respawn_pool(self) -> None:
        """Hard-kill the current (damaged or hung) generation; start fresh.

        Parent-owned shared segments are untouched — new workers simply
        re-attach and re-warm their compile caches.
        """
        self._pool.terminate()
        self._pool.join()
        self._pool = self._ctx.Pool(self.n_workers)
        self._resources.pool = self._pool
        self._worker_pids = frozenset(p.pid for p in self._pool._pool)
        self.respawn_count += 1

    def pool_damaged(self) -> bool:
        """True when any process of the current generation died (the pool's
        own repopulation also changes the pid set, so a death is detected
        even if the pool already replaced the corpse)."""
        procs = getattr(self._pool, "_pool", None) or []
        if any(p.exitcode is not None for p in procs):
            return True
        return frozenset(p.pid for p in procs) != self._worker_pids

    def task_deadline(self, idx: int) -> Optional[float]:
        cfg = self.supervision
        if cfg.task_timeout is not None:
            return cfg.task_timeout
        t = self._level_ctx.tasks[idx]
        return self.estimator.deadline(
            t.n_infections, factor=cfg.timeout_factor, floor=cfg.timeout_floor
        )

    def task_community(self, idx: int) -> int:
        return self._level_ctx.tasks[idx].community_id

    def _fault_spec(self, idx: int, attempt: int) -> Optional[Tuple]:
        for plan in self._fault_plans:
            spec = plan.spec_for(idx, attempt)
            if spec is not None:
                return spec
        return None

    # ------------------------------------------------------------------ #

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            # Detach the GC finalizer (it would terminate()); release
            # gracefully instead, then unlink every shared segment.
            self._finalizer.detach()
            self._resources.release(graceful=True)
            self._arena = None
            self._selection = None
