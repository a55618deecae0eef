"""Hierarchical community-parallel inference — Algorithm 2 (with Alg. 1).

Level *i* of the :class:`repro.community.MergeTree` defines a disjoint
partition.  For each level, the driver

1. splits the observed cascades into per-community sub-cascades,
2. builds one :class:`BlockTask` per community, seeded with the embedding
   rows produced by the previous level,
3. runs all tasks through the configured backend (a barrier: the level
   completes when its slowest community finishes — Fig. 4),
4. writes the updated rows back into the global model.

After the last level (≤ *stop_at* communities; at ``stop_at=1`` a single
task sweeps the whole network) the model holds the final embeddings.

The per-level :class:`LevelStats` — community workloads and wall-clock —
feed :mod:`repro.parallel.costmodel`, which replays the same schedule on a
simulated *p*-core machine to regenerate the paper's scaling figures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, List, Optional, Union

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.parallel.arena import CorpusArena, FlatCorpus

import numpy as np

from repro.cascades.types import CascadeSet
from repro.community.mergetree import MergeTree
from repro.community.partition import Partition
from repro.community.slpa import slpa
from repro.cooccurrence.build import build_cooccurrence_graph
from repro.devtools import sanitize
from repro.embedding.model import EmbeddingModel
from repro.embedding.optimizer import OptimizerConfig
from repro.parallel.backends import Backend, BlockResult, BlockTask, SerialBackend
from repro.parallel.checkpoint import CheckpointManager, run_digest
from repro.parallel.splitting import split_positions
from repro.parallel.supervision import FaultLogEntry
from repro.utils.rng import SeedLike

__all__ = ["LevelStats", "HierarchicalResult", "HierarchicalInference", "infer_embeddings"]


@dataclass
class LevelStats:
    """Bookkeeping for one merge-tree level."""

    level: int
    n_communities: int
    #: per-community wall seconds (as measured by whichever backend ran it)
    wall_seconds: List[float] = field(default_factory=list)
    #: per-community iterations × infections (machine-independent workload)
    work_units: List[int] = field(default_factory=list)
    #: per-community embedding rows touched (communication volume proxy)
    rows_touched: List[int] = field(default_factory=list)
    #: per-community final block log-likelihood
    logliks: List[float] = field(default_factory=list)
    iterations: List[int] = field(default_factory=list)
    #: per-community accepted steps and stop reason of the block fit
    #: (``FitResult.history``/``.reason``); a task that stops on "step size
    #: underflow" with 0 accepted steps left its rows untouched
    accepted_steps: List[int] = field(default_factory=list)
    stop_reasons: List[str] = field(default_factory=list)
    #: faults the backend survived while running this level, one per
    #: re-dispatched attempt (empty for serial backends and fault-free
    #: parallel levels)
    fault_log: List[FaultLogEntry] = field(default_factory=list)

    @property
    def barrier_seconds(self) -> float:
        """Level wall-clock under unlimited cores = slowest community."""
        return max(self.wall_seconds, default=0.0)

    @property
    def total_seconds(self) -> float:
        """Level wall-clock under one core = sum of communities."""
        return float(sum(self.wall_seconds))


@dataclass
class HierarchicalResult:
    """Outcome of a hierarchical fit.

    ``resumed_from_level`` is the first level this run actually executed
    when it restarted from a checkpoint (``None`` for a fresh run);
    ``levels`` then only contains the executed levels.
    """

    levels: List[LevelStats] = field(default_factory=list)
    resumed_from_level: Optional[int] = None

    @property
    def total_work_units(self) -> int:
        return int(sum(sum(l.work_units) for l in self.levels))

    @property
    def fault_log(self) -> List[FaultLogEntry]:
        """Every fault survived across all executed levels."""
        return [e for l in self.levels for e in l.fault_log]

    @property
    def total_retries(self) -> int:
        """Re-dispatched attempts: each fault schedules exactly one."""
        return len(self.fault_log)

    @property
    def serial_seconds(self) -> float:
        """Total compute across all communities and levels (1-core time)."""
        return float(sum(l.total_seconds for l in self.levels))

    @property
    def final_loglik(self) -> float:
        """Sum of block log-likelihoods at the last level."""
        if not self.levels:
            return float("-inf")
        return float(sum(self.levels[-1].logliks))


class HierarchicalInference:
    """Algorithm 2 driver.

    Parameters
    ----------
    tree:
        Merge schedule (level 0 = SLPA leaves, last level ≤ stop_at).
    config:
        Per-block optimizer hyper-parameters (shared across levels, as the
        paper fixes parameters "in all the cases" for fair comparison).
    backend:
        Where block tasks execute; default :class:`SerialBackend`.
    min_subcascade_size:
        Sub-cascades below this size carry no likelihood signal and are
        dropped during splitting.
    """

    def __init__(
        self,
        tree: MergeTree,
        config: Optional[OptimizerConfig] = None,
        backend: Optional[Backend] = None,
        min_subcascade_size: int = 2,
    ) -> None:
        self.tree = tree
        self.config = config or OptimizerConfig()
        self.backend = backend or SerialBackend()
        # Backends compile sub-corpora with assume_compact=True, which
        # is only sound when the splitter never emits a size-<2 group
        # (such groups carry no likelihood signal anyway).
        if int(min_subcascade_size) < 2:
            raise ValueError("min_subcascade_size must be >= 2")
        self.min_subcascade_size = int(min_subcascade_size)

    def fit(
        self,
        model: EmbeddingModel,
        cascades: CascadeSet,
        checkpoint_dir: Optional[Union[str, Path]] = None,
        resume: bool = False,
        rng: Optional[np.random.Generator] = None,
    ) -> HierarchicalResult:
        """Optimize *model* in place, traversing all merge-tree levels.

        Parameters
        ----------
        checkpoint_dir:
            When given, the driver atomically persists ``A``/``B``, the
            completed level index, the run digest (corpus + tree +
            config), and *rng*'s state (if provided) after **every**
            merge-tree level, so a crashed run loses at most one level.
        resume:
            Restart from the checkpoint in *checkpoint_dir*: the digest
            is validated (:class:`~repro.parallel.checkpoint
            .CheckpointMismatchError` on mismatch), the checkpointed
            embeddings replace *model*'s, and execution continues from
            the first incomplete level.  Resumed runs are bit-identical
            to uninterrupted ones because each level is a pure function
            of the previous level's embeddings.  With no checkpoint on
            disk the run simply starts fresh.
        rng:
            Optional generator whose state is checkpointed and restored,
            for callers that keep drawing from it after ``fit`` returns.
        """
        if model.n_nodes != cascades.n_nodes:
            raise ValueError("model and cascades cover different universes")
        if resume and checkpoint_dir is None:
            raise ValueError("resume=True requires checkpoint_dir")
        manager = digest = None
        start_level = 0
        if checkpoint_dir is not None:
            manager = CheckpointManager(checkpoint_dir)
            digest = run_digest(cascades, self.tree, self.config)
            if resume:
                ck = manager.validate(digest)
                if ck is not None:
                    if ck.A.shape != model.A.shape:
                        raise ValueError(
                            f"checkpoint embeddings have shape {ck.A.shape}, "
                            f"model has {model.A.shape}"
                        )
                    model.A[:] = ck.A
                    model.B[:] = ck.B
                    start_level = ck.level_idx + 1
                    if rng is not None and ck.rng_state is not None:
                        rng.bit_generator.state = ck.rng_state
        # Engine start: the backend takes the corpus in its flat layout
        # once (the pool publishes it to shared memory); every level then
        # splits it into tasks that address it by index ranges.
        corpus = self.backend.prepare(cascades)
        result = HierarchicalResult(
            resumed_from_level=start_level if start_level > 0 else None
        )
        for level_idx, partition in enumerate(self.tree.levels):
            if level_idx < start_level:
                continue  # already completed by the checkpointed run
            stats = self._run_level(level_idx, partition, model, corpus)
            result.levels.append(stats)
            if manager is not None:
                manager.save(
                    level_idx,
                    model.A,
                    model.B,
                    digest,
                    rng_state=rng.bit_generator.state if rng is not None else None,
                )
        return result

    # ------------------------------------------------------------------ #

    def _run_level(
        self,
        level_idx: int,
        partition: Partition,
        model: EmbeddingModel,
        corpus: "FlatCorpus | CorpusArena",
    ) -> LevelStats:
        tasks = self._tasks(level_idx, partition, model, corpus)
        ledger: Optional[sanitize.WriteLedger] = None
        if sanitize.enabled():
            # Record the seed-row plumbing: the rows each block task is
            # assigned (and therefore allowed to write back).
            ledger = sanitize.WriteLedger(level_idx)
            for task in tasks:
                ledger.assign(task.community_id, task.nodes)
        profiles = getattr(self.backend, "level_profiles", None)
        n_profiles_before = len(profiles) if profiles is not None else 0
        results = self.backend.run_level(tasks)
        stats = LevelStats(level=level_idx, n_communities=partition.n_communities)
        if profiles is not None and len(profiles) > n_profiles_before:
            # Surface the backend's fault accounting for this level.
            stats.fault_log = list(profiles[-1].fault_log)
        if ledger is not None:
            # Verify disjointness + coverage BEFORE any row reaches the
            # model: a violating level must not contaminate the merge.
            for res in results:
                ledger.record_write(res.community_id, res.nodes)
            ledger.verify()
        for res in results:
            model.A[res.nodes] = res.A_rows
            model.B[res.nodes] = res.B_rows
            stats.wall_seconds.append(res.wall_seconds)
            stats.work_units.append(res.work_units)
            stats.rows_touched.append(int(res.nodes.size))
            stats.logliks.append(res.final_loglik)
            stats.iterations.append(res.n_iters)
            stats.accepted_steps.append(res.accepted_steps)
            stats.stop_reasons.append(res.stop_reason)
        return stats

    def _tasks(
        self,
        level_idx: int,
        partition: Partition,
        model: EmbeddingModel,
        corpus: "FlatCorpus | CorpusArena",
    ) -> List[BlockTask]:
        """Split the level into one task per community with sub-cascades:
        index ranges into the prepared *corpus*, seeded with the model's
        rows."""
        ps = split_positions(
            corpus.nodes,
            corpus.offsets,
            partition.membership,
            min_size=self.min_subcascade_size,
        )
        tasks: List[BlockTask] = []
        for cid in range(partition.n_communities):
            lo, hi = ps.community_range(cid)
            if lo == hi:
                continue  # nothing to learn for this community at this level
            pos = ps.positions[ps.sub_offsets[lo] : ps.sub_offsets[hi]]
            rel_offsets = ps.sub_offsets[lo : hi + 1] - ps.sub_offsets[lo]
            nodes = partition.members(cid)
            tasks.append(
                BlockTask(
                    community_id=cid,
                    nodes=nodes,
                    A_rows=model.A[nodes].copy(),
                    B_rows=model.B[nodes].copy(),
                    config=self.config,
                    level=level_idx,
                    arena_positions=pos,
                    arena_sub_offsets=rel_offsets,
                )
            )
        return tasks


def infer_embeddings(
    cascades: CascadeSet,
    n_topics: int,
    config: Optional[OptimizerConfig] = None,
    backend: Optional[Backend] = None,
    partition: Optional[Partition] = None,
    stop_at: int = 1,
    strategy: str = "tree",
    slpa_iterations: int = 20,
    min_cooccurrence_weight: float = 0.1,
    seed: SeedLike = None,
    init_scale: float = 0.5,
    checkpoint_dir: Optional[Union[str, Path]] = None,
    resume: bool = False,
) -> tuple[EmbeddingModel, HierarchicalResult, MergeTree]:
    """End-to-end inference: co-occurrence graph → SLPA → merge tree → fit.

    The one-call entry point matching the paper's full pipeline.  Returns
    ``(model, result, tree)``.

    Parameters
    ----------
    partition:
        Skip SLPA and use this leaf partition instead (e.g. planted SBM
        blocks, or a random partition for the ablation study).
    stop_at, strategy:
        Merge-tree controls (Alg. 2's *q* and the balancing strategy).
    checkpoint_dir, resume:
        Per-level checkpointing / restart; see
        :meth:`HierarchicalInference.fit`.  Resume re-derives the
        partition and tree from the same seed, then validates them
        against the checkpoint digest before skipping completed levels.
    min_cooccurrence_weight:
        Dice-weight threshold applied to the co-occurrence graph before
        SLPA.  Viral cascades cross communities, so the raw graph carries
        a haze of weak inter-community edges that makes label propagation
        collapse everything into one block; thresholding restores the
        modular backbone (weights are in [0, 1]; 0 disables filtering).
    """
    from repro.utils.rng import as_generator

    rng = as_generator(seed)
    if partition is None:
        graph = build_cooccurrence_graph(cascades)
        if min_cooccurrence_weight > 0:
            graph = graph.filter_edges(min_cooccurrence_weight)
        partition = slpa(graph, n_iterations=slpa_iterations, seed=rng)
    tree = MergeTree(partition, stop_at=stop_at, strategy=strategy)  # type: ignore[arg-type]
    model = EmbeddingModel.random(
        cascades.n_nodes, n_topics, scale=init_scale, seed=rng
    )
    engine = HierarchicalInference(tree, config=config, backend=backend)
    result = engine.fit(
        model, cascades, checkpoint_dir=checkpoint_dir, resume=resume, rng=rng
    )
    return model, result, tree
