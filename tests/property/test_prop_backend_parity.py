"""Property: every backend produces bit-identical embeddings.

The paper's conflict-freedom argument (§IV-B) promises that parallel
execution changes *nothing* about the result.  This suite drives the full
hierarchical engine over randomized corpora — including simultaneous
infections (tie groups) and single-node communities — through

* :class:`ObjectPathBackend` below (the oracle),
* :class:`SerialBackend` and
* :class:`MultiprocessBackend` (zero-copy arena dispatch),

and requires exact ``A``/``B`` equality and equal ``LevelStats``, not mere
closeness.  Both real backends split the flat corpus with
``split_positions`` and compile with ``CompiledCorpus.from_arena``; the
oracle keeps the object path they replaced — one ``Cascade`` list per
community from ``split_cascades``, relabelled to local ids and compiled
with ``from_cascades`` — so this fails if either drifts from it.
"""

import time
from dataclasses import dataclass
from typing import List

import numpy as np
import pytest

from repro.cascades.types import Cascade, CascadeSet

pytestmark = pytest.mark.slow  # spawns a pool per seed
from repro.community.mergetree import MergeTree
from repro.community.partition import Partition
from repro.embedding.compiled import CompiledCorpus, GradientWorkspace
from repro.embedding.model import EmbeddingModel
from repro.embedding.optimizer import OptimizerConfig, ProjectedGradientAscent
from repro.parallel.arena import flatten_corpus
from repro.parallel.backends import (
    Backend,
    BlockResult,
    MultiprocessBackend,
    SerialBackend,
)
from repro.parallel.hierarchical import HierarchicalInference
from repro.parallel.splitting import split_cascades
from repro.utils.timing import Stopwatch

# --------------------------------------------------------------------- #
# The oracle: the object path, as the serial backend ran it before both
# backends shared one block-fit path.
# --------------------------------------------------------------------- #


@dataclass
class MaterializedTask:
    """A block task carrying its sub-cascades in local ids."""

    community_id: int
    nodes: np.ndarray
    cascade_nodes: List[np.ndarray]
    cascade_times: List[np.ndarray]
    A_rows: np.ndarray
    B_rows: np.ndarray
    config: OptimizerConfig
    level: int = 0

    @property
    def n_infections(self) -> int:
        return int(sum(len(n) for n in self.cascade_nodes))


def subcorpus_for_community(sub, nodes):
    """Relabel a community sub-corpus to local ids ``0..len(nodes)-1``."""
    nodes = np.asarray(nodes, dtype=np.int64)
    lookup = np.full(int(nodes.max()) + 1 if nodes.size else 0, -1, dtype=np.int64)
    lookup[nodes] = np.arange(nodes.size)
    local = CascadeSet(int(nodes.size))
    for c in sub:
        if c.size and (int(c.nodes.max()) >= lookup.size or np.any(lookup[c.nodes] < 0)):
            raise ValueError("sub-corpus contains nodes outside the community")
        local.append(Cascade(lookup[c.nodes], c.times))
    return local, nodes


def materialized_tasks(level_idx, partition, model, cascades, config, min_size=2):
    """Object path: split into per-community ``Cascade`` lists."""
    sub_corpora = split_cascades(cascades, partition, min_size=min_size)
    tasks = []
    for cid in range(partition.n_communities):
        sub = sub_corpora[cid]
        if len(sub) == 0:
            continue  # nothing to learn for this community at this level
        nodes = partition.members(cid)
        local, nodes = subcorpus_for_community(sub, nodes)
        tasks.append(
            MaterializedTask(
                community_id=cid,
                nodes=nodes,
                cascade_nodes=[c.nodes for c in local],
                cascade_times=[c.times for c in local],
                A_rows=model.A[nodes].copy(),
                B_rows=model.B[nodes].copy(),
                config=config,
                level=level_idx,
            )
        )
    return tasks


def run_block_task(task, workspace=None):
    """Execute one materialized block task in the calling process."""
    sw = Stopwatch()
    with sw:
        t0 = time.perf_counter()
        m = task.nodes.size
        local = CascadeSet(m)
        for nodes, times in zip(task.cascade_nodes, task.cascade_times):
            local.append(Cascade(nodes, times))
        corpus = CompiledCorpus.from_cascades(local)
        t1 = time.perf_counter()
        model = EmbeddingModel(task.A_rows.copy(), task.B_rows.copy())
        t2 = time.perf_counter()
        opt = ProjectedGradientAscent(task.config)
        fit = opt.fit(model, corpus, workspace=workspace)
        t3 = time.perf_counter()
    n_inf = task.n_infections
    return BlockResult(
        community_id=task.community_id,
        nodes=task.nodes,
        A_rows=model.A,
        B_rows=model.B,
        n_iters=fit.n_iters,
        final_loglik=fit.final_loglik,
        wall_seconds=sw.elapsed,
        work_units=max(1, fit.n_iters) * n_inf,
        accepted_steps=len(fit.history) - 1,
        stop_reason=fit.reason,
        compile_seconds=t1 - t0,
        kernel_seconds=t3 - t2,
        gather_seconds=t2 - t1,
    )


class ObjectPathBackend(Backend):
    """Runs the object path and ignores the driver's index-range tasks.

    Each ``run_level`` call builds the next level's tasks with
    :func:`materialized_tasks` from the corpus, the tree and the model
    the driver fits (which holds the previous level's rows, as it did for
    the object path), and fits them with :func:`run_block_task`.
    """

    def __init__(self, tree, config, model):
        self.tree = tree
        self.config = config
        self.model = model
        self.levels_run = 0
        self.workspace = GradientWorkspace()

    def prepare(self, cascades):
        self.cascades = cascades
        return flatten_corpus(cascades)

    def run_level(self, tasks):
        level = self.levels_run
        self.levels_run += 1
        own = materialized_tasks(
            level, self.tree.levels[level], self.model, self.cascades, self.config
        )
        return [run_block_task(t, workspace=self.workspace) for t in own]


# --------------------------------------------------------------------- #


def random_world(seed):
    """A randomized (corpus, partition) pair with adversarial structure."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(6, 28))
    cs = CascadeSet(n)
    for _ in range(int(rng.integers(2, 14))):
        size = int(rng.integers(1, min(n, 9) + 1))
        nodes = rng.permutation(n)[:size]
        # Coarse rounding induces equal-time infections (tie groups).
        times = np.sort(np.round(rng.uniform(0.0, 2.0, size), 1))
        cs.append(Cascade(nodes, times))
    # Random membership; some communities end up single-node, some empty
    # of cascades entirely.
    n_comm = int(rng.integers(2, max(3, n // 2)))
    membership = rng.integers(0, n_comm, size=n)
    membership[rng.integers(0, n)] = n_comm  # force one singleton community
    return cs, Partition(membership)


def fit_with(backend_factory, cs, tree, seed):
    cfg = OptimizerConfig(max_iters=12)
    model = EmbeddingModel.random(cs.n_nodes, 3, seed=seed)
    backend = backend_factory(tree, cfg, model)
    try:
        result = HierarchicalInference(tree, cfg, backend).fit(model, cs)
    finally:
        backend.close()
    return model, result


STATS = (
    "level",
    "n_communities",
    "work_units",
    "rows_touched",
    "logliks",
    "iterations",
    "accepted_steps",
    "stop_reasons",
)


def assert_all_equal_oracle(cs, part, seed):
    """The oracle, the serial backend and a 2-worker pool: same bytes of A
    and B, same ``LevelStats`` lists at every level."""
    tree = MergeTree(part, stop_at=1)
    m_oracle, r_oracle = fit_with(ObjectPathBackend, cs, tree, seed)
    assert r_oracle.total_work_units > 0  # the oracle fitted something
    for factory in (
        lambda *_: SerialBackend(),
        lambda *_: MultiprocessBackend(n_workers=2),
    ):
        model, result = fit_with(factory, cs, tree, seed)
        assert model.A.tobytes() == m_oracle.A.tobytes()
        assert model.B.tobytes() == m_oracle.B.tobytes()
        assert len(result.levels) == len(r_oracle.levels)
        for got, want in zip(result.levels, r_oracle.levels):
            for name in STATS:
                assert getattr(got, name) == getattr(want, name), name


@pytest.mark.parametrize("seed", [11, 23, 37, 59])
def test_backends_bit_identical(seed):
    cs, part = random_world(seed)
    assert_all_equal_oracle(cs, part, seed)


def test_single_node_communities_everywhere():
    """Singleton partition: every community is one node (degenerate split)."""
    rng = np.random.default_rng(5)
    n = 10
    cs = CascadeSet(n)
    for _ in range(6):
        size = int(rng.integers(2, 6))
        nodes = rng.permutation(n)[:size]
        cs.append(Cascade(nodes, np.sort(rng.uniform(0, 1, size))))
    assert_all_equal_oracle(cs, Partition.singletons(n), 1)


def test_all_ties_corpus():
    """Every infection simultaneous: tie-group handling end to end."""
    n = 8
    cs = CascadeSet(n)
    cs.append(Cascade(np.arange(6), np.zeros(6)))
    cs.append(Cascade(np.array([1, 3, 5, 7]), np.ones(4)))
    part = Partition(np.array([0, 0, 0, 0, 1, 1, 1, 1]))
    assert_all_equal_oracle(cs, part, 2)
