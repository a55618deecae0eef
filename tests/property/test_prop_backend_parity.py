"""Property: every backend produces bit-identical embeddings.

The paper's conflict-freedom argument (§IV-B) promises that parallel
execution changes *nothing* about the result.  This suite drives the full
hierarchical engine over randomized corpora — including simultaneous
infections (tie groups) and single-node communities — through

* :class:`SerialBackend` (the reference) and
* :class:`MultiprocessBackend` (zero-copy arena dispatch),

and requires exact ``A``/``B`` equality, not mere closeness: the arena's
``from_arena`` compilation and the worker-side compile cache must be
bit-compatible with the object path, or this fails.
"""

import numpy as np
import pytest

from repro.cascades.types import Cascade, CascadeSet

pytestmark = pytest.mark.slow  # spawns a pool per seed
from repro.community.mergetree import MergeTree
from repro.community.partition import Partition
from repro.embedding.model import EmbeddingModel
from repro.embedding.optimizer import OptimizerConfig
from repro.parallel.backends import MultiprocessBackend, SerialBackend
from repro.parallel.hierarchical import HierarchicalInference


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


def fit_with(backend_factory, cs, part, seed):
    tree = MergeTree(part, stop_at=1)
    cfg = OptimizerConfig(max_iters=12)
    model = EmbeddingModel.random(cs.n_nodes, 3, seed=seed)
    backend = backend_factory()
    try:
        result = HierarchicalInference(tree, cfg, backend).fit(model, cs)
    finally:
        backend.close()
    return model, result


@pytest.mark.parametrize("seed", [11, 23, 37, 59])
def test_backends_bit_identical(seed):
    cs, part = random_world(seed)
    m_serial, r_serial = fit_with(SerialBackend, cs, part, seed)
    m_arena, r_arena = fit_with(
        lambda: MultiprocessBackend(n_workers=2), cs, part, seed
    )
    assert np.array_equal(m_serial.A, m_arena.A)
    assert np.array_equal(m_serial.B, m_arena.B)
    for rs, ra in zip(r_serial.levels, r_arena.levels):
        assert rs.work_units == ra.work_units
        assert rs.iterations == ra.iterations
        assert rs.logliks == ra.logliks


def test_single_node_communities_everywhere():
    """Singleton partition: every community is one node (degenerate split)."""
    rng = np.random.default_rng(5)
    n = 10
    cs = CascadeSet(n)
    for _ in range(6):
        size = int(rng.integers(2, 6))
        nodes = rng.permutation(n)[:size]
        cs.append(Cascade(nodes, np.sort(rng.uniform(0, 1, size))))
    part = Partition.singletons(n)
    m_serial, _ = fit_with(SerialBackend, cs, part, 1)
    m_arena, _ = fit_with(lambda: MultiprocessBackend(n_workers=2), cs, part, 1)
    assert np.array_equal(m_serial.A, m_arena.A)
    assert np.array_equal(m_serial.B, m_arena.B)


def test_all_ties_corpus():
    """Every infection simultaneous: tie-group handling end to end."""
    n = 8
    cs = CascadeSet(n)
    cs.append(Cascade(np.arange(6), np.zeros(6)))
    cs.append(Cascade(np.array([1, 3, 5, 7]), np.ones(4)))
    part = Partition(np.array([0, 0, 0, 0, 1, 1, 1, 1]))
    m_serial, _ = fit_with(SerialBackend, cs, part, 2)
    m_arena, _ = fit_with(lambda: MultiprocessBackend(n_workers=2), cs, part, 2)
    assert np.array_equal(m_serial.A, m_arena.A)
    assert np.array_equal(m_serial.B, m_arena.B)
