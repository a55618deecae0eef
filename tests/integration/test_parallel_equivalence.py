"""Integration: serial and multiprocess engines must agree numerically.

This is the paper's central systems claim — the community decomposition
makes parallel execution conflict-free, so parallelism changes *nothing*
about the result (§IV-B: write-write conflicts "can be completely
avoided").
"""

import numpy as np
import pytest

from repro.cascades.simulate import simulate_corpus
from repro.cascades.types import Cascade, CascadeSet
from repro.community.mergetree import MergeTree
from repro.community.partition import Partition
from repro.embedding.model import EmbeddingModel
from repro.embedding.optimizer import OptimizerConfig
from repro.graphs.generators import stochastic_block_model
from repro.parallel.backends import MultiprocessBackend, SerialBackend
from repro.parallel.hierarchical import HierarchicalInference


@pytest.fixture(scope="module")
def world():
    graph, membership = stochastic_block_model(
        80, 20, p_in=0.4, p_out=0.01, seed=0
    )
    cascades = simulate_corpus(graph, 50, window=0.5, seed=1, min_size=2)
    return cascades, Partition(membership)


class TestSerialParallelEquivalence:
    def test_embeddings_identical(self, world):
        cascades, part = world
        cfg = OptimizerConfig(max_iters=20)
        tree = MergeTree(part, stop_at=1)

        m_serial = EmbeddingModel.random(80, 3, seed=7)
        HierarchicalInference(tree, cfg, SerialBackend()).fit(m_serial, cascades)

        m_par = EmbeddingModel.random(80, 3, seed=7)
        with MultiprocessBackend(n_workers=3) as backend:
            HierarchicalInference(tree, cfg, backend).fit(m_par, cascades)

        assert np.array_equal(m_serial.A, m_par.A)
        assert np.array_equal(m_serial.B, m_par.B)

    def test_level_stats_match(self, world):
        cascades, part = world
        cfg = OptimizerConfig(max_iters=10)
        tree = MergeTree(part, stop_at=1)

        m1 = EmbeddingModel.random(80, 3, seed=8)
        r1 = HierarchicalInference(tree, cfg, SerialBackend()).fit(m1, cascades)
        m2 = EmbeddingModel.random(80, 3, seed=8)
        with MultiprocessBackend(n_workers=2) as backend:
            r2 = HierarchicalInference(tree, cfg, backend).fit(m2, cascades)

        for l1, l2 in zip(r1.levels, r2.levels):
            assert l1.work_units == l2.work_units
            assert l1.iterations == l2.iterations
            assert l1.logliks == l2.logliks

    def test_worker_count_does_not_change_result(self, world):
        cascades, part = world
        cfg = OptimizerConfig(max_iters=8)
        tree = MergeTree(part, stop_at=2)
        models = []
        for workers in (1, 2, 4):
            m = EmbeddingModel.random(80, 3, seed=9)
            with MultiprocessBackend(n_workers=workers) as backend:
                HierarchicalInference(tree, cfg, backend).fit(m, cascades)
            models.append(m)
        for other in models[1:]:
            assert np.array_equal(models[0].A, other.A)
            assert np.array_equal(models[0].B, other.B)

    def test_reused_backend_fits_a_second_corpus(self):
        """Workers cache compiled sub-corpora across fits; a second corpus
        with the same adopters (hence the same split) at other times must
        not be served the first corpus's compiled structure."""
        graph, membership = stochastic_block_model(
            60, 20, p_in=0.4, p_out=0.01, seed=0
        )
        first = simulate_corpus(graph, 40, window=0.5, seed=1, min_size=2)
        second = CascadeSet(first.n_nodes)
        for c in first:
            second.append(Cascade(c.nodes, c.times * 3 + 0.1))
        tree = MergeTree(Partition(membership), stop_at=1)
        cfg = OptimizerConfig(max_iters=15)

        def fit(backend, cascades):
            model = EmbeddingModel.random(60, 3, seed=7)
            HierarchicalInference(tree, cfg, backend).fit(model, cascades)
            return model

        m_serial = fit(SerialBackend(), second)
        with MultiprocessBackend(n_workers=1) as backend:
            fit(backend, first)
            m_reused = fit(backend, second)
        assert np.array_equal(m_serial.A, m_reused.A)
        assert np.array_equal(m_serial.B, m_reused.B)
