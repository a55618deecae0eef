"""Integration: per-task accepted steps and stop reasons in ``LevelStats``.

Every block fit reports how many steps it accepted and why it stopped,
through ``BlockResult`` and the worker result tuples of every dispatch
rung.  The corpus is the SBM world of ``test_parallel_equivalence.py``
(80 nodes, four planted 20-node communities, merged to the root).  With
the default optimizer settings its leaves run all 200 iterations, and
every merged task rejects 29 halvings and stops on step-size underflow
without accepting a step.
"""

import numpy as np
import pytest

from repro.cascades.simulate import simulate_corpus
from repro.community.mergetree import MergeTree
from repro.community.partition import Partition
from repro.embedding.model import EmbeddingModel
from repro.embedding.optimizer import OptimizerConfig
from repro.graphs.generators import stochastic_block_model
from repro.parallel.backends import BlockTask, MultiprocessBackend, SerialBackend
from repro.parallel.hierarchical import HierarchicalInference


@pytest.fixture(scope="module")
def world():
    graph, membership = stochastic_block_model(
        80, 20, p_in=0.4, p_out=0.01, seed=0
    )
    cascades = simulate_corpus(graph, 50, window=0.5, seed=1, min_size=2)
    return cascades, Partition(membership)


def fit_levels(world, backend):
    cascades, part = world
    model = EmbeddingModel.random(80, 3, seed=7)
    tree = MergeTree(part, stop_at=1)
    return HierarchicalInference(tree, OptimizerConfig(), backend).fit(
        model, cascades
    ).levels


def test_merged_levels_report_underflow_without_a_step(world):
    levels = fit_levels(world, SerialBackend())
    assert len(levels) == 3
    leaves, *merged = levels
    assert leaves.stop_reasons == ["max iterations"] * 4
    assert leaves.accepted_steps == [200] * 4
    for level in merged:
        n = level.n_communities
        assert level.accepted_steps == [0] * n
        assert level.stop_reasons == ["step size underflow"] * n
        assert level.iterations == [29] * n


@pytest.mark.slow
def test_step_stats_serial_equal_multiprocess(world):
    serial = fit_levels(world, SerialBackend())
    with MultiprocessBackend(n_workers=2) as backend:
        parallel = fit_levels(world, backend)
    assert [l.accepted_steps for l in parallel] == [
        l.accepted_steps for l in serial
    ]
    assert [l.stop_reasons for l in parallel] == [
        l.stop_reasons for l in serial
    ]


@pytest.mark.slow
def test_empty_task_reports_no_steps():
    task = BlockTask(
        community_id=0,
        nodes=np.empty(0, dtype=np.int64),
        A_rows=np.empty((0, 2)),
        B_rows=np.empty((0, 2)),
        config=OptimizerConfig(max_iters=5),
    )
    with MultiprocessBackend(n_workers=1) as backend:
        (result,) = backend.run_level([task])
    assert result.accepted_steps == 0
    assert result.stop_reason == ""
