"""Integration: injected worker faults must not change results.

The supervision loop's contract is that crashes, hangs, and exceptions
are invisible in the output: every fault path (pool retry, the serial
rung in the parent, pool respawn, reseed) reproduces the :class:`SerialBackend` embeddings
bit-for-bit, and no shared-memory segment outlives the backend.

Faults are driven by the test-only ``_FaultPlan`` shipped inside worker
payloads, so each scenario is deterministic — no reliance on timing.
"""

import os

import numpy as np
import pytest

from repro.cascades.simulate import simulate_corpus
from repro.community.mergetree import MergeTree
from repro.community.partition import Partition
from repro.embedding.model import EmbeddingModel
from repro.embedding.optimizer import OptimizerConfig
from repro.graphs.generators import stochastic_block_model
from repro.parallel.backends import MultiprocessBackend, SerialBackend
from repro.parallel.hierarchical import HierarchicalInference
from repro.parallel.supervision import _FaultPlan

pytestmark = pytest.mark.slow

N_NODES = 60


@pytest.fixture(scope="module")
def world():
    graph, membership = stochastic_block_model(
        N_NODES, 20, p_in=0.4, p_out=0.01, seed=0
    )
    cascades = simulate_corpus(graph, 40, window=0.5, seed=1, min_size=2)
    return cascades, Partition(membership)


@pytest.fixture(scope="module")
def reference(world):
    """SerialBackend ground truth (model, result)."""
    cascades, part = world
    cfg = OptimizerConfig(max_iters=15)
    tree = MergeTree(part, stop_at=1)
    model = EmbeddingModel.random(N_NODES, 3, seed=7)
    result = HierarchicalInference(tree, cfg, SerialBackend()).fit(model, cascades)
    return model, result


def _fit_with_faults(world, fault_plan, **backend_kwargs):
    cascades, part = world
    cfg = OptimizerConfig(max_iters=15)
    tree = MergeTree(part, stop_at=1)
    model = EmbeddingModel.random(N_NODES, 3, seed=7)
    backend = MultiprocessBackend(
        n_workers=2, _fault_plan=fault_plan, **backend_kwargs
    )
    with backend:
        result = HierarchicalInference(tree, cfg, backend).fit(model, cascades)
        respawns = backend.respawn_count
    return model, result, respawns


def _assert_identical(model, reference_model):
    np.testing.assert_array_equal(model.A, reference_model.A)
    np.testing.assert_array_equal(model.B, reference_model.B)


def _shm_entries():
    try:
        return set(os.listdir("/dev/shm"))
    except FileNotFoundError:  # pragma: no cover - non-Linux
        return set()


class TestInjectedException:
    def test_bit_identical_and_logged(self, world, reference):
        ref_model, _ = reference
        plan = _FaultPlan(task_idx=0, action="raise", attempts=(0,))
        model, result, _ = _fit_with_faults(world, plan)
        _assert_identical(model, ref_model)
        assert result.total_retries >= 1
        assert {e.cause for e in result.fault_log} == {"exception"}
        assert all(e.task_idx == 0 for e in result.fault_log)

    def test_degradation_ladder_arena_then_serial(self, world, reference):
        ref_model, _ = reference
        # failing every pool attempt (0, 1, 2 under the default
        # max_retries=3) leaves the last permitted attempt to the parent
        plan = _FaultPlan(task_idx=0, action="raise", attempts=(0, 1, 2))
        model, result, _ = _fit_with_faults(world, plan)
        _assert_identical(model, ref_model)
        for level in result.levels:
            assert [(e.attempt, e.fallback) for e in level.fault_log] == [
                (0, "arena"),
                (1, "arena"),
                (2, "serial"),
            ]

    def test_zero_retries_runs_every_task_in_the_parent(self, world, reference):
        ref_model, _ = reference
        model, result, respawns = _fit_with_faults(world, None, max_retries=0)
        _assert_identical(model, ref_model)
        assert result.fault_log == [] and respawns == 0


class TestWorkerCrash:
    def test_bit_identical_respawn_and_shm_clean(self, world, reference):
        ref_model, _ = reference
        before = _shm_entries()
        plan = _FaultPlan(task_idx=0, action="exit", attempts=(0,))
        model, result, respawns = _fit_with_faults(world, plan)
        _assert_identical(model, ref_model)
        assert respawns >= 1
        assert any(e.cause == "crash" for e in result.fault_log)
        # the backend exited its context: every segment it created
        # (arena, selection, A/B) must be gone despite the respawns
        leaked = _shm_entries() - before
        assert leaked == set(), f"leaked shared memory: {leaked}"


class TestHungWorker:
    def test_timeout_detected_and_bit_identical(self, world, reference):
        ref_model, _ = reference
        plan = _FaultPlan(
            task_idx=0, action="hang", attempts=(0,), hang_seconds=120.0
        )
        model, result, respawns = _fit_with_faults(
            world, plan, task_timeout=1.0
        )
        _assert_identical(model, ref_model)
        assert respawns >= 1  # the hung generation was torn down
        timeouts = [e for e in result.fault_log if e.cause == "timeout"]
        assert timeouts and all(e.task_idx == 0 for e in timeouts)
        assert all(e.elapsed_seconds >= 1.0 for e in timeouts)


class TestDispatchAccounting:
    """DispatchStats/FaultLog bookkeeping under real retries."""

    def test_stats_consistent_under_retries(self, world):
        cascades, part = world
        cfg = OptimizerConfig(max_iters=15)
        tree = MergeTree(part, stop_at=1)
        model = EmbeddingModel.random(N_NODES, 3, seed=7)
        plan = _FaultPlan(task_idx=0, action="raise", attempts=(0, 1))
        with MultiprocessBackend(n_workers=2, _fault_plan=plan) as backend:
            result = HierarchicalInference(tree, cfg, backend).fit(model, cascades)
            profiles = list(backend.level_profiles)
        for stats, level in zip(profiles, result.levels):
            # every task produced exactly one result despite retries
            assert stats.n_tasks == len(level.wall_seconds)
            # every fault entry names the rung of the retry it scheduled
            assert all(
                e.fallback in ("arena", "serial") for e in stats.fault_log
            )
            # compute counts each successful attempt once; overhead
            # (incl. wasted attempts) is never negative
            assert stats.compute_seconds == pytest.approx(
                sum(level.wall_seconds)
            )
            assert stats.overhead_seconds >= 0.0
            # the driver surfaced the same accounting
            assert level.fault_log == stats.fault_log
        # one retry per fault entry, counted from the log
        assert result.total_retries == len(result.fault_log) > 0
        # within each level, a task's recorded attempts strictly increase
        for level in result.levels:
            attempts = [e.attempt for e in level.fault_log if e.task_idx == 0]
            assert attempts == sorted(set(attempts))

    def test_fault_free_run_has_empty_log(self, world, reference):
        ref_model, _ = reference
        model, result, respawns = _fit_with_faults(world, None)
        _assert_identical(model, ref_model)
        assert result.fault_log == [] and result.total_retries == 0
        assert respawns == 0


class TestResourceReleaseAcrossGenerations:
    def test_respawn_then_close_leaves_shm_clean(self, world):
        """_Resources.release stays correct across pool generations."""
        cascades, part = world
        cfg = OptimizerConfig(max_iters=5)
        tree = MergeTree(part, stop_at=1)
        before = _shm_entries()
        plan = _FaultPlan(task_idx=0, action="exit", attempts=(0,))
        backend = MultiprocessBackend(n_workers=2, _fault_plan=plan)
        model = EmbeddingModel.random(N_NODES, 3, seed=7)
        HierarchicalInference(tree, cfg, backend).fit(model, cascades)
        assert backend.respawn_count >= 1
        backend.close()
        backend.close()  # idempotent across generations
        leaked = _shm_entries() - before
        assert leaked == set(), f"leaked shared memory: {leaked}"
