"""Unit tests for execution backends (serial and multiprocess)."""

import dataclasses
import multiprocessing as mp

import numpy as np
import pytest

from repro.cascades.types import Cascade, CascadeSet
from repro.embedding.model import EmbeddingModel
from repro.embedding.optimizer import OptimizerConfig
from repro.parallel.backends import BlockTask, MultiprocessBackend, SerialBackend
from repro.parallel.splitting import split_positions


def arena_tasks(backend, seed=0, n_comm=2):
    """Disjoint 3-node communities with two cascades each, as block tasks.

    Hands their corpus to ``backend.prepare`` and splits what it returns
    with ``split_positions``, as the hierarchical driver does.
    """
    rng = np.random.default_rng(seed)
    cfg = OptimizerConfig(max_iters=15)
    corpus = CascadeSet(3 * n_comm)
    for cid in range(n_comm):
        nodes = np.arange(cid * 3, cid * 3 + 3)
        corpus.append(Cascade(nodes, [0.0, 0.3, 0.8]))
        corpus.append(Cascade(nodes[1:], [0.0, 0.5]))
    flat = backend.prepare(corpus)
    ps = split_positions(flat.nodes, flat.offsets, np.arange(3 * n_comm) // 3)
    tasks = []
    for cid in range(n_comm):
        lo, hi = ps.community_range(cid)
        tasks.append(
            BlockTask(
                community_id=cid,
                nodes=np.arange(cid * 3, cid * 3 + 3),
                A_rows=rng.uniform(0.1, 1.0, size=(3, 2)),
                B_rows=rng.uniform(0.1, 1.0, size=(3, 2)),
                config=cfg,
                arena_positions=ps.positions[ps.sub_offsets[lo] : ps.sub_offsets[hi]],
                arena_sub_offsets=ps.sub_offsets[lo : hi + 1] - ps.sub_offsets[lo],
            )
        )
    return tasks


def serial_run(seed=0):
    backend = SerialBackend()
    return backend.run_level(arena_tasks(backend, seed=seed))


class TestRunBlockTask:
    """One block task through ``SerialBackend.run_level``."""

    def _run(self):
        backend = SerialBackend()
        task = arena_tasks(backend)[0]
        before = (task.A_rows.copy(), task.B_rows.copy())
        (res,) = backend.run_level([task])
        return task, res, before

    def test_improves_loglik(self):
        task, res, _ = self._run()
        assert res.n_iters >= 1
        assert res.community_id == 0
        assert res.A_rows.shape == task.A_rows.shape

    def test_does_not_mutate_input_rows(self):
        task, res, (A_before, B_before) = self._run()
        assert np.array_equal(task.A_rows, A_before)
        assert np.array_equal(task.B_rows, B_before)
        assert res.A_rows is not task.A_rows

    def test_work_units(self):
        task, res, _ = self._run()
        assert res.work_units == res.n_iters * task.n_infections

    def test_n_infections(self):
        assert arena_tasks(SerialBackend())[0].n_infections == 5

    def test_wall_seconds_positive(self):
        _, res, _ = self._run()
        assert res.wall_seconds > 0


class TestSerialBackend:
    def test_runs_all_tasks(self):
        assert [r.community_id for r in serial_run()] == [0, 1]

    def test_deterministic(self):
        for a, b in zip(serial_run(), serial_run()):
            assert np.array_equal(a.A_rows, b.A_rows)
            assert np.array_equal(a.B_rows, b.B_rows)

    def test_empty_level(self):
        assert SerialBackend().run_level([]) == []

    def test_rejects_tasks_before_prepare(self):
        tasks = arena_tasks(SerialBackend())
        with pytest.raises(ValueError, match="before prepare"):
            SerialBackend().run_level(tasks)


class TestMultiprocessBackend:
    def test_matches_serial_exactly(self):
        serial = serial_run()
        with MultiprocessBackend(n_workers=2) as backend:
            parallel = backend.run_level(arena_tasks(backend))
        for s, p in zip(serial, parallel):
            assert np.array_equal(s.A_rows, p.A_rows)
            assert np.array_equal(s.B_rows, p.B_rows)
            assert s.n_iters == p.n_iters
            assert s.final_loglik == p.final_loglik

    def test_empty_level(self):
        with MultiprocessBackend(n_workers=1) as backend:
            assert backend.run_level([]) == []

    def test_reuse_across_levels(self):
        with MultiprocessBackend(n_workers=2) as backend:
            r1 = backend.run_level(arena_tasks(backend, seed=1))
            r2 = backend.run_level(arena_tasks(backend, seed=2))
        assert len(r1) == len(r2) == 2

    def test_rejects_tasks_before_prepare(self):
        tasks = arena_tasks(SerialBackend())
        with MultiprocessBackend(n_workers=1) as backend:
            with pytest.raises(ValueError, match="before prepare"):
                backend.run_level(tasks)
            assert backend.level_profiles == []

    def test_closed_backend_rejects(self):
        backend = MultiprocessBackend(n_workers=1)
        backend.close()
        with pytest.raises(RuntimeError):
            backend.run_level(arena_tasks(SerialBackend()))

    def test_close_idempotent(self):
        backend = MultiprocessBackend(n_workers=1)
        backend.close()
        backend.close()

    def test_bad_worker_count(self):
        with pytest.raises(ValueError):
            MultiprocessBackend(n_workers=0)


class TestEmptyNodeLevels:
    """A level whose tasks all have empty node sets must not crash."""

    def _empty_task(self, cid):
        return BlockTask(
            community_id=cid,
            nodes=np.empty(0, dtype=np.int64),
            A_rows=np.empty((0, 2)),
            B_rows=np.empty((0, 2)),
            config=OptimizerConfig(max_iters=5),
        )

    def test_all_empty_returns_empty_rows(self):
        with MultiprocessBackend(n_workers=1) as backend:
            results = backend.run_level([self._empty_task(0), self._empty_task(1)])
        assert [r.community_id for r in results] == [0, 1]
        for r in results:
            assert r.nodes.size == 0
            assert r.A_rows.shape == (0, 2)
            assert r.n_iters == 0
            assert r.work_units == 0

    def test_serial_and_multiprocess_agree_field_by_field(self):
        """Both backends answer a task without nodes alike: seed rows
        back, no iterations, no steps, no stop reason — so the level's
        ``LevelStats`` entries match too."""
        tasks = [self._empty_task(0), self._empty_task(1)]
        serial = SerialBackend().run_level(tasks)
        with MultiprocessBackend(n_workers=1) as backend:
            parallel = backend.run_level(tasks)
        timing = {"wall_seconds", "compile_seconds", "kernel_seconds", "gather_seconds"}
        for s, p in zip(serial, parallel):
            for f in dataclasses.fields(s):
                a, b = getattr(s, f.name), getattr(p, f.name)
                if isinstance(a, np.ndarray):
                    assert np.array_equal(a, b), f.name
                elif f.name not in timing:
                    assert a == b, f.name
        assert [(r.n_iters, r.accepted_steps, r.stop_reason) for r in serial] == [
            (0, 0, ""),
            (0, 0, ""),
        ]

    def test_mixed_empty_and_real(self):
        serial = serial_run()
        with MultiprocessBackend(n_workers=2) as backend:
            tasks = arena_tasks(backend)
            tasks.append(self._empty_task(9))
            results = backend.run_level(tasks)
        assert [r.community_id for r in results] == [0, 1, 9]
        assert results[2].A_rows.shape == (0, 2)
        assert results[2].n_iters == 0
        for s, p in zip(serial, results):
            assert np.array_equal(s.A_rows, p.A_rows)


class TestLeakSafety:
    def test_unclosed_backend_is_reaped_by_gc(self):
        import gc

        backend = MultiprocessBackend(n_workers=1)
        resources = backend._resources
        pool = backend._pool
        del backend
        gc.collect()
        assert resources.released
        # a terminated pool rejects further work
        with pytest.raises(ValueError):
            pool.apply(int, ("1",))

    def test_init_failure_reaps_pool(self, monkeypatch):
        from repro.parallel import costmodel

        def boom(*a, **k):
            raise RuntimeError("injected")

        monkeypatch.setattr(costmodel, "DispatchCostEstimator", boom)
        created = []
        real_ctx = mp.get_context("fork")

        class Ctx:
            def Pool(self, n):
                pool = real_ctx.Pool(n)
                created.append(pool)
                return pool

        monkeypatch.setattr(mp, "get_context", lambda method: Ctx())
        with pytest.raises(RuntimeError, match="injected"):
            MultiprocessBackend(n_workers=1)
        assert len(created) == 1
        with pytest.raises(ValueError):
            created[0].apply(int, ("1",))

    def test_close_releases_resources(self):
        backend = MultiprocessBackend(n_workers=1)
        backend.run_level(arena_tasks(backend))
        backend.close()
        assert backend._resources.released


class TestDispatchOrderingAndProfiles:
    def test_lpt_order_does_not_change_results(self):
        serial = serial_run()
        with MultiprocessBackend(n_workers=2) as backend:
            parallel = backend.run_level(arena_tasks(backend))
        for s, p in zip(serial, parallel):
            assert np.array_equal(s.A_rows, p.A_rows)
            assert np.array_equal(s.B_rows, p.B_rows)
            assert s.n_iters == p.n_iters

    def test_estimator_calibrates_across_levels(self):
        with MultiprocessBackend(n_workers=2) as backend:
            assert backend.estimator.n_observed_levels == 0
            backend.run_level(arena_tasks(backend, seed=1))
            assert backend.estimator.n_observed_levels == 1
            assert backend.estimator.seconds_per_work_unit is not None
            backend.run_level(arena_tasks(backend, seed=2))
            assert backend.estimator.n_observed_levels == 2

    def test_level_profiles_recorded(self):
        with MultiprocessBackend(n_workers=2, profile_dispatch=True) as backend:
            backend.run_level(arena_tasks(backend))
        (stats,) = backend.level_profiles
        assert stats.mode == "arena"
        assert stats.n_tasks == 2
        assert stats.payload_bytes > 0
        assert stats.payload_pickle_seconds > 0
        # workers time themselves concurrently, so compute may exceed the
        # parent's wall; both are simply nonnegative measurements
        assert stats.wall_seconds > 0
        assert stats.compute_seconds > 0
        assert stats.overhead_seconds >= 0


class TestArenaDispatch:
    def _world(self):
        from repro.cascades.types import Cascade, CascadeSet

        cs = CascadeSet(6)
        cs.append(Cascade([0, 1, 2], [0.0, 0.3, 0.9]))
        cs.append(Cascade([3, 4], [0.0, 0.7]))
        cs.append(Cascade([1, 0, 5], [0.0, 0.2, 1.1]))
        cs.append(Cascade([2, 1], [0.0, 0.4]))
        return cs

    def _fit(self, backend):
        from repro.community.mergetree import MergeTree
        from repro.community.partition import Partition
        from repro.embedding.model import EmbeddingModel
        from repro.parallel.hierarchical import HierarchicalInference

        tree = MergeTree(Partition([0, 0, 0, 1, 1, 0]), stop_at=1)
        model = EmbeddingModel.random(6, 2, seed=3)
        HierarchicalInference(tree, OptimizerConfig(max_iters=10), backend).fit(
            model, self._world()
        )
        return model

    def test_arena_mode_used_and_matches_serial(self):
        m_serial = self._fit(SerialBackend())
        with MultiprocessBackend(n_workers=2) as backend:
            m_arena = self._fit(backend)
            modes = [p.mode for p in backend.level_profiles]
        assert set(modes) == {"arena"}
        assert np.array_equal(m_arena.A, m_serial.A)
        assert np.array_equal(m_arena.B, m_serial.B)

    def test_serial_fit_needs_no_shared_memory(self, monkeypatch):
        """SerialBackend keeps the corpus in process memory: a fit runs,
        to the same bits, where no shared-memory segment can be made."""
        from repro.parallel import _shm, arena, backends

        expected = self._fit(SerialBackend())

        def refuse(size):
            raise OSError("no shared memory here")

        for module in (_shm, arena, backends):
            monkeypatch.setattr(module, "create_segment", refuse)
        model = self._fit(SerialBackend())
        assert np.array_equal(model.A, expected.A)
        assert np.array_equal(model.B, expected.B)

    def test_prepare_after_close_raises(self):
        backend = MultiprocessBackend(n_workers=1)
        backend.close()
        with pytest.raises(RuntimeError):
            backend.prepare(self._world())
