"""Write-disjointness sanitizer: ledger semantics, injected violations,
exemption handling, and bit-identity of sanitized runs."""

import numpy as np
import pytest

from repro.cascades.simulate import simulate_corpus
from repro.community.mergetree import MergeTree
from repro.community.partition import Partition
from repro.devtools import sanitize
from repro.devtools.sanitize import (
    DisjointnessViolation,
    WriteLedger,
    assert_exempt,
    verify_selection,
)
from repro.embedding.model import EmbeddingModel
from repro.embedding.optimizer import OptimizerConfig
from repro.graphs.generators import stochastic_block_model
from repro.parallel.arena import LevelSelection
from repro.parallel.backends import Backend, BlockResult, SerialBackend
from repro.parallel.hierarchical import HierarchicalInference


@pytest.fixture(scope="module")
def small_world():
    graph, membership = stochastic_block_model(
        60, 20, p_in=0.4, p_out=0.01, seed=0
    )
    cascades = simulate_corpus(graph, 40, window=0.5, seed=1, min_size=2)
    return cascades, Partition(membership)


class TestEnabled:
    def test_default_off(self, monkeypatch):
        monkeypatch.delenv(sanitize.ENV_VAR, raising=False)
        assert not sanitize.enabled()

    @pytest.mark.parametrize("value", ["0", "false", "No", "off", ""])
    def test_falsey_values(self, monkeypatch, value):
        monkeypatch.setenv(sanitize.ENV_VAR, value)
        assert not sanitize.enabled()

    @pytest.mark.parametrize("value", ["1", "true", "yes", "on"])
    def test_truthy_values(self, monkeypatch, value):
        monkeypatch.setenv(sanitize.ENV_VAR, value)
        assert sanitize.enabled()


class TestAssertExempt:
    def test_hogwild_is_exempt(self):
        assert_exempt("repro.parallel.hogwild")  # must not raise

    def test_unknown_module_rejected(self):
        with pytest.raises(RuntimeError, match="exemption"):
            assert_exempt("repro.parallel.backends")


class TestWriteLedger:
    def test_disjoint_blocks_pass(self):
        ledger = WriteLedger(level=0)
        ledger.assign(0, np.array([0, 1, 2]))
        ledger.assign(1, np.array([3, 4]))
        ledger.record_write(0, np.array([0, 1, 2]))
        ledger.record_write(1, np.array([3, 4]))
        ledger.verify()
        assert ledger.n_blocks == 2
        assert ledger.n_rows_written == 5

    def test_overlap_raises_with_structure(self):
        ledger = WriteLedger(level=3)
        ledger.assign(7, np.array([0, 1, 2]))
        ledger.assign(9, np.array([2, 3]))
        ledger.record_write(7, np.array([0, 1, 2]))
        ledger.record_write(9, np.array([2, 3]))
        with pytest.raises(DisjointnessViolation) as exc_info:
            ledger.verify()
        err = exc_info.value
        assert err.level == 3
        assert err.kind == "overlap"
        assert err.communities == (7, 9)
        assert err.rows.tolist() == [2]
        assert "level 3" in str(err)

    def test_stray_row_is_coverage_violation(self):
        ledger = WriteLedger(level=1)
        ledger.assign(4, np.array([10, 11]))
        ledger.record_write(4, np.array([10, 11, 12]))
        with pytest.raises(DisjointnessViolation) as exc_info:
            ledger.verify()
        err = exc_info.value
        assert err.kind == "coverage"
        assert err.communities == (4,)
        assert 12 in err.rows.tolist()

    def test_missing_row_is_coverage_violation(self):
        ledger = WriteLedger(level=1)
        ledger.assign(4, np.array([10, 11]))
        ledger.record_write(4, np.array([10]))
        with pytest.raises(DisjointnessViolation, match="coverage"):
            ledger.verify()

    def test_unassigned_writer_rejected(self):
        ledger = WriteLedger(level=0)
        ledger.record_write(5, np.array([0]))
        with pytest.raises(DisjointnessViolation, match="never assigned"):
            ledger.verify()

    def test_assigned_but_unwritten_is_legal(self):
        # Empty sub-corpus at a level: the driver skips the task and the
        # rows legitimately keep their seed values.
        ledger = WriteLedger(level=0)
        ledger.assign(0, np.array([0, 1]))
        ledger.verify()

    def test_double_assign_rejected(self):
        ledger = WriteLedger(level=0)
        ledger.assign(0, np.array([0]))
        with pytest.raises(ValueError, match="assigned twice"):
            ledger.assign(0, np.array([1]))


class TestVerifySelection:
    def _publish(self, members_per_task):
        sel = LevelSelection()
        members = np.concatenate(
            [np.asarray(m, dtype=np.int64) for m in members_per_task]
        )
        sel.update(
            positions=np.arange(members.size, dtype=np.int64),
            sub_offsets=np.array([0, members.size], dtype=np.int64),
            members=members,
        )
        ranges = []
        lo = 0
        for m in members_per_task:
            ranges.append((lo, lo + len(m)))
            lo += len(m)
        return sel, ranges

    def test_consistent_selection_passes(self):
        assigned = [np.array([0, 1, 2]), np.array([3, 4])]
        sel, ranges = self._publish(assigned)
        try:
            _, _, mem_v = sel.resident_views()
            verify_selection(0, [0, 1], assigned, mem_v, ranges)
            del mem_v
        finally:
            sel.close()

    def test_injected_overlap_raises(self):
        # Splitting bug simulation: two tasks assigned (and published
        # with) an overlapping row range.
        assigned = [np.array([0, 1, 2]), np.array([2, 3])]
        sel, ranges = self._publish(assigned)
        try:
            _, _, mem_v = sel.resident_views()
            with pytest.raises(DisjointnessViolation) as exc_info:
                verify_selection(5, [10, 11], assigned, mem_v, ranges)
            del mem_v
        finally:
            sel.close()
        err = exc_info.value
        assert err.level == 5
        assert err.kind == "overlap"
        assert err.communities == (10, 11)
        assert err.rows.tolist() == [2]

    def test_stale_selection_block_raises(self):
        # The published shared-memory content disagrees with the task
        # assignment (stale digest-reuse / corrupt write simulation).
        assigned = [np.array([0, 1, 2]), np.array([3, 4])]
        sel, ranges = self._publish(assigned)
        try:
            _, _, mem_v = sel.resident_views()
            mem_v[3] = 1  # corrupt task 1's published slice in place
            with pytest.raises(DisjointnessViolation) as exc_info:
                verify_selection(2, [0, 1], assigned, mem_v, ranges)
            del mem_v
        finally:
            sel.close()
        err = exc_info.value
        assert err.kind == "selection"
        assert err.communities == (1,)

    def test_misaligned_arguments_rejected(self):
        with pytest.raises(ValueError, match="align"):
            verify_selection(0, [0], [], np.empty(0, dtype=np.int64), [])


class _TamperingBackend(Backend):
    """Delegates to SerialBackend, then widens one result's row set —
    simulating a block that scatters outside its community."""

    def __init__(self):
        self._inner = SerialBackend()

    def prepare(self, cascades):
        return self._inner.prepare(cascades)

    def run_level(self, tasks):
        results = self._inner.run_level(tasks)
        if len(results) > 1:
            bad = results[0]
            extra = int(results[1].nodes[0])
            results[0] = BlockResult(
                community_id=bad.community_id,
                nodes=np.append(bad.nodes, extra),
                A_rows=np.vstack([bad.A_rows, bad.A_rows[:1]]),
                B_rows=np.vstack([bad.B_rows, bad.B_rows[:1]]),
                n_iters=bad.n_iters,
                final_loglik=bad.final_loglik,
                wall_seconds=bad.wall_seconds,
                work_units=bad.work_units,
            )
        return results


class TestDriverIntegration:
    def test_tampered_result_caught_before_merge(self, small_world, monkeypatch):
        monkeypatch.setenv(sanitize.ENV_VAR, "1")
        cascades, part = small_world
        model = EmbeddingModel.random(60, 3, seed=5)
        engine = HierarchicalInference(
            MergeTree(part, stop_at=1),
            OptimizerConfig(max_iters=3),
            backend=_TamperingBackend(),
        )
        with pytest.raises(DisjointnessViolation) as exc_info:
            engine.fit(model, cascades)
        assert exc_info.value.kind == "coverage"

    def test_sanitized_serial_fit_bit_identical(self, small_world, monkeypatch):
        cascades, part = small_world
        tree = MergeTree(part, stop_at=1)
        cfg = OptimizerConfig(max_iters=10)

        monkeypatch.delenv(sanitize.ENV_VAR, raising=False)
        plain = EmbeddingModel.random(60, 3, seed=6)
        HierarchicalInference(tree, cfg).fit(plain, cascades)

        monkeypatch.setenv(sanitize.ENV_VAR, "1")
        sanitized = EmbeddingModel.random(60, 3, seed=6)
        HierarchicalInference(tree, cfg).fit(sanitized, cascades)

        assert np.array_equal(plain.A, sanitized.A)
        assert np.array_equal(plain.B, sanitized.B)

    @pytest.mark.slow
    def test_sanitized_multiprocess_fit_bit_identical(
        self, small_world, monkeypatch
    ):
        from repro.parallel.backends import MultiprocessBackend

        cascades, part = small_world
        tree = MergeTree(part, stop_at=1)
        cfg = OptimizerConfig(max_iters=10)

        def fit(sanitized):
            if sanitized:
                monkeypatch.setenv(sanitize.ENV_VAR, "1")
            else:
                monkeypatch.delenv(sanitize.ENV_VAR, raising=False)
            model = EmbeddingModel.random(60, 3, seed=6)
            with MultiprocessBackend(n_workers=2) as backend:
                HierarchicalInference(tree, cfg, backend=backend).fit(
                    model, cascades
                )
            return model

        plain = fit(False)
        checked = fit(True)
        serial = EmbeddingModel.random(60, 3, seed=6)
        monkeypatch.setenv(sanitize.ENV_VAR, "1")
        HierarchicalInference(tree, cfg).fit(serial, cascades)

        assert np.array_equal(plain.A, checked.A)
        assert np.array_equal(plain.B, checked.B)
        assert np.array_equal(serial.A, checked.A)

    def test_hogwild_runs_under_sanitizer(self, small_world, monkeypatch):
        # Hogwild is exempt: a sanitized single-worker run must succeed
        # (and stay deterministic).
        from repro.parallel.hogwild import HogwildConfig, hogwild_fit

        monkeypatch.setenv(sanitize.ENV_VAR, "1")
        cascades, _ = small_world
        model = EmbeddingModel.random(60, 3, seed=8)
        hogwild_fit(
            model,
            cascades,
            HogwildConfig(n_epochs=1, n_workers=1),
            seed=3,
        )
