"""Unit tests for the optimizer's non-finite guard.

The kernel's two halves, ``forward_sweep`` (the objective) and
``backward_sweep`` (the gradients), are monkeypatched at the optimizer
module level so nan/inf evaluations fire at chosen calls,
deterministically.  Forward call 1 is the starting point and forward
call ``i + 1`` is iteration ``i``'s candidate; the backward sweep runs at
the start and for every candidate the fit would accept.
"""

import numpy as np
import pytest

import repro.embedding.optimizer as optimizer_mod
from repro.embedding.optimizer import (
    NumericalDivergenceError,
    OptimizerConfig,
    ProjectedGradientAscent,
)


class FakeSweeps:
    """Stands in for the kernel's two halves: finite except on chosen calls.

    Finite forward calls return an objective that improves with the
    (monotone) sum of entries, so steps along the constant ascent
    direction the backward calls write are accepted; with
    ``descending=True`` every candidate scores one below the starting
    point instead, so every step is rejected.
    ``bad_calls`` (1-based forward call numbers) return nan;
    ``bad_backward_calls`` (1-based backward call numbers) write
    nan-filled gradients.
    """

    def __init__(self, bad_calls=(), bad_backward_calls=(), descending=False):
        self.bad_calls = set(bad_calls)
        self.bad_backward_calls = set(bad_backward_calls)
        self.descending = descending
        self.n_calls = 0
        self.n_backward_calls = 0

    def forward(self, A, B, corpus, workspace, eps=0.0):
        self.n_calls += 1
        if self.n_calls in self.bad_calls:
            return float("nan")
        if self.descending:
            return -100.0 if self.n_calls == 1 else -101.0
        return -100.0 + float(A.sum() + B.sum())

    def backward(self, corpus, gradA, gradB, workspace):
        self.n_backward_calls += 1
        fill = np.nan if self.n_backward_calls in self.bad_backward_calls else 0.01
        gradA.fill(fill)
        gradB.fill(fill)


@pytest.fixture
def patched(monkeypatch):
    def patch(bad_calls=(), **kwargs):
        fake = FakeSweeps(bad_calls, **kwargs)
        monkeypatch.setattr(optimizer_mod, "forward_sweep", fake.forward)
        monkeypatch.setattr(optimizer_mod, "backward_sweep", fake.backward)
        return fake

    return patch


class TestConfigValidation:
    def test_rejects_zero_retries(self):
        with pytest.raises(ValueError, match="max_nonfinite_retries"):
            OptimizerConfig(max_nonfinite_retries=0)

    def test_default_present(self):
        assert OptimizerConfig().max_nonfinite_retries == 8


class TestNonFiniteGuard:
    def test_nonfinite_at_start_raises(self, patched, small_corpus, small_model):
        patched(bad_calls=(1,))
        opt = ProjectedGradientAscent(OptimizerConfig(max_iters=10))
        with pytest.raises(NumericalDivergenceError, match="starting point"):
            opt.fit(small_model, small_corpus)

    def test_transient_nonfinite_recovers(self, patched, small_corpus, small_model):
        # call 1 = initial, call 2 = iteration 1's evaluation goes bad,
        # then all finite (the retained point's gradients are kept, so
        # nothing is recomputed)
        fake = patched(bad_calls=(2,))
        opt = ProjectedGradientAscent(OptimizerConfig(max_iters=10))
        result = opt.fit(small_model, small_corpus)
        assert np.isfinite(result.final_loglik)
        assert np.all(np.isfinite(small_model.A))
        assert result.n_iters == 10  # the fit kept going after recovery
        assert fake.n_calls > 3

    def test_persistent_nonfinite_raises(self, patched, small_corpus, small_model):
        # every stepped evaluation (calls 2, 3, ...) is bad; only the
        # starting point is finite, so each step burns a retry
        fake = patched(bad_calls=set(range(2, 100)))
        opt = ProjectedGradientAscent(
            OptimizerConfig(max_iters=100, max_nonfinite_retries=3)
        )
        with pytest.raises(NumericalDivergenceError, match="consecutive"):
            opt.fit(small_model, small_corpus)

    def test_streak_resets_on_finite_iteration(self, patched, small_corpus, small_model):
        # bad at scattered, non-consecutive step-evaluations: 2 then 6 —
        # each is a streak of one, so a budget of 2 never trips
        fake = patched(bad_calls=(2, 6))
        opt = ProjectedGradientAscent(
            OptimizerConfig(max_iters=10, max_nonfinite_retries=2)
        )
        result = opt.fit(small_model, small_corpus)
        assert np.isfinite(result.final_loglik)

    def test_model_not_left_nan_after_raise(self, patched, small_corpus, small_model):
        patched(bad_calls=set(range(2, 100)))
        opt = ProjectedGradientAscent(
            OptimizerConfig(max_iters=100, max_nonfinite_retries=2)
        )
        with pytest.raises(NumericalDivergenceError):
            opt.fit(small_model, small_corpus)
        # the guard retracts before raising: the iterate stays finite
        assert np.all(np.isfinite(small_model.A))
        assert np.all(np.isfinite(small_model.B))

    def test_nonfinite_gradients_of_an_accepted_step_count(
        self, patched, small_corpus, small_model
    ):
        # backward call 1 is the starting point; calls 2 and 3 belong to
        # the candidates of iterations 1 and 2, whose objectives would be
        # accepted.  Their nan gradients take the non-finite branch: the
        # model does not move and the streak counts both.
        fake = patched(bad_backward_calls=(2, 3))
        before_A = small_model.A.copy()
        opt = ProjectedGradientAscent(
            OptimizerConfig(max_iters=10, max_nonfinite_retries=1)
        )
        with pytest.raises(NumericalDivergenceError, match="consecutive"):
            opt.fit(small_model, small_corpus)
        assert fake.n_calls == 3
        assert np.array_equal(small_model.A, before_A)

    def test_one_bad_gradient_step_is_retried(
        self, patched, small_corpus, small_model
    ):
        fake = patched(bad_backward_calls=(2,))
        opt = ProjectedGradientAscent(OptimizerConfig(max_iters=10))
        result = opt.fit(small_model, small_corpus)
        assert result.n_iters == 10
        assert len(result.history) == 10  # iteration 1 was not accepted
        assert fake.n_backward_calls == 11
        assert np.all(np.isfinite(small_model.A))

    def test_rejected_step_runs_no_backward_sweep(
        self, patched, small_corpus, small_model
    ):
        # Every candidate's objective is finite and lower: ordinary
        # rejections.  Their gradients are never computed, so even a
        # backward sweep that would return nan cannot trip the guard.
        fake = patched(
            descending=True, bad_backward_calls=set(range(2, 100))
        )
        opt = ProjectedGradientAscent(
            OptimizerConfig(max_iters=100, max_nonfinite_retries=1)
        )
        result = opt.fit(small_model, small_corpus)
        assert result.reason == "step size underflow"
        assert len(result.history) == 1
        assert fake.n_backward_calls == 1  # the starting point only
        assert fake.n_calls == 1 + result.n_iters

    def test_real_corpus_unaffected(self, small_corpus, small_model):
        # no patching: the guard must not change behaviour on healthy data
        opt = ProjectedGradientAscent(OptimizerConfig(max_iters=20))
        result = opt.fit(small_model, small_corpus)
        assert np.isfinite(result.final_loglik)
