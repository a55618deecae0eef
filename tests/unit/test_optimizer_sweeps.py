"""Unit tests: the kernel's two halves and what the step loop runs of them.

``forward_sweep`` returns the objective and leaves its intermediates in
the workspace; ``backward_sweep`` turns them into gradients.  The
optimizer gives every candidate the forward sweep and runs the backward
sweep only at the starting point and for accepted steps, so a fit makes
``1 + n_iters`` forward and ``1 + accepted`` backward sweeps.
"""

import numpy as np
import pytest

import repro.embedding.optimizer as optimizer_mod
from repro.embedding.compiled import (
    CompiledCorpus,
    GradientWorkspace,
    backward_sweep,
    corpus_gradients,
    forward_sweep,
)
from repro.embedding.optimizer import OptimizerConfig, ProjectedGradientAscent


@pytest.fixture
def counted(monkeypatch):
    """Wrap the optimizer's two sweeps with call counters."""
    counts = {"forward": 0, "backward": 0}

    def forward(*args, **kwargs):
        counts["forward"] += 1
        return forward_sweep(*args, **kwargs)

    def backward(*args, **kwargs):
        counts["backward"] += 1
        return backward_sweep(*args, **kwargs)

    monkeypatch.setattr(optimizer_mod, "forward_sweep", forward)
    monkeypatch.setattr(optimizer_mod, "backward_sweep", backward)
    return counts


class TestSweepCounts:
    def test_backward_sweep_only_for_accepted_steps(
        self, counted, small_corpus, small_model
    ):
        # a large step forces a mix of rejections and acceptances
        opt = ProjectedGradientAscent(
            OptimizerConfig(learning_rate=5.0, max_iters=40)
        )
        result = opt.fit(small_model, small_corpus)
        accepted = len(result.history) - 1
        assert 0 < accepted < result.n_iters
        assert counted["forward"] == 1 + result.n_iters
        assert counted["backward"] == 1 + accepted

    def test_underflowing_fit_makes_one_backward_sweep(
        self, counted, small_corpus, small_model
    ):
        # A zero A row is the warm-started merged-level regime: every
        # candidate is rejected until the step underflows.
        small_model.A[0] = 0.0
        result = ProjectedGradientAscent(OptimizerConfig()).fit(
            small_model, small_corpus
        )
        assert result.reason == "step size underflow"
        assert len(result.history) == 1
        assert counted["forward"] == 1 + result.n_iters == 30
        assert counted["backward"] == 1


class TestSweepPair:
    def test_pair_equals_corpus_gradients(self, small_corpus, small_model):
        comp = CompiledCorpus.from_cascades(small_corpus)
        A, B = small_model.A, small_model.B
        gA1, gB1 = np.zeros_like(A), np.zeros_like(B)
        gA2, gB2 = np.zeros_like(A), np.zeros_like(B)
        ll1 = corpus_gradients(A, B, comp, gA1, gB1)
        ws = GradientWorkspace()
        ll2 = forward_sweep(A, B, comp, ws)
        backward_sweep(comp, gA2, gB2, ws)
        assert ll1 == ll2
        assert np.array_equal(gA1, gA2)
        assert np.array_equal(gB1, gB2)

    def test_backward_needs_its_forward(self, small_corpus, small_model):
        comp = CompiledCorpus.from_cascades(small_corpus)
        other = CompiledCorpus.from_cascades(small_corpus)
        A, B = small_model.A, small_model.B
        gA, gB = np.zeros_like(A), np.zeros_like(B)
        ws = GradientWorkspace()
        with pytest.raises(ValueError, match="forward_sweep"):
            backward_sweep(comp, gA, gB, ws)
        forward_sweep(A, B, comp, ws)
        with pytest.raises(ValueError, match="forward_sweep"):
            backward_sweep(other, gA, gB, ws)
        forward_sweep(A, B, comp, ws)
        backward_sweep(comp, gA, gB, ws)
        with pytest.raises(ValueError, match="forward_sweep"):
            backward_sweep(comp, gA, gB, ws)  # the intermediates are spent
