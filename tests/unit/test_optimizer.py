"""Unit tests for projected gradient ascent."""

import numpy as np
import pytest

from repro.cascades.types import Cascade, CascadeSet
from repro.embedding.likelihood import corpus_log_likelihood
from repro.embedding.model import EmbeddingModel
from repro.embedding.optimizer import (
    FitResult,
    OptimizerConfig,
    ProjectedGradientAscent,
)


@pytest.fixture
def corpus():
    cs = CascadeSet(4)
    cs.append(Cascade([0, 1, 2], [0.0, 0.3, 0.8]))
    cs.append(Cascade([0, 2], [0.0, 0.4]))
    cs.append(Cascade([1, 3], [0.0, 0.6]))
    cs.append(Cascade([2, 3, 0], [0.0, 0.2, 0.9]))
    return cs


class TestConfig:
    def test_defaults_valid(self):
        OptimizerConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"learning_rate": 0.0},
            {"max_iters": 0},
            {"step_decay": 1.0},
            {"step_decay": 0.0},
            {"patience": 0},
        ],
    )
    def test_invalid_config(self, kwargs):
        with pytest.raises(ValueError):
            OptimizerConfig(**kwargs)


class TestFit:
    def test_loglik_increases(self, corpus):
        model = EmbeddingModel.random(4, 2, scale=0.5, seed=0)
        before = corpus_log_likelihood(model, corpus)
        # The optimizer's objective is Eq. 8 verbatim, so the reported
        # history matches corpus_log_likelihood exactly.
        opt = ProjectedGradientAscent(OptimizerConfig(max_iters=50))
        result = opt.fit(model, corpus)
        after = corpus_log_likelihood(model, corpus)
        assert after > before
        assert result.final_loglik == pytest.approx(after, rel=1e-9)

    def test_history_monotone(self, corpus):
        model = EmbeddingModel.random(4, 2, scale=0.5, seed=1)
        result = ProjectedGradientAscent(OptimizerConfig(max_iters=60)).fit(
            model, corpus
        )
        h = np.asarray(result.history)
        assert np.all(np.diff(h) >= -1e-9)

    def test_nonnegativity_maintained(self, corpus):
        model = EmbeddingModel.random(4, 2, scale=0.5, seed=2)
        ProjectedGradientAscent(
            OptimizerConfig(max_iters=40, learning_rate=0.2)
        ).fit(model, corpus)
        assert model.A.min() >= 0 and model.B.min() >= 0

    def test_early_stopping_on_plateau(self, corpus):
        model = EmbeddingModel.random(4, 2, scale=0.5, seed=3)
        cfg = OptimizerConfig(max_iters=500, tol=1e-4, patience=2)
        result = ProjectedGradientAscent(cfg).fit(model, corpus)
        assert result.converged
        assert result.n_iters < 500
        assert result.reason in ("log-likelihood plateau", "step size underflow")

    def test_deterministic(self, corpus):
        m1 = EmbeddingModel.random(4, 2, seed=4)
        m2 = EmbeddingModel.random(4, 2, seed=4)
        cfg = OptimizerConfig(max_iters=30)
        ProjectedGradientAscent(cfg).fit(m1, corpus)
        ProjectedGradientAscent(cfg).fit(m2, corpus)
        assert m1 == m2

    def test_universe_mismatch(self, corpus):
        model = EmbeddingModel.random(3, 2, seed=0)
        with pytest.raises(ValueError):
            ProjectedGradientAscent().fit(model, corpus)

    def test_empty_corpus_is_noop(self):
        model = EmbeddingModel.random(4, 2, seed=6)
        before = model.copy()
        result = ProjectedGradientAscent(OptimizerConfig(max_iters=5)).fit(
            model, CascadeSet(4)
        )
        assert model == before or model.frobenius_distance(before) == 0.0
        assert result.final_loglik == 0.0


class TestFitResult:
    def test_final_loglik_empty(self):
        assert FitResult().final_loglik == float("-inf")


class TestWorkspaceThreading:
    """An explicit GradientWorkspace must change nothing but allocations."""

    def _fit(self, corpus, workspace=None, seed=3):
        model = EmbeddingModel.random(4, 2, scale=0.5, seed=seed)
        result = ProjectedGradientAscent(OptimizerConfig(max_iters=25)).fit(
            model, corpus, workspace=workspace
        )
        return model, result

    def test_explicit_workspace_bit_identical(self, corpus):
        from repro.embedding.compiled import GradientWorkspace

        m1, r1 = self._fit(corpus)
        m2, r2 = self._fit(corpus, workspace=GradientWorkspace())
        assert r1.history == r2.history
        assert np.array_equal(m1.A, m2.A)
        assert np.array_equal(m1.B, m2.B)

    def test_model_array_identity_preserved(self, corpus):
        # The parallel engine aliases model.A/model.B into shared memory;
        # fit must keep writing through the SAME arrays even though the
        # accept path swaps candidate buffers internally.
        model = EmbeddingModel.random(4, 2, seed=4)
        origA, origB = model.A, model.B
        ProjectedGradientAscent(OptimizerConfig(max_iters=25)).fit(model, corpus)
        assert model.A is origA
        assert model.B is origB

    def test_workspace_reused_across_fits_of_different_shapes(self, corpus):
        from repro.embedding.compiled import GradientWorkspace

        ws = GradientWorkspace()
        big = CascadeSet(6)
        big.append(Cascade([0, 1, 2, 3, 4, 5], [0.0, 0.1, 0.2, 0.3, 0.4, 0.5]))
        big.append(Cascade([5, 3, 1], [0.0, 0.7, 0.9]))
        model_big = EmbeddingModel.random(6, 3, seed=5)
        ProjectedGradientAscent(OptimizerConfig(max_iters=10)).fit(
            model_big, big, workspace=ws
        )
        m1, r1 = self._fit(corpus, workspace=ws)  # smaller corpus, K=2
        m2, r2 = self._fit(corpus)
        assert r1.history == r2.history
        assert np.array_equal(m1.A, m2.A)
        assert np.array_equal(m1.B, m2.B)

    def test_candidates_released_after_fit(self, corpus):
        from repro.embedding.compiled import GradientWorkspace

        ws = GradientWorkspace()
        model = EmbeddingModel.random(4, 2, seed=6)
        ProjectedGradientAscent(OptimizerConfig(max_iters=5)).fit(
            model, corpus, workspace=ws
        )
        # candidate buffers may alias caller arrays after the final swap —
        # fit must drop them on the way out
        assert "candA" not in ws._mats
        assert "candB" not in ws._mats
