"""Unit tests for EmbeddingModel."""

import numpy as np
import pytest

from repro.embedding.model import EmbeddingModel


class TestConstruction:
    def test_shapes(self):
        m = EmbeddingModel.random(5, 3, seed=0)
        assert m.n_nodes == 5 and m.n_topics == 3

    def test_random_in_scale(self):
        m = EmbeddingModel.random(100, 4, scale=0.5, seed=1)
        assert m.A.min() >= 0 and m.A.max() <= 0.5
        assert m.B.min() >= 0 and m.B.max() <= 0.5

    def test_random_deterministic(self):
        a = EmbeddingModel.random(5, 2, seed=3)
        b = EmbeddingModel.random(5, 2, seed=3)
        assert a == b

    def test_zeros(self):
        m = EmbeddingModel.zeros(3, 2)
        assert np.all(m.A == 0) and np.all(m.B == 0)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            EmbeddingModel(np.zeros((3, 2)), np.zeros((3, 3)))

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            EmbeddingModel(-np.ones((2, 2)), np.ones((2, 2)))

    @pytest.mark.parametrize(
        "plane,value", [("A", np.nan), ("B", np.inf), ("A", -np.inf), ("B", -np.inf)]
    )
    def test_non_finite_rejected(self, plane, value):
        # NaN passes the ordered non-negativity test; -inf must be
        # named for what it is, not only as a negative entry
        planes = {"A": np.ones((3, 2)), "B": np.ones((3, 2))}
        planes[plane][1, 0] = value
        with pytest.raises(ValueError, match="must be finite"):
            EmbeddingModel(planes["A"], planes["B"])

    def test_matrices_not_copied(self):
        A = np.ones((2, 2))
        B = np.ones((2, 2))
        m = EmbeddingModel(A, B)
        assert m.A is A  # aliasing is intentional (shared memory backend)


class TestHazardSurvival:
    def test_hazard_rate_is_inner_product(self):
        m = EmbeddingModel(np.array([[1.0, 2.0]]), np.array([[3.0, 4.0]]))
        assert m.hazard_rate(0, 0) == pytest.approx(11.0)

    def test_hazard_constant_in_dt(self, small_model):
        assert small_model.hazard(0, 1, 0.1) == small_model.hazard(0, 1, 5.0)

    def test_hazard_negative_dt_rejected(self, small_model):
        with pytest.raises(ValueError):
            small_model.hazard(0, 1, -0.1)

    def test_survival_exponential(self, small_model):
        rate = small_model.hazard_rate(0, 1)
        assert small_model.survival(0, 1, 2.0) == pytest.approx(np.exp(-2 * rate))

    def test_survival_at_zero_is_one(self, small_model):
        assert small_model.survival(2, 3, 0.0) == 1.0

    def test_survival_hazard_consistency(self, small_model):
        """S(dt) = exp(-∫h) for the constant hazard (Eq. 6-7)."""
        dt = 1.7
        u, v = 1, 4
        h = small_model.hazard(u, v, dt)
        assert small_model.survival(u, v, dt) == pytest.approx(np.exp(-h * dt))

    def test_rate_matrix(self, small_model):
        R = small_model.rate_matrix()
        assert R.shape == (6, 6)
        assert R[1, 2] == pytest.approx(small_model.hazard_rate(1, 2))


class TestOperations:
    def test_project_clips(self):
        m = EmbeddingModel(np.ones((2, 2)), np.ones((2, 2)))
        m.A -= 5.0
        m.project()
        assert np.all(m.A == 0.0)

    def test_project_min_value(self):
        m = EmbeddingModel.zeros(2, 2)
        m.project(min_value=0.1)
        assert np.all(m.A == 0.1)

    def test_copy_is_deep(self, small_model):
        c = small_model.copy()
        c.A[0, 0] += 1.0
        assert small_model.A[0, 0] != c.A[0, 0]

    def test_frobenius_distance(self):
        a = EmbeddingModel.zeros(2, 2)
        b = EmbeddingModel(np.ones((2, 2)), np.zeros((2, 2)))
        assert a.frobenius_distance(b) == pytest.approx(2.0)

    def test_frobenius_shape_mismatch(self, small_model):
        with pytest.raises(ValueError):
            small_model.frobenius_distance(EmbeddingModel.zeros(2, 2))
