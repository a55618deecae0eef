"""Parameter container for the influence/selectivity embedding model."""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Tuple

import numpy as np

from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import check_array_shape, check_nonnegative

__all__ = ["EmbeddingModel"]


class EmbeddingModel:
    """Non-negative node embeddings ``(A, B)`` of shape (n_nodes, n_topics).

    ``A[u, k]`` is node *u*'s influence on topic *k* — the probability-rate
    that others pick up content *u* emitted; ``B[v, k]`` is *v*'s
    selectivity — how readily *v* accepts inputs on topic *k* (§III-B).
    The two are not assumed correlated.

    Parameters
    ----------
    A, B:
        Finite, non-negative float64 matrices of identical shape.

    Notes
    -----
    The matrices are owned (not copied) so the parallel engine can alias
    shared memory; mutate through the provided methods.
    """

    __slots__ = ("A", "B")

    def __init__(self, A: np.ndarray, B: np.ndarray) -> None:
        A = np.asarray(A, dtype=np.float64)
        B = np.asarray(B, dtype=np.float64)
        if A.ndim != 2 or A.shape != B.shape:
            raise ValueError(
                f"A and B must be equal-shape 2-D matrices, got {A.shape} vs {B.shape}"
            )
        if A.size:
            # NaN survives min and max, so finite extremes of both planes
            # rule out NaN and both infinities
            extremes = np.array([A.min(), A.max(), B.min(), B.max()])
            if not np.isfinite(extremes).all():
                raise ValueError("embeddings must be finite (no NaN or inf)")
            if extremes.min() < 0:
                raise ValueError("embeddings must be non-negative")
        self.A = A
        self.B = B

    # ------------------------------------------------------------------ #

    @classmethod
    def random(
        cls,
        n_nodes: int,
        n_topics: int,
        scale: float = 1.0,
        seed: SeedLike = None,
    ) -> "EmbeddingModel":
        """Uniform(0, scale) initialization — the optimizer's starting point."""
        check_nonnegative(scale, "scale")
        rng = as_generator(seed)
        A = rng.uniform(0.0, scale, size=(n_nodes, n_topics))
        B = rng.uniform(0.0, scale, size=(n_nodes, n_topics))
        return cls(A, B)

    @classmethod
    def zeros(cls, n_nodes: int, n_topics: int) -> "EmbeddingModel":
        return cls(
            np.zeros((n_nodes, n_topics)), np.zeros((n_nodes, n_topics))
        )

    # ------------------------------------------------------------------ #

    @property
    def n_nodes(self) -> int:
        return self.A.shape[0]

    @property
    def n_topics(self) -> int:
        """K, the latent topic dimensionality."""
        return self.A.shape[1]

    def copy(self) -> "EmbeddingModel":
        return EmbeddingModel(self.A.copy(), self.B.copy())

    def hazard_rate(self, u: int, v: int) -> float:
        """``h_uv`` rate parameter: ``A[u] · B[v]`` (Eq. 6 at Δt-rate form)."""
        return float(self.A[u] @ self.B[v])

    def hazard(self, u: int, v: int, dt: float) -> float:
        """Hazard function value ``h_uv(Δt) = A_u·B_v`` (constant in Δt for
        exponential delays), defined for ``dt >= 0``."""
        if dt < 0:
            raise ValueError("dt must be >= 0")
        return self.hazard_rate(u, v)

    def survival(self, u: int, v: int, dt: float) -> float:
        """Survival ``S_uv(Δt) = exp(−A_u·B_v Δt)`` (Eq. 7)."""
        if dt < 0:
            raise ValueError("dt must be >= 0")
        return float(np.exp(-self.hazard_rate(u, v) * dt))

    def rate_matrix(self) -> np.ndarray:
        """Dense (n, n) matrix of pairwise rates ``A @ B.T`` — O(n²) memory,
        intended for small diagnostic graphs only."""
        return self.A @ self.B.T

    def project(self, min_value: float = 0.0) -> None:
        """Clip both matrices at *min_value* in place (the projection step
        of projected gradient ascent)."""
        np.maximum(self.A, min_value, out=self.A)
        np.maximum(self.B, min_value, out=self.B)

    def frobenius_distance(self, other: "EmbeddingModel") -> float:
        """‖A−A'‖_F + ‖B−B'‖_F, for convergence diagnostics and tests."""
        if other.A.shape != self.A.shape:
            raise ValueError("models have different shapes")
        return float(
            np.linalg.norm(self.A - other.A) + np.linalg.norm(self.B - other.B)
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EmbeddingModel):
            return NotImplemented
        return np.array_equal(self.A, other.A) and np.array_equal(self.B, other.B)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"EmbeddingModel(n_nodes={self.n_nodes}, n_topics={self.n_topics})"

    # ------------------------------------------------------------------ #
    # Persistence
    # ------------------------------------------------------------------ #

    def save(self, path: str | Path) -> None:
        """Serialize to an ``.npz`` archive with arrays ``A`` and ``B``."""
        np.savez_compressed(path, A=self.A, B=self.B)

    @classmethod
    def load(cls, path: str | Path) -> EmbeddingModel:
        """Load a model written by :meth:`save`."""
        with np.load(path) as data:
            if "A" not in data or "B" not in data:
                raise ValueError(f"{path}: not an embedding archive (need A, B)")
            return cls(data["A"].copy(), data["B"].copy())
