"""Influence/selectivity node embeddings — the paper's core contribution.

Every node *u* has a non-negative *influence* vector ``A[u] ∈ R^K₊`` and a
*selectivity* vector ``B[u] ∈ R^K₊`` (§III-B).  The infection delay on
topic *k* from *u* to *v* is exponential with rate ``A[u,k]·B[v,k]``; the
minimum across topics is exponential with rate ``A[u]·B[v]`` (Eq. 6–7),
yielding the cascade log-likelihood of Eq. 8.  Inference is projected
gradient ascent with the linear-time two-sweep gradients of Eq. 12–16.

Modules
-------
model
    :class:`EmbeddingModel` parameter container and hazard/survival maps.
likelihood
    Vectorized (and naive reference) log-likelihood.
gradients
    Two-sweep gradient accumulation, O(s·K) per cascade of length s.
optimizer
    :class:`ProjectedGradientAscent` with early stopping (Alg. 1 inner loop).
linkmodel
    Per-link exponential-rate baseline (O(n²) parameters), the sequential
    comparator behind the abstract's 50× claim.
"""

from typing import TYPE_CHECKING

from repro import _lazy_exports

if TYPE_CHECKING:
    from repro.embedding.model import EmbeddingModel
    from repro.embedding.likelihood import corpus_log_likelihood, log_likelihood
    from repro.embedding.gradients import accumulate_gradients
    from repro.embedding.optimizer import FitResult, OptimizerConfig, ProjectedGradientAscent
    from repro.embedding.linkmodel import LinkRateModel
    from repro.embedding.online import OnlineConfig, OnlineEmbeddingInference
    from repro.embedding.hazards import (
        ExponentialKernel,
        HazardKernel,
        PowerLawKernel,
        RayleighKernel,
        get_kernel,
    )

__all__ = [
    "EmbeddingModel",
    "log_likelihood",
    "corpus_log_likelihood",
    "accumulate_gradients",
    "ProjectedGradientAscent",
    "OptimizerConfig",
    "FitResult",
    "LinkRateModel",
    "HazardKernel",
    "ExponentialKernel",
    "RayleighKernel",
    "PowerLawKernel",
    "get_kernel",
    "OnlineConfig",
    "OnlineEmbeddingInference",
]

__getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        "repro.embedding.model": ("EmbeddingModel",),
        "repro.embedding.likelihood": ("corpus_log_likelihood", "log_likelihood"),
        "repro.embedding.gradients": ("accumulate_gradients",),
        "repro.embedding.optimizer": ("FitResult", "OptimizerConfig", "ProjectedGradientAscent"),
        "repro.embedding.linkmodel": ("LinkRateModel",),
        "repro.embedding.online": ("OnlineConfig", "OnlineEmbeddingInference"),
        "repro.embedding.hazards": (
            "ExponentialKernel", "HazardKernel", "PowerLawKernel", "RayleighKernel", "get_kernel",
        ),
    },
)
