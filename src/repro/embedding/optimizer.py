"""Projected (block-coordinate) gradient ascent — Algorithm 1's inner loop.

Each iteration accumulates full-batch gradients over the supplied cascades
(lines 14–21 of Algorithm 1), applies the scaled update to the rows being
optimized, and projects onto the non-negative orthant (the constraints of
Eq. 10–11, enforced exactly as in Lin's projected-gradient NMF method).

Early stopping follows the paper: "the inference algorithm ... terminates
when the corresponding log-likelihood no longer increases or the max number
of iterations is exceeded."  As a practical safeguard the step size is
halved whenever an update *decreases* the log-likelihood (and the step is
retracted), which keeps full-batch ascent stable without a line search.
A candidate step costs only the kernel's forward sweep (the objective);
the backward sweep (its gradients) runs only when the step is accepted,
and a rejection keeps the retained point's gradients as they are.

Every row of the model is optimized.  Algorithm 1's block-coordinate
structure comes from the caller: the parallel engine fits each community
on a model of its own gathered rows and its sub-corpus in local ids.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Union

import numpy as np

from repro.cascades.types import CascadeSet
from repro.embedding.compiled import (
    CompiledCorpus,
    GradientWorkspace,
    backward_sweep,
    forward_sweep,
)
from repro.embedding.likelihood import EPS
from repro.embedding.model import EmbeddingModel

__all__ = [
    "OptimizerConfig",
    "FitResult",
    "NumericalDivergenceError",
    "ProjectedGradientAscent",
]


class NumericalDivergenceError(RuntimeError):
    """The objective or its gradients became non-finite and stayed so.

    Raised when repeated step-halving (``max_nonfinite_retries``
    retractions in a row, or step-size underflow while retracting) fails
    to return the iterate to a finite region — e.g. an extreme learning
    rate overflowing ``exp``-free but unbounded rate sums.  Distinct from
    ordinary convergence failure: the model state is not trustworthy, so
    callers (the parallel engine's retry ladder in particular) should
    treat the task as faulted rather than accept the result.
    """


@dataclass(frozen=True)
class OptimizerConfig:
    """Hyper-parameters of the projected gradient ascent.

    Attributes
    ----------
    learning_rate:
        Initial step size α (Algorithm 1 line 18).
    max_iters:
        Hard iteration cap (Algorithm 1 line 26).
    tol:
        Minimum relative log-likelihood improvement still counted as
        progress.
    patience:
        Consecutive no-progress iterations tolerated before stopping.
    step_decay:
        Multiplier applied to the step size after a rejected (descending)
        step.
    min_step:
        Stop when the step size decays below this.
    eps:
        Likelihood denominator guard.
    l2:
        Optional ridge penalty ``l2/2 (‖A‖² + ‖B‖²)`` subtracted from the
        objective.  Eq. 8 is a *partial* likelihood (no censoring), so
        rates of rarely observed nodes are high-variance — their MLE is
        ``1/Δt`` from a handful of observations; a small ridge shrinks
        those unconstrained rows without noticeably moving well-observed
        ones.  0 (default) reproduces the paper's unregularized objective.
    max_nonfinite_retries:
        Consecutive non-finite step evaluations (a nan/inf
        log-likelihood, or nan/inf gradients of a step that would be
        accepted) tolerated while step-halving before the fit aborts
        with :class:`NumericalDivergenceError`.  A rejected step's
        gradients are never computed, so they cannot count.
    """

    learning_rate: float = 0.05
    max_iters: int = 200
    tol: float = 1e-7
    patience: int = 3
    step_decay: float = 0.5
    min_step: float = 1e-10
    eps: float = EPS
    l2: float = 0.0
    max_nonfinite_retries: int = 8

    def __post_init__(self) -> None:
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if not (0 < self.step_decay < 1):
            raise ValueError("step_decay must lie in (0, 1)")
        if self.patience < 1:
            raise ValueError("patience must be >= 1")
        if self.l2 < 0:
            raise ValueError("l2 must be >= 0")
        if self.max_nonfinite_retries < 1:
            raise ValueError("max_nonfinite_retries must be >= 1")


@dataclass
class FitResult:
    """Outcome of a fit: log-likelihood trace and termination reason."""

    history: List[float] = field(default_factory=list)
    n_iters: int = 0
    converged: bool = False
    reason: str = ""

    @property
    def final_loglik(self) -> float:
        return self.history[-1] if self.history else float("-inf")


class ProjectedGradientAscent:
    """Full-batch projected gradient ascent on Eq. 9.

    Parameters
    ----------
    config:
        Hyper-parameters; defaults follow DESIGN.md §7.
    """

    def __init__(self, config: Optional[OptimizerConfig] = None) -> None:
        self.config = config or OptimizerConfig()

    def fit(
        self,
        model: EmbeddingModel,
        cascades: Union[CascadeSet, CompiledCorpus],
        workspace: Optional[GradientWorkspace] = None,
    ) -> FitResult:
        """Optimize *model* in place on *cascades*.

        Parameters
        ----------
        model:
            Updated in place.
        cascades:
            Training corpus (already split into sub-cascades when running
            per community).  A pre-built :class:`CompiledCorpus` is
            accepted directly — the parallel engine's zero-copy path
            compiles worker-side from the shared-memory arena (and caches
            the result), so re-compiling here would waste the savings.
        workspace:
            Optional :class:`GradientWorkspace` reused across iterations
            (and, by long-lived callers such as the parallel workers,
            across fits).  Supplies every kernel buffer plus the
            candidate arrays of the step loop; results are bit-identical
            with or without it.

        Returns
        -------
        FitResult
        """
        cfg = self.config
        n = model.n_nodes
        if isinstance(cascades, CompiledCorpus):
            if cascades.n_infections and int(cascades.nodes.max()) >= n:
                raise ValueError(
                    f"compiled corpus references node {int(cascades.nodes.max())} "
                    f"but model has {n} rows"
                )
        elif cascades.n_nodes > n:
            raise ValueError(
                f"cascades cover {cascades.n_nodes} nodes but model has {n} rows"
            )

        # Cascade structure is static across iterations: compile once,
        # evaluate each pass with a fixed number of vectorized NumPy ops.
        if isinstance(cascades, CompiledCorpus):
            corpus = cascades
        else:
            corpus = CompiledCorpus.from_cascades(cascades)
        if workspace is None:
            workspace = GradientWorkspace()
        # Two gradient pairs: (gradA, gradB) holds the gradients at the
        # model; an accepted candidate's backward sweep fills
        # (nextA, nextB), and the pairs swap with the model arrays.
        gradA = np.zeros_like(model.A)
        gradB = np.zeros_like(model.B)
        nextA = np.zeros_like(model.A)
        nextB = np.zeros_like(model.B)
        result = FitResult()
        lr = cfg.learning_rate
        best_ll = self._objective(model.A, model.B, corpus, workspace)
        self._gradients(model.A, model.B, corpus, gradA, gradB, workspace)
        if not self._all_finite(best_ll, gradA, gradB):
            raise NumericalDivergenceError(
                "objective or gradients non-finite at the starting point; "
                "nothing to retract to — check initial embeddings and eps"
            )
        result.history.append(best_ll)
        stall = 0
        nonfinite_streak = 0

        # The step loop ping-pongs between the model's arrays and a pair
        # of candidate buffers: the candidate point is built out of place,
        # so a rejected step retracts by simply not swapping — no
        # per-iteration prevA/prevB copies.  The model may therefore
        # temporarily point at workspace-owned arrays; the finally block
        # restores the original array *objects* (copying values back) so
        # callers that alias model.A/model.B — the parallel engine's
        # shared-memory blocks in particular — always see the result in
        # the arrays they handed in.
        origA, origB = model.A, model.B
        candA, candB = workspace.model_candidates(n, model.n_topics)
        try:
            for it in range(cfg.max_iters):
                np.multiply(gradA, lr, out=candA)
                candA += model.A
                np.multiply(gradB, lr, out=candB)
                candB += model.B
                np.maximum(candA, 0.0, out=candA)
                np.maximum(candB, 0.0, out=candB)

                ll = self._objective(candA, candB, corpus, workspace)
                result.n_iters = it + 1
                finite = bool(np.isfinite(ll))

                if finite and ll < best_ll - abs(best_ll) * 1e-12:
                    # Reject: keep the model where it was, shrink step.
                    # (gradA, gradB) still hold the model's gradients.
                    nonfinite_streak = 0
                    lr *= cfg.step_decay
                    if lr < cfg.min_step:
                        result.converged = True
                        result.reason = "step size underflow"
                        break
                    continue

                if finite:
                    self._gradients(
                        candA, candB, corpus, nextA, nextB, workspace
                    )
                    finite = self._all_finite(ll, nextA, nextB)
                if not finite:
                    # The step left the finite region (overflowed rates,
                    # nan gradients).  Treat like a rejected step — the
                    # model never moved, so just halve — but track the
                    # streak: if halving cannot recover, the fit is
                    # numerically dead and the caller must not trust the
                    # iterate.
                    lr *= cfg.step_decay
                    nonfinite_streak += 1
                    if nonfinite_streak > cfg.max_nonfinite_retries:
                        raise NumericalDivergenceError(
                            f"objective/gradients non-finite for "
                            f"{nonfinite_streak} consecutive steps at "
                            f"iteration {it + 1}; aborting"
                        )
                    if lr < cfg.min_step:
                        raise NumericalDivergenceError(
                            f"step size underflowed ({lr:.3e}) while "
                            f"retreating from a non-finite region at "
                            f"iteration {it + 1}"
                        )
                    continue
                nonfinite_streak = 0

                # Accept: the candidate becomes the model and its
                # gradients the current pair; the displaced arrays become
                # the next candidate and gradient buffers.
                model.A, candA = candA, model.A
                model.B, candB = candB, model.B
                gradA, nextA = nextA, gradA
                gradB, nextB = nextB, gradB
                result.history.append(ll)
                improvement = ll - best_ll
                rel = improvement / max(abs(best_ll), 1.0)
                if rel < cfg.tol:
                    stall += 1
                    if stall >= cfg.patience:
                        result.converged = True
                        result.reason = "log-likelihood plateau"
                        break
                else:
                    stall = 0
                best_ll = max(best_ll, ll)
            else:
                result.reason = "max iterations"
        finally:
            if model.A is not origA:
                origA[:] = model.A
                model.A = origA
            if model.B is not origB:
                origB[:] = model.B
                model.B = origB
            # The displaced buffers may be the caller's arrays after an
            # odd number of swaps; drop them so a later fit through the
            # same workspace cannot scribble over a finished model.
            workspace.release_candidates()

        return result

    @staticmethod
    def _all_finite(ll: float, gradA: np.ndarray, gradB: np.ndarray) -> bool:
        """True when the objective and both gradient blocks are finite."""
        return (
            bool(np.isfinite(ll))
            and bool(np.all(np.isfinite(gradA)))
            and bool(np.all(np.isfinite(gradB)))
        )

    def _objective(
        self,
        A: np.ndarray,
        B: np.ndarray,
        corpus: CompiledCorpus,
        workspace: GradientWorkspace,
    ) -> float:
        """The (optionally ridge-penalized) objective at (*A*, *B*): the
        kernel's forward sweep, whose intermediates stay in *workspace*
        for :meth:`_gradients`.

        Takes the evaluation point as raw arrays (not a model) because the
        step loop evaluates candidate points that are not yet the model.
        Returns what the update actually ascends, so the step
        accept/reject logic tracks it.
        """
        cfg = self.config
        ll = forward_sweep(A, B, corpus, workspace, eps=cfg.eps)
        if cfg.l2 > 0.0:
            ll -= 0.5 * cfg.l2 * (
                float(np.sum(A**2)) + float(np.sum(B**2))
            )
        return ll

    def _gradients(
        self,
        A: np.ndarray,
        B: np.ndarray,
        corpus: CompiledCorpus,
        gradA: np.ndarray,
        gradB: np.ndarray,
        workspace: GradientWorkspace,
    ) -> None:
        """Gradients at the point :meth:`_objective` just evaluated (Alg. 1
        lines 14–21): zero the accumulators, run the backward sweep, and
        add the ridge term."""
        gradA.fill(0.0)
        gradB.fill(0.0)
        backward_sweep(corpus, gradA, gradB, workspace)
        l2 = self.config.l2
        if l2 > 0.0:
            gradA -= l2 * A
            gradB -= l2 * B
