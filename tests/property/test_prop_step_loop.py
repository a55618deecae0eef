"""Property: the optimizer's step loop equals the two-pass reference loop.

``ProjectedGradientAscent.fit`` evaluates a candidate with the kernel's
forward sweep only, runs the backward sweep only for a step it accepts,
and keeps the retained point's gradients across a rejection.
:func:`reference_fit` below is the loop it replaced: a full
``corpus_gradients`` pass at every candidate and, after every rejection,
a second full pass that recomputes the gradients at the retained point.
Both must produce the same bytes of A and B and the same ``history``,
``n_iters``, ``reason`` and ``converged``.

The draws aim at the paths where the two loops could part: tie-heavy and
ties-free corpora, learning rates large enough to force long runs of
rejections and step-size underflow, the ridge term, and models whose A
rows are zero (the warm-started merged-level regime, where every
candidate is rejected).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cascades.types import Cascade, CascadeSet
from repro.embedding.compiled import (
    CompiledCorpus,
    GradientWorkspace,
    corpus_gradients,
)
from repro.embedding.model import EmbeddingModel
from repro.embedding.optimizer import (
    FitResult,
    NumericalDivergenceError,
    OptimizerConfig,
    ProjectedGradientAscent,
)

N_NODES = 10


def _loglik_and_grads(cfg, A, B, corpus, gradA, gradB, ws):
    gradA.fill(0.0)
    gradB.fill(0.0)
    ll = corpus_gradients(A, B, corpus, gradA, gradB, eps=cfg.eps, workspace=ws)
    if cfg.l2 > 0.0:
        gradA -= cfg.l2 * A
        gradB -= cfg.l2 * B
        ll -= 0.5 * cfg.l2 * (float(np.sum(A**2)) + float(np.sum(B**2)))
    return ll


def _all_finite(ll, gradA, gradB):
    return (
        bool(np.isfinite(ll))
        and bool(np.all(np.isfinite(gradA)))
        and bool(np.all(np.isfinite(gradB)))
    )


def reference_fit(cfg, model, corpus):
    """The two-full-pass step loop, kept as the oracle."""
    ws = GradientWorkspace()
    A, B = model.A, model.B
    gradA, gradB = np.zeros_like(A), np.zeros_like(B)
    result = FitResult()
    lr = cfg.learning_rate
    best_ll = _loglik_and_grads(cfg, A, B, corpus, gradA, gradB, ws)
    if not _all_finite(best_ll, gradA, gradB):
        raise NumericalDivergenceError("starting point")
    result.history.append(best_ll)
    stall = nonfinite_streak = 0
    for it in range(cfg.max_iters):
        candA = np.maximum(gradA * lr + A, 0.0)
        candB = np.maximum(gradB * lr + B, 0.0)
        ll = _loglik_and_grads(cfg, candA, candB, corpus, gradA, gradB, ws)
        result.n_iters = it + 1
        if not _all_finite(ll, gradA, gradB):
            lr *= cfg.step_decay
            nonfinite_streak += 1
            if nonfinite_streak > cfg.max_nonfinite_retries:
                raise NumericalDivergenceError("consecutive")
            if lr < cfg.min_step:
                raise NumericalDivergenceError("underflowed")
            _loglik_and_grads(cfg, A, B, corpus, gradA, gradB, ws)
            continue
        nonfinite_streak = 0
        if ll < best_ll - abs(best_ll) * 1e-12:
            lr *= cfg.step_decay
            if lr < cfg.min_step:
                result.converged = True
                result.reason = "step size underflow"
                break
            _loglik_and_grads(cfg, A, B, corpus, gradA, gradB, ws)
            continue
        A, B = candA, candB
        result.history.append(ll)
        rel = (ll - best_ll) / max(abs(best_ll), 1.0)
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
    model.A[:] = A
    model.B[:] = B
    return result


@st.composite
def corpus_strategy(draw):
    ties = draw(st.booleans())
    cascades = []
    for _ in range(draw(st.integers(min_value=1, max_value=8))):
        size = draw(st.integers(min_value=2, max_value=N_NODES))
        order = draw(st.permutations(list(range(N_NODES))))
        if ties:
            times = draw(
                st.lists(
                    st.sampled_from([0.0, 0.25, 0.5, 1.0]),
                    min_size=size, max_size=size,
                )
            )
        else:
            times = draw(
                st.lists(
                    st.floats(min_value=0.0, max_value=2.0),
                    min_size=size, max_size=size, unique=True,
                )
            )
        cascades.append(Cascade(list(order[:size]), sorted(times)))
    return CompiledCorpus.from_cascades(CascadeSet(N_NODES, cascades))


@st.composite
def case_strategy(draw):
    corpus = draw(corpus_strategy())
    k = draw(st.integers(min_value=1, max_value=5))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    A = rng.uniform(0.0, 1.0, size=(N_NODES, k))
    B = rng.uniform(0.0, 1.0, size=(N_NODES, k))
    if draw(st.booleans()):
        A[rng.random(N_NODES) < 0.5] = 0.0  # merged-level regime
    cfg = OptimizerConfig(
        learning_rate=draw(st.floats(min_value=0.05, max_value=50.0)),
        max_iters=draw(st.integers(min_value=1, max_value=60)),
        l2=draw(st.sampled_from([0.0, 0.1])),
    )
    return corpus, A, B, cfg


def _outcome(fit):
    try:
        return fit(), None
    except NumericalDivergenceError as exc:
        return None, type(exc)


@given(case_strategy())
@settings(max_examples=150, deadline=None)
def test_fit_equals_reference_loop(case):
    corpus, A, B, cfg = case
    m_ref = EmbeddingModel(A.copy(), B.copy())
    m_new = EmbeddingModel(A.copy(), B.copy())
    ref, ref_exc = _outcome(lambda: reference_fit(cfg, m_ref, corpus))
    new, new_exc = _outcome(lambda: ProjectedGradientAscent(cfg).fit(m_new, corpus))
    assert ref_exc == new_exc
    if ref is not None:
        assert new.history == ref.history
        assert new.n_iters == ref.n_iters
        assert new.reason == ref.reason
        assert new.converged == ref.converged
        assert m_new.A.tobytes() == m_ref.A.tobytes()
        assert m_new.B.tobytes() == m_ref.B.tobytes()
