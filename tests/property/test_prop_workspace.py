"""Property tests: workspace-backed kernel bit-identity.

Three evaluation paths of the same gradients must agree *bitwise*:

* the compiled kernel with a persistent, shared :class:`GradientWorkspace`
  (buffers recycled across examples of wildly different shapes);
* the compiled kernel with fresh allocations (``workspace=None``);
* on single-cascade corpora, the per-cascade two-sweep oracle
  :func:`accumulate_gradients`.

One module-level workspace is deliberately reused across every
hypothesis example — each example then runs against buffers full of the
previous example's data, which is exactly the steady-state the optimizer
puts the workspace in.  Any read of stale memory shows up as a bitwise
mismatch against the fresh-allocation run.
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
from repro.embedding.gradients import accumulate_gradients
from repro.embedding.model import EmbeddingModel

N_NODES = 8

#: shared across all examples — see module docstring
WS = GradientWorkspace()


@st.composite
def model_strategy(draw, n_topics=None):
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    k = n_topics or draw(st.integers(min_value=1, max_value=4))
    rng = np.random.default_rng(seed)
    A = rng.uniform(0.05, 1.5, size=(N_NODES, k))
    B = rng.uniform(0.05, 1.5, size=(N_NODES, k))
    return EmbeddingModel(A, B)


@st.composite
def cascade_strategy(draw):
    size = draw(st.integers(min_value=0, max_value=N_NODES))
    nodes = draw(st.permutations(list(range(N_NODES))).map(lambda p: p[:size]))
    # coarse time grid induces frequent ties (tie-heavy inputs are where
    # starts/ends gathers differ from the ties-free fast path)
    times = draw(
        st.lists(
            st.sampled_from([0.0, 0.25, 0.5, 1.0]),
            min_size=size,
            max_size=size,
        )
    )
    return Cascade(list(nodes), times)


class TestWorkspaceBitIdentity:
    @given(model_strategy(), st.lists(cascade_strategy(), max_size=5))
    @settings(max_examples=60)
    def test_workspace_equals_fresh(self, model, cascades):
        # Covers empty corpora, all-size-<2 corpora (everything dropped
        # at compile), tie-heavy corpora, and node repeats.
        comp = CompiledCorpus.from_cascades(CascadeSet(N_NODES, cascades))
        gA1, gB1 = np.zeros_like(model.A), np.zeros_like(model.B)
        gA2, gB2 = np.zeros_like(model.A), np.zeros_like(model.B)
        ll_ws = corpus_gradients(
            model.A, model.B, comp, gA1, gB1, workspace=WS
        )
        ll_fresh = corpus_gradients(model.A, model.B, comp, gA2, gB2)
        assert ll_ws == ll_fresh
        assert np.array_equal(gA1, gA2)
        assert np.array_equal(gB1, gB2)

    @given(model_strategy(), cascade_strategy())
    @settings(max_examples=60)
    def test_single_cascade_trio(self, model, cascade):
        # On one cascade there is no cross-cascade summation-order
        # question: oracle, fresh kernel and workspace kernel must agree
        # to the last bit.
        gA0, gB0 = np.zeros_like(model.A), np.zeros_like(model.B)
        ll0 = accumulate_gradients(model.A, model.B, cascade, gA0, gB0)
        comp = CompiledCorpus.from_cascades([cascade])
        gA1, gB1 = np.zeros_like(model.A), np.zeros_like(model.B)
        gA2, gB2 = np.zeros_like(model.A), np.zeros_like(model.B)
        ll1 = corpus_gradients(model.A, model.B, comp, gA1, gB1)
        ll2 = corpus_gradients(
            model.A, model.B, comp, gA2, gB2, workspace=WS
        )
        assert ll0 == ll1 == ll2
        assert np.array_equal(gA0, gA1) and np.array_equal(gA1, gA2)
        assert np.array_equal(gB0, gB1) and np.array_equal(gB1, gB2)
