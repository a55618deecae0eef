"""Whole-window SLPA equals the per-listener loop it replaced, bit for bit.

``reference_slpa`` below is the per-listener loop, verbatim: a dict of
weighted votes per listener, a Python ``max`` and a tie-break drawn from
the shared generator.  :func:`repro.community.slpa.slpa` scores whole
windows of listeners with NumPy and speculates past ties and smoothing
flips; it must return the same partition and memberships and leave the
caller's generator in the same state, since callers (``infer_embeddings``,
the training benchmarks) draw their initial embeddings from it next.

The speculation rests on two properties of ``numpy.random.Generator``,
pinned by :class:`TestGeneratorProperties` for every bit generator NumPy
ships, so a NumPy upgrade that breaks either fails here by name.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.community.partition import Partition
from repro.community.slpa import slpa
from repro.graphs.generators import stochastic_block_model
from repro.graphs.graph import Graph
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import check_fraction


def reference_slpa(
    graph: Graph,
    n_iterations: int = 20,
    r: float = 0.1,
    seed: SeedLike = None,
    return_memberships: bool = False,
) -> Partition | Tuple[Partition, List[Dict[int, float]]]:
    if n_iterations < 1:
        raise ValueError("n_iterations must be >= 1")
    check_fraction(r, "r")
    rng = as_generator(seed)
    n = graph.n_nodes
    if n == 0:
        p = Partition(np.empty(0, dtype=np.int64))
        return (p, []) if return_memberships else p

    undirected = graph.to_undirected()
    # Memories: per node, an int array of labels of length (iter+1); we
    # preallocate the full (n, T+1) matrix since memory only ever appends.
    memory = np.empty((n, n_iterations + 1), dtype=np.int64)
    memory[:, 0] = np.arange(n)

    nodes = np.arange(n)
    for it in range(1, n_iterations + 1):
        rng.shuffle(nodes)
        for listener in nodes:
            nbrs = undirected.successors(listener)
            if nbrs.size == 0:
                # No speakers: re-assert own label to keep memory length
                # uniform (self-reinforcement, standard isolated-node rule).
                memory[listener, it] = listener
                continue
            w = undirected.successor_weights(listener)
            # Each speaker utters one label sampled from its memory so far.
            cols = rng.integers(0, it, size=nbrs.size)
            spoken = memory[nbrs, cols]
            # Weighted vote: most popular label wins, random tie-break.
            votes: Dict[int, float] = {}
            for lab, wt in zip(spoken, w):
                votes[int(lab)] = votes.get(int(lab), 0.0) + float(wt)
            best = max(votes.values())
            winners = [lab for lab, v in votes.items() if v == best]
            winner = winners[int(rng.integers(len(winners)))] if len(winners) > 1 else winners[0]
            memory[listener, it] = winner

    # Post-processing: frequency histograms over the post-burn-in memory
    # (the first half of each memory is dominated by the random initial
    # labels and would pollute the argmax), threshold, hard argmax.
    burn_in = (n_iterations + 1) // 2
    memberships: List[Dict[int, float]] = []
    hard = np.empty(n, dtype=np.int64)
    mem_len = n_iterations + 1 - burn_in
    for v in range(n):
        labels, counts = np.unique(memory[v, burn_in:], return_counts=True)
        freq = counts / mem_len
        keep = freq >= r
        if not np.any(keep):  # degenerate: keep the top label anyway
            keep = counts == counts.max()
        labels, freq = labels[keep], freq[keep]
        memberships.append({int(l): float(f) for l, f in zip(labels, freq)})
        hard[v] = labels[int(np.argmax(freq))]

    # Deterministic smoothing: a node whose hard label disagrees with the
    # weighted majority of its neighbourhood adopts the majority label.
    # Two sweeps clean up the stragglers SLPA's memory noise leaves behind
    # without changing genuine community boundaries.
    for _ in range(2):
        changed = False
        for v in range(n):
            nbrs = undirected.successors(v)
            if nbrs.size == 0:
                continue
            w = undirected.successor_weights(v)
            votes: Dict[int, float] = {}
            for lab, wt in zip(hard[nbrs], w):
                votes[int(lab)] = votes.get(int(lab), 0.0) + float(wt)
            best_lab = max(votes, key=lambda k: votes[k])
            if votes[best_lab] > votes.get(int(hard[v]), 0.0) and hard[v] != best_lab:
                hard[v] = best_lab
                changed = True
        if not changed:
            break

    partition = Partition(hard)
    if return_memberships:
        return partition, memberships
    return partition


def _same_state(a, b) -> bool:
    """Equality of two ``bit_generator.state`` dicts (some hold arrays)."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same_state(a[k], b[k]) for k in a)
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    return a == b


WEIGHTINGS = ("unweighted", "three-valued", "continuous")


@st.composite
def slpa_case(draw):
    """A graph and SLPA settings.  Unweighted and three-valued weights tie
    often, in late sweeps too, where a tie restarts a window mid-draw;
    narrow node ranges leave isolated nodes; zero edges leave no arcs."""
    n = draw(st.integers(min_value=1, max_value=119))
    span = draw(st.integers(min_value=1, max_value=n))  # nodes span.. are isolated
    m = draw(st.integers(min_value=0, max_value=4 * n))
    weighting = draw(st.sampled_from(WEIGHTINGS))
    g = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    src = g.integers(0, span, size=m)
    dst = g.integers(0, span, size=m)
    keep = src != dst
    src, dst = src[keep], dst[keep]
    if weighting == "unweighted":
        weight = None
    elif weighting == "three-valued":
        weight = g.choice([0.5, 1.0, 2.0], size=src.size)
    else:
        weight = g.random(src.size)
    graph = Graph(n, src, dst, weight)  # duplicate arcs merge by summing
    n_iterations = draw(st.integers(min_value=1, max_value=25))
    r = draw(st.sampled_from([0.05, 0.1, 0.3, 0.5]))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    return graph, n_iterations, r, seed


def _assert_same_as_reference(graph, n_iterations, r, seed):
    rng_ref = np.random.default_rng(seed)
    rng_new = np.random.default_rng(seed)
    p_ref, mem_ref = reference_slpa(
        graph, n_iterations=n_iterations, r=r, seed=rng_ref, return_memberships=True
    )
    p_new, mem_new = slpa(
        graph, n_iterations=n_iterations, r=r, seed=rng_new, return_memberships=True
    )
    assert np.array_equal(p_new.membership, p_ref.membership)
    assert mem_new == mem_ref
    assert _same_state(rng_new.bit_generator.state, rng_ref.bit_generator.state)


@given(slpa_case())
@settings(max_examples=150, deadline=None)
def test_window_vote_equals_per_listener_loop(case):
    _assert_same_as_reference(*case)


def _star(leaves: int, weight=None) -> Graph:
    """Every leaf hears only the hub; the hub hears *leaves* equal votes
    in sweep 1 and ties every sweep when unweighted."""
    return Graph(leaves + 1, [0] * leaves, list(range(1, leaves + 1)), weight)


@pytest.mark.parametrize(
    "graph",
    [
        Graph.empty(1),
        Graph.empty(5),
        Graph(2, [0], [1]),
        _star(6),
        _star(6, [1.0, 2.0, 2.0, 0.5, 2.0, 1.0]),
        Graph(7, [0, 1, 2, 4], [1, 2, 0, 5]),  # triangle, a pair, isolated 3 and 6
    ],
    ids=["single", "isolated", "pair", "star", "star-weighted", "mixed"],
)
@pytest.mark.parametrize("n_iterations", [1, 2, 20])
def test_small_graphs_equal_loop(graph, n_iterations):
    for seed in range(5):
        _assert_same_as_reference(graph, n_iterations, 0.1, seed)


@example(seed=0)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=10, deadline=None)
def test_tie_dense_sbm_equals_loop(seed):
    """Unweighted dense blocks: ties in nearly every window of every sweep."""
    graph, _ = stochastic_block_model(60, 15, p_in=0.5, p_out=0.02, seed=seed)
    _assert_same_as_reference(graph, 20, 0.1, seed)


BIT_GENERATORS = [np.random.PCG64, np.random.MT19937, np.random.Philox, np.random.SFC64]


class TestGeneratorProperties:
    """The two ``Generator`` properties ``slpa``'s speculation relies on.

    If either fails after a NumPy upgrade, ``slpa`` can no longer rewind a
    window to its first tie and match the per-listener loop: its
    partitions and the generator state it leaves behind would change.
    """

    @pytest.mark.parametrize("bit_generator", BIT_GENERATORS, ids=lambda b: b.__name__)
    @pytest.mark.parametrize("high", [2, 3, 7, 20, 2**31, 2**33])
    def test_bounded_draws_concatenate(self, bit_generator, high):
        for a, b in [(1, 1), (3, 5), (0, 4), (7, 0), (5, 6), (13, 21)]:
            split = np.random.Generator(bit_generator(12345))
            whole = np.random.Generator(bit_generator(12345))
            # an odd scalar draw first leaves half a 64-bit word buffered
            split.integers(5)
            whole.integers(5)
            parts = np.concatenate(
                [split.integers(0, high, size=a), split.integers(0, high, size=b)]
            )
            joined = whole.integers(0, high, size=a + b)
            assert np.array_equal(parts, joined) and _same_state(
                split.bit_generator.state, whole.bit_generator.state
            ), (
                f"slpa relies on integers(0, {high}, size={a}) then size={b} "
                f"equalling size={a + b} on {bit_generator.__name__}; "
                "this NumPy breaks it, so slpa's window speculation is unsound"
            )

    @pytest.mark.parametrize("bit_generator", BIT_GENERATORS, ids=lambda b: b.__name__)
    def test_zero_width_draw_consumes_nothing(self, bit_generator):
        rng = np.random.Generator(bit_generator(6789))
        rng.integers(5)
        before = rng.bit_generator.state
        values = rng.integers(0, 1, size=1000)
        assert not values.any()
        assert _same_state(rng.bit_generator.state, before), (
            f"slpa relies on integers(0, 1, size=n) consuming nothing on "
            f"{bit_generator.__name__} (its first sweep); this NumPy breaks it"
        )
