"""Unit tests for the CSR Graph substrate."""

import numpy as np
import pytest

from repro.graphs.graph import Graph


@pytest.fixture
def triangle() -> Graph:
    """0 -> 1 (w=2), 1 -> 2 (w=1), 2 -> 0 (w=3)."""
    return Graph(3, [0, 1, 2], [1, 2, 0], [2.0, 1.0, 3.0])


class TestConstruction:
    def test_basic_counts(self, triangle):
        assert triangle.n_nodes == 3
        assert triangle.n_edges == 3

    def test_empty(self):
        g = Graph.empty(5)
        assert g.n_nodes == 5 and g.n_edges == 0
        assert g.successors(0).size == 0

    def test_duplicate_edges_merge_weights(self):
        g = Graph(2, [0, 0], [1, 1], [1.5, 2.5])
        assert g.n_edges == 1
        assert g.edge_weight(0, 1) == pytest.approx(4.0)

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph(2, [0], [0])

    def test_out_of_range_node(self):
        with pytest.raises(ValueError):
            Graph(2, [0], [2])
        with pytest.raises(ValueError):
            Graph(2, [-1], [0])

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError):
            Graph(3, [0, 1], [1])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_weight_rejected(self, bad):
        with pytest.raises(ValueError, match="edge weights must be finite"):
            Graph(3, [0, 1], [1, 2], [1.0, bad])

    def test_merged_weight_overflow_rejected(self):
        # each weight is finite; the duplicate pair sums to inf
        with np.errstate(over="ignore"), pytest.raises(
            ValueError, match="edge weights must be finite"
        ):
            Graph(2, [0, 0], [1, 1], [1e308, 1e308])

    @pytest.mark.parametrize(
        "src,dst",
        [([0, 1], [1, 2]), ([0, 0, 0], [1, 2, 3])],
        ids=["path", "star"],
    )
    def test_nan_weight_never_reaches_slpa(self, src, dst):
        # The vote's `v == best` matched nothing for a NaN best, so SLPA
        # died with a bare IndexError; the graph now refuses the weight.
        from repro.community.slpa import slpa

        weight = [1.0] * (len(src) - 1) + [np.nan]
        with pytest.raises(ValueError, match="edge weights must be finite"):
            slpa(Graph(max(dst) + 1, src, dst, weight), seed=0)

    def test_default_weights_are_one(self):
        g = Graph(2, [0], [1])
        assert g.edge_weight(0, 1) == 1.0

    def test_from_edges_pairs(self):
        g = Graph.from_edges([(0, 1), (1, 2)])
        assert g.n_nodes == 3 and g.n_edges == 2

    def test_from_edges_triples(self):
        g = Graph.from_edges([(0, 1, 5.0)])
        assert g.edge_weight(0, 1) == 5.0

    def test_from_edges_empty(self):
        g = Graph.from_edges([], n_nodes=4)
        assert g.n_nodes == 4

    def test_negative_n_nodes(self):
        with pytest.raises(ValueError):
            Graph(-1, [], [])


class TestAccessors:
    def test_successors_sorted(self):
        g = Graph(4, [0, 0, 0], [3, 1, 2])
        assert np.array_equal(g.successors(0), [1, 2, 3])

    def test_predecessors(self, triangle):
        assert np.array_equal(triangle.predecessors(0), [2])
        assert triangle.predecessor_weights(0)[0] == 3.0

    def test_degrees(self, triangle):
        assert triangle.out_degree(0) == 1
        assert triangle.in_degree(0) == 1
        assert np.array_equal(triangle.out_degree(), [1, 1, 1])

    def test_has_edge(self, triangle):
        assert triangle.has_edge(0, 1)
        assert not triangle.has_edge(1, 0)

    def test_edge_weight_missing(self, triangle):
        with pytest.raises(KeyError):
            triangle.edge_weight(1, 0)

    def test_edges_iteration(self, triangle):
        edges = sorted(triangle.edges())
        assert edges == [(0, 1, 2.0), (1, 2, 1.0), (2, 0, 3.0)]

    def test_edge_arrays_roundtrip(self, triangle):
        src, dst, w = triangle.edge_arrays()
        g2 = Graph(3, src, dst, w)
        assert g2 == triangle

    def test_views_are_readonly(self, triangle):
        with pytest.raises(ValueError):
            triangle.successors(0)[0] = 9


class TestDerivedGraphs:
    def test_reverse(self, triangle):
        r = triangle.reverse()
        assert r.has_edge(1, 0)
        assert r.edge_weight(1, 0) == 2.0

    def test_reverse_involution(self, triangle):
        assert triangle.reverse().reverse() == triangle

    def test_subgraph(self):
        g = Graph(4, [0, 1, 2], [1, 2, 3])
        sub, mapping = g.subgraph([1, 2])
        assert sub.n_nodes == 2
        assert sub.n_edges == 1
        assert np.array_equal(mapping, [1, 2])
        assert sub.has_edge(0, 1)  # local ids for 1 -> 2

    def test_subgraph_duplicate_nodes_rejected(self):
        g = Graph(3, [0], [1])
        with pytest.raises(ValueError):
            g.subgraph([0, 0])

    def test_filter_edges(self):
        g = Graph(3, [0, 1], [1, 2], [5.0, 1.0])
        f = g.filter_edges(min_weight=2.0)
        assert f.n_edges == 1 and f.has_edge(0, 1)

    def test_to_undirected_symmetric(self, triangle):
        u = triangle.to_undirected()
        for a, b, _ in triangle.edges():
            assert u.has_edge(a, b) and u.has_edge(b, a)

    def test_to_undirected_weight_sum(self):
        g = Graph(2, [0, 1], [1, 0], [1.0, 2.0])
        u = g.to_undirected()
        assert u.edge_weight(0, 1) == 3.0
        assert u.edge_weight(1, 0) == 3.0
