"""Immutable CSR directed weighted graph.

The representation is two parallel CSR structures (out-adjacency and
in-adjacency) built once at construction.  All hot loops downstream
(cascade simulation, SLPA, co-occurrence scans) slice contiguous NumPy
views out of these arrays — no Python-level adjacency dicts.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, Sequence, Tuple

import numpy as np

__all__ = ["Graph"]


class Graph:
    """A directed weighted graph over nodes ``0 .. n_nodes-1`` in CSR form.

    Parameters
    ----------
    n_nodes:
        Number of nodes.  Node ids are dense integers.
    src, dst:
        Parallel integer arrays of edge endpoints.  Duplicate edges are
        merged by *summing* their weights; self-loops are rejected.
    weight:
        Optional parallel float array of edge weights (default all 1.0).
        Merged weights must be finite: NaN and ±inf raise ``ValueError``.

    Notes
    -----
    The class is immutable: all mutation produces a new ``Graph``.  Methods
    returning neighbor arrays return *views* into the CSR storage; callers
    must not write to them.
    """

    __slots__ = (
        "n_nodes",
        "n_edges",
        "_out_indptr",
        "_out_indices",
        "_out_weights",
        "_in_indptr",
        "_in_indices",
        "_in_weights",
    )

    def __init__(
        self,
        n_nodes: int,
        src: Sequence[int],
        dst: Sequence[int],
        weight: Optional[Sequence[float]] = None,
    ) -> None:
        if n_nodes < 0:
            raise ValueError(f"n_nodes must be >= 0, got {n_nodes}")
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        if src.shape != dst.shape or src.ndim != 1:
            raise ValueError("src and dst must be 1-D arrays of equal length")
        if weight is None:
            w = np.ones(src.size, dtype=np.float64)
        else:
            w = np.asarray(weight, dtype=np.float64)
            if w.shape != src.shape:
                raise ValueError("weight must match src/dst length")
        if src.size:
            if src.min() < 0 or src.max() >= n_nodes:
                raise ValueError("src contains node ids outside [0, n_nodes)")
            if dst.min() < 0 or dst.max() >= n_nodes:
                raise ValueError("dst contains node ids outside [0, n_nodes)")
            if np.any(src == dst):
                raise ValueError("self-loops are not allowed")

        # Merge duplicates by (src, dst) key, summing weights.
        if src.size:
            key = src * n_nodes + dst
            order = np.argsort(key, kind="stable")
            key_sorted = key[order]
            w_sorted = w[order]
            uniq_mask = np.empty(key_sorted.size, dtype=bool)
            uniq_mask[0] = True
            np.not_equal(key_sorted[1:], key_sorted[:-1], out=uniq_mask[1:])
            group_id = np.cumsum(uniq_mask) - 1
            n_uniq = int(group_id[-1]) + 1
            w_merged = np.zeros(n_uniq, dtype=np.float64)
            np.add.at(w_merged, group_id, w_sorted)
            key_uniq = key_sorted[uniq_mask]
            src = key_uniq // n_nodes
            dst = key_uniq % n_nodes
            w = w_merged
        # Checked after merging: duplicates summing past the float range
        # are rejected too.  A NaN vote has no maximum (SLPA, Louvain).
        if not np.all(np.isfinite(w)):
            raise ValueError("edge weights must be finite")
        self.n_nodes = int(n_nodes)
        self.n_edges = int(src.size)

        self._out_indptr, self._out_indices, self._out_weights = _build_csr(
            n_nodes, src, dst, w
        )
        self._in_indptr, self._in_indices, self._in_weights = _build_csr(
            n_nodes, dst, src, w
        )

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #

    @classmethod
    def from_edges(
        cls,
        edges: Iterable[Tuple[int, int]] | Iterable[Tuple[int, int, float]],
        n_nodes: Optional[int] = None,
    ) -> "Graph":
        """Build a graph from an iterable of ``(u, v)`` or ``(u, v, w)``.

        If *n_nodes* is omitted it is inferred as ``max id + 1``.
        """
        edges = list(edges)
        if not edges:
            return cls(n_nodes or 0, [], [])
        first = edges[0]
        if len(first) == 3:
            src, dst, w = zip(*edges)
        else:
            src, dst = zip(*edges)
            w = None
        if n_nodes is None:
            n_nodes = int(max(max(src), max(dst))) + 1
        return cls(n_nodes, src, dst, w)

    @classmethod
    def empty(cls, n_nodes: int) -> "Graph":
        """Graph with *n_nodes* nodes and no edges."""
        return cls(n_nodes, [], [])

    # ------------------------------------------------------------------ #
    # Accessors
    # ------------------------------------------------------------------ #

    def successors(self, u: int) -> np.ndarray:
        """Out-neighbors of *u* (read-only view, ascending order)."""
        return self._out_indices[self._out_indptr[u] : self._out_indptr[u + 1]]

    def successor_weights(self, u: int) -> np.ndarray:
        """Weights parallel to :meth:`successors`."""
        return self._out_weights[self._out_indptr[u] : self._out_indptr[u + 1]]

    def predecessors(self, v: int) -> np.ndarray:
        """In-neighbors of *v* (read-only view, ascending order)."""
        return self._in_indices[self._in_indptr[v] : self._in_indptr[v + 1]]

    def predecessor_weights(self, v: int) -> np.ndarray:
        """Weights parallel to :meth:`predecessors`."""
        return self._in_weights[self._in_indptr[v] : self._in_indptr[v + 1]]

    def out_degree(self, u: Optional[int] = None):
        """Out-degree of *u*, or the full out-degree array when ``u is None``."""
        if u is None:
            return np.diff(self._out_indptr)
        return int(self._out_indptr[u + 1] - self._out_indptr[u])

    def in_degree(self, v: Optional[int] = None):
        """In-degree of *v*, or the full in-degree array when ``v is None``."""
        if v is None:
            return np.diff(self._in_indptr)
        return int(self._in_indptr[v + 1] - self._in_indptr[v])

    def has_edge(self, u: int, v: int) -> bool:
        """True iff the directed edge ``u -> v`` exists."""
        nbrs = self.successors(u)
        i = np.searchsorted(nbrs, v)
        return bool(i < nbrs.size and nbrs[i] == v)

    def edge_weight(self, u: int, v: int) -> float:
        """Weight of edge ``u -> v``; raises ``KeyError`` if absent."""
        nbrs = self.successors(u)
        i = np.searchsorted(nbrs, v)
        if i < nbrs.size and nbrs[i] == v:
            return float(self.successor_weights(u)[i])
        raise KeyError(f"edge ({u}, {v}) not in graph")

    def edges(self) -> Iterator[Tuple[int, int, float]]:
        """Iterate over ``(u, v, weight)`` triples in CSR order."""
        for u in range(self.n_nodes):
            lo, hi = self._out_indptr[u], self._out_indptr[u + 1]
            for j in range(lo, hi):
                yield u, int(self._out_indices[j]), float(self._out_weights[j])

    def edge_arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return ``(src, dst, weight)`` arrays covering all edges."""
        src = np.repeat(np.arange(self.n_nodes), np.diff(self._out_indptr))
        return src, self._out_indices.copy(), self._out_weights.copy()

    # ------------------------------------------------------------------ #
    # Derived graphs
    # ------------------------------------------------------------------ #

    def reverse(self) -> "Graph":
        """Graph with every edge direction flipped."""
        src, dst, w = self.edge_arrays()
        return Graph(self.n_nodes, dst, src, w)

    def subgraph(self, nodes: Sequence[int]) -> Tuple["Graph", np.ndarray]:
        """Induced subgraph on *nodes*.

        Returns ``(sub, mapping)`` where ``mapping[i]`` is the original id of
        the subgraph node ``i``.  Node ids in the subgraph are relabeled to
        ``0 .. len(nodes)-1`` following the order of *nodes*.
        """
        nodes = np.asarray(nodes, dtype=np.int64)
        if nodes.size != np.unique(nodes).size:
            raise ValueError("nodes must be unique")
        local = np.full(self.n_nodes, -1, dtype=np.int64)
        local[nodes] = np.arange(nodes.size)
        src, dst, w = self.edge_arrays()
        keep = (local[src] >= 0) & (local[dst] >= 0)
        return (
            Graph(nodes.size, local[src[keep]], local[dst[keep]], w[keep]),
            nodes,
        )

    def filter_edges(self, min_weight: float) -> "Graph":
        """Keep only edges with ``weight >= min_weight`` (the Fig. 2 backbone
        construction: pairs co-reporting at least 50 events)."""
        src, dst, w = self.edge_arrays()
        keep = w >= min_weight
        return Graph(self.n_nodes, src[keep], dst[keep], w[keep])

    def to_undirected(self) -> "Graph":
        """Symmetrize: weight of {u,v} is the sum of both directed weights,
        materialized as two directed arcs of equal weight."""
        src, dst, w = self.edge_arrays()
        s = np.concatenate([src, dst])
        d = np.concatenate([dst, src])
        ww = np.concatenate([w, w])
        return Graph(self.n_nodes, s, d, ww)

    # ------------------------------------------------------------------ #
    # Dunder
    # ------------------------------------------------------------------ #

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Graph(n_nodes={self.n_nodes}, n_edges={self.n_edges})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            self.n_nodes == other.n_nodes
            and np.array_equal(self._out_indptr, other._out_indptr)
            and np.array_equal(self._out_indices, other._out_indices)
            and np.array_equal(self._out_weights, other._out_weights)
        )

    def __hash__(self) -> int:
        return hash((self.n_nodes, self.n_edges))


def _build_csr(
    n: int, src: np.ndarray, dst: np.ndarray, w: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Build (indptr, indices, weights) sorting neighbors ascending."""
    order = np.lexsort((dst, src))
    src_s, dst_s, w_s = src[order], dst[order], w[order]
    indptr = np.zeros(n + 1, dtype=np.int64)
    counts = np.bincount(src_s, minlength=n)
    np.cumsum(counts, out=indptr[1:])
    indices = np.ascontiguousarray(dst_s)
    weights = np.ascontiguousarray(w_s)
    indices.setflags(write=False)
    weights.setflags(write=False)
    indptr.setflags(write=False)
    return indptr, indices, weights
