"""Sub-cascade splitting by community membership (Alg. 1, lines 1–11).

Each observed cascade is cut into one sub-cascade per community: the
infections of nodes belonging to community *r* form sub-cascade ``c_r``
(order and timestamps preserved).  Cross-community infections are thereby
severed — the deliberate approximation that makes the per-community
likelihoods independent and the parallel scheme conflict-free.  The merge
tree progressively re-introduces the severed pairs as communities fuse.
"""

from __future__ import annotations

from typing import List, NamedTuple, Tuple

import numpy as np

from repro.cascades.types import Cascade, CascadeSet
from repro.community.partition import Partition

__all__ = ["split_cascades", "PositionSplit", "split_positions"]


def split_cascades(
    cascades: CascadeSet,
    partition: Partition,
    min_size: int = 2,
) -> List[CascadeSet]:
    """Split every cascade by community; return one corpus per community.

    Parameters
    ----------
    cascades:
        The observed corpus (global node ids).
    partition:
        Disjoint communities over the same node universe.
    min_size:
        Sub-cascades smaller than this are dropped (a single infection
        carries no likelihood information under Eq. 8).

    Returns
    -------
    list of CascadeSet
        ``result[r]`` holds community *r*'s sub-cascades, still in global
        node ids.
    """
    if partition.n_nodes != cascades.n_nodes:
        raise ValueError("partition and cascades cover different universes")
    member = partition.membership
    out = [CascadeSet(cascades.n_nodes) for _ in range(partition.n_communities)]
    for c in cascades:
        if c.size == 0:
            continue
        comm_of_pos = member[c.nodes]
        for r in np.unique(comm_of_pos):
            mask = comm_of_pos == r
            if int(mask.sum()) >= min_size:
                out[int(r)].append(Cascade(c.nodes[mask], c.times[mask]))
    return out


class PositionSplit(NamedTuple):
    """Index-based result of :func:`split_positions`.

    Attributes
    ----------
    positions:
        Flat-corpus positions of every surviving infection, grouped by
        (community, cascade), time order preserved within each group.
    sub_offsets:
        ``(S+1,)`` boundaries of the *S* surviving sub-cascades inside
        ``positions``.
    group_community:
        ``(S,)`` owning community of each sub-cascade (non-decreasing).
    """

    positions: np.ndarray
    sub_offsets: np.ndarray
    group_community: np.ndarray

    def community_range(self, cid: int) -> Tuple[int, int]:
        """Half-open sub-cascade range ``[lo, hi)`` owned by *cid*."""
        lo = int(np.searchsorted(self.group_community, cid, side="left"))
        hi = int(np.searchsorted(self.group_community, cid, side="right"))
        return lo, hi


def split_positions(
    flat_nodes: np.ndarray,
    offsets: np.ndarray,
    membership: np.ndarray,
    min_size: int = 2,
) -> PositionSplit:
    """Index-based :func:`split_cascades` over a flat CSR corpus.

    Operates on the arena representation — concatenated node ids plus
    per-cascade ``offsets`` — and returns *positions into the flat arrays*
    instead of materialized :class:`Cascade` objects, so the result can be
    published to workers through shared memory with zero per-task pickling.

    The grouping is bit-compatible with the object path: for each
    community, sub-cascades appear in cascade order and infections keep
    their original (time-sorted) order; groups smaller than *min_size* are
    dropped.
    """
    flat_nodes = np.asarray(flat_nodes, dtype=np.int64)
    offsets = np.asarray(offsets, dtype=np.int64)
    membership = np.asarray(membership, dtype=np.int64)
    M = int(flat_nodes.size)
    if M == 0:
        empty = np.empty(0, dtype=np.int64)
        return PositionSplit(empty, np.zeros(1, dtype=np.int64), empty)
    sizes = np.diff(offsets)
    casc_id = np.repeat(np.arange(sizes.size, dtype=np.int64), sizes)
    comm = membership[flat_nodes]
    # Stable sort by (community, cascade); stability preserves the original
    # time order of positions inside each (community, cascade) group.
    order = np.lexsort((casc_id, comm)).astype(np.int64)
    s_comm = comm[order]
    s_casc = casc_id[order]
    new_group = np.empty(M, dtype=bool)
    new_group[0] = True
    new_group[1:] = (s_comm[1:] != s_comm[:-1]) | (s_casc[1:] != s_casc[:-1])
    group_starts = np.flatnonzero(new_group)
    group_ends = np.append(group_starts[1:], M)
    keep = (group_ends - group_starts) >= min_size
    group_starts = group_starts[keep]
    group_ends = group_ends[keep]
    if group_starts.size == 0:
        empty = np.empty(0, dtype=np.int64)
        return PositionSplit(empty, np.zeros(1, dtype=np.int64), empty)
    kept_sizes = group_ends - group_starts
    pos_mask = np.zeros(M + 1, dtype=np.int64)
    # Group boundaries are strictly increasing, so each index set is
    # duplicate-free and plain fancy indexing accumulates correctly.
    pos_mask[group_starts] += 1
    pos_mask[group_ends] -= 1
    inside = np.cumsum(pos_mask[:-1]) > 0
    positions = order[inside]
    sub_offsets = np.zeros(kept_sizes.size + 1, dtype=np.int64)
    np.cumsum(kept_sizes, out=sub_offsets[1:])
    group_community = s_comm[group_starts]
    return PositionSplit(positions, sub_offsets, group_community)
