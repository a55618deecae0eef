"""Speaker-Listener Label Propagation Algorithm (SLPA).

Reimplementation of Xie, Szymanski & Liu (ICDMW 2011), the community
detector the paper runs on the frequent co-occurrence graph (§IV-B).

Dynamics: every node keeps a *memory* (multiset of labels, initialized with
its own id).  In each of *n_iterations* rounds, nodes take the listener role
in random order; each neighbor (speaker) utters one label sampled from its
memory proportionally to frequency; the listener adopts the label with the
largest *weighted* popularity among utterances (edge weights scale votes)
and appends it to its memory.

Post-processing: labels whose memory frequency falls below the threshold
*r* are dropped; the algorithm natively yields *overlapping* communities,
but the paper's parallel scheme needs disjoint blocks, so
:func:`slpa` returns the argmax-label hard partition by default (set
``return_memberships=True`` to also get per-node label histograms).

Nodes with no neighbors keep their own label and end up in singleton
communities.

Whole-window voting
-------------------
The result is defined by the per-listener loop: listeners in shuffled
order, each drawing ``rng.integers(0, it, size=degree)`` memory columns,
summing its votes per label in arc order, and breaking a tie among its
maxima with ``rng.integers(n_winners)`` (winners in first-appearance
order).  Two smoothing sweeps then visit the nodes in id order and move
a node to the first-appearing weighted-majority label of its
neighbourhood when that beats its own.  The code computes exactly that,
bit for bit, but scores a *window* of consecutive listeners at a time
with a fixed number of NumPy calls (:class:`_Tally`): one draw for the
window's arcs, one stable sort of the (listener, label) keys, one
``np.bincount`` for the group sums (a left fold from 0.0 in arc order,
the float sums the loop makes) and segment reductions for each
listener's maximum and its first-appearing maximal label.

The loop has two sequential dependencies.  A tied listener draws its
tie-break from the shared generator before the next listener draws its
columns, and a smoothing flip is seen by the nodes after it.  Both are
kept exact by speculation: a window commits up to its first tie (or
flip).  For a tie it restores the generator state saved at the window's
start, redraws the committed prefix's columns, draws the tie-break, and
resumes after that listener.  The next window shrinks to the number of
listeners that window committed and doubles after every clean window,
so a tie costs at most one window of about twice the gap since the
previous event, never a re-evaluation of the rest of the sweep.  Where
most listeners tie (sparse unweighted graphs) this restarts at almost
every listener and is slower than the loop; every caller passes a
weighted co-occurrence or co-report-count graph, where it is faster
(DESIGN.md §18).

Speculation rests on two properties of ``numpy.random.Generator``,
pinned by ``tests/property/test_prop_slpa.py``: bounded draws of one
range concatenate (``integers(0, k, size=a)`` then ``size=b`` yields the
values and end state of ``size=a+b``), and a zero-width range, as in the
first sweep, consumes nothing.  With both, the partition, the
memberships and the generator's end state equal the loop's.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.community.partition import Partition
from repro.graphs.graph import Graph
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import check_fraction

__all__ = ["slpa"]

#: listeners in the first window of a sweep
_FIRST_WINDOW = 32


def slpa(
    graph: Graph,
    n_iterations: int = 20,
    r: float = 0.1,
    seed: SeedLike = None,
    return_memberships: bool = False,
) -> Partition | Tuple[Partition, List[Dict[int, float]]]:
    """Run SLPA on *graph* and return a hard :class:`Partition`.

    Parameters
    ----------
    graph:
        Directed weighted graph; speaking/listening follows the symmetrized
        neighborhood (union of in- and out-neighbors, weights summed), as
        community structure is an undirected notion here.
    n_iterations:
        Number of listener sweeps (paper default regimes use ~20; memory
        length becomes ``n_iterations + 1``).
    r:
        Post-processing frequency threshold in (0, 1); labels rarer than
        *r* in a node's memory are discarded before the argmax.
    seed:
        RNG seed for the stochastic dynamics.
    return_memberships:
        If true, also return per-node ``{label: frequency}`` dicts (the
        overlapping-community view).

    Returns
    -------
    Partition, or (Partition, memberships) when *return_memberships*.
    """
    if n_iterations < 1:
        raise ValueError("n_iterations must be >= 1")
    check_fraction(r, "r")
    rng = as_generator(seed)
    n = graph.n_nodes
    if n == 0:
        p = Partition(np.empty(0, dtype=np.int64))
        return (p, []) if return_memberships else p

    undirected = graph.to_undirected()
    _, nbr, weight = undirected.edge_arrays()
    deg = undirected.out_degree()
    indptr = np.concatenate(([0], np.cumsum(deg)))
    # Memories: per node, an int array of labels of length (iter+1); we
    # preallocate the full (n, T+1) matrix since memory only ever appends.
    # A node with no speakers re-asserts its own label every sweep
    # (self-reinforcement, standard isolated-node rule), so every column
    # starts as the node's id and the sweeps overwrite the listeners'.
    memory = np.empty((n, n_iterations + 1), dtype=np.int64)
    memory[:] = np.arange(n)[:, None]

    nodes = np.arange(n)
    for it in range(1, n_iterations + 1):
        rng.shuffle(nodes)
        listeners = nodes[deg[nodes] > 0]
        speakers, w, bounds = _runs(listeners, indptr, nbr, weight)
        start, width = 0, _FIRST_WINDOW
        while start < listeners.size:
            stop = min(start + width, listeners.size)
            lo, hi = bounds[start], bounds[stop]
            saved = rng.bit_generator.state
            # Each speaker utters one label sampled from its memory so far.
            cols = rng.integers(0, it, size=hi - lo)
            spoken = memory[speakers[lo:hi], cols]
            votes = _Tally(n, bounds[start : stop + 1] - lo, spoken, w[lo:hi])
            tied = np.flatnonzero(votes.n_top > 1)
            if tied.size == 0:
                memory[listeners[start:stop], it] = spoken[votes.first_top]
                start, width = stop, 2 * width
                continue
            # Most popular label wins, random tie-break.  The loop draws the
            # tie-break after the tied listener's columns and before the
            # next listener's: commit up to the tie and rewind the
            # generator to just after its columns.
            t = int(tied[0])
            memory[listeners[start : start + t], it] = spoken[votes.first_top[:t]]
            drawn = bounds[start + t + 1] - lo
            if drawn < hi - lo:
                rng.bit_generator.state = saved
                rng.integers(0, it, size=drawn)
            winners = votes.top_labels(t)
            memory[listeners[start + t], it] = winners[int(rng.integers(len(winners)))]
            start, width = start + t + 1, t + 1

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
    # without changing genuine community boundaries.  A flip is seen by
    # the nodes after it, so a window ends at its first flip.
    voters = np.flatnonzero(deg > 0)
    speakers, w, bounds = _runs(voters, indptr, nbr, weight)
    for _ in range(2):
        changed = False
        start, width = 0, _FIRST_WINDOW
        while start < voters.size:
            stop = min(start + width, voters.size)
            lo, hi = bounds[start], bounds[stop]
            spoken = hard[speakers[lo:hi]]
            votes = _Tally(n, bounds[start : stop + 1] - lo, spoken, w[lo:hi])
            own = votes.label_total(hard[voters[start:stop]])
            flips = np.flatnonzero(votes.best > own)
            if flips.size == 0:
                start, width = stop, 2 * width
                continue
            f = int(flips[0])
            hard[voters[start + f]] = spoken[votes.first_top[f]]
            changed = True
            start, width = start + f + 1, f + 1
        if not changed:
            break

    partition = Partition(hard)
    if return_memberships:
        return partition, memberships
    return partition


def _runs(
    listeners: np.ndarray, indptr: np.ndarray, nbr: np.ndarray, weight: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Speakers and weights of *listeners*' arcs, listener after listener,
    and the bounds of listener *i*'s run, ``bounds[i]:bounds[i + 1]``."""
    d = indptr[listeners + 1] - indptr[listeners]
    bounds = np.concatenate(([0], np.cumsum(d)))
    arcs = np.arange(bounds[-1]) + np.repeat(indptr[listeners] - bounds[:-1], d)
    return nbr[arcs], weight[arcs], bounds


class _Tally:
    """Weighted votes of a window of listeners, grouped by (listener, label).

    Listener *i* heard ``spoken[bounds[i]:bounds[i + 1]]`` over arcs of
    weight ``w[bounds[i]:bounds[i + 1]]``.  Groups are ordered by
    listener, then label; per listener, ``best`` is the largest vote,
    ``n_top`` the number of labels reaching it and ``first_top`` the arc
    of the first-appearing one.
    """

    __slots__ = ("owner", "first", "label", "total", "top", "best", "n_top", "first_top")

    def __init__(self, n: int, bounds: np.ndarray, spoken: np.ndarray, w: np.ndarray) -> None:
        key = np.repeat(np.arange(bounds.size - 1), np.diff(bounds)) * n + spoken
        order = np.argsort(key, kind="stable")
        key = key[order]
        new = np.empty(key.size, dtype=bool)
        new[0] = True
        np.not_equal(key[1:], key[:-1], out=new[1:])
        gid = np.cumsum(new) - 1
        # A listener's arcs keep their positions in the sorted order, so
        # its groups start at the group of its first arc.
        starts = gid[bounds[:-1]]
        self.first = order[new]
        self.owner = key[new] // n
        self.label = spoken[self.first]
        # bincount adds each group's weights from 0.0 in arc order: the
        # loop's float sums, bit for bit.
        self.total = np.bincount(gid, weights=w[order])
        self.best = np.maximum.reduceat(self.total, starts)
        self.top = self.total == self.best[self.owner]
        self.n_top = np.add.reduceat(self.top.astype(np.int64), starts)
        self.first_top = np.minimum.reduceat(np.where(self.top, self.first, key.size), starts)

    def top_labels(self, i: int) -> List[int]:
        """Listener *i*'s maximal labels in order of first appearance."""
        sel = np.flatnonzero((self.owner == i) & self.top)
        return [int(lab) for lab in self.label[sel[np.argsort(self.first[sel])]]]

    def label_total(self, labels: np.ndarray) -> np.ndarray:
        """Each listener's vote for ``labels[i]`` (0.0 when nobody said it)."""
        out = np.zeros(labels.size)
        mine = self.label == labels[self.owner]
        out[self.owner[mine]] = self.total[mine]
        return out
