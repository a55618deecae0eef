"""SLPA benchmark: whole-window voting vs the per-listener loop.

Times two implementations of the same community detector:

* **loop**: the per-listener SLPA this repository shipped before
  whole-window voting, copied verbatim below — a Python dict of weighted
  votes per listener, one ``rng.integers`` call per listener;
* **window**: the shipped :func:`repro.community.slpa.slpa`, which
  scores a window of listeners per set of NumPy calls and speculates past
  ties and smoothing flips (DESIGN.md §18).

Both must return the same partition and memberships and leave the
caller's generator in the same state before any number is reported.
Timing is the per-side minimum over alternating repetitions.

Inputs: the co-occurrence graph the ``train-sbm`` training job runs SLPA
on (the Fig. 9 experiment, seed 104, filtered at 0.1; SLPA seeded with
``default_rng(105)`` as the job does), the Fig. 2 regional backbone, and
two unweighted graphs where most listeners tie every sweep (ER and BA,
2,000 nodes).  Only the co-occurrence graph is gated (>= 3x); the
unweighted rows record the tie-dense case, where speculation restarts at
almost every listener and the loop is faster.  Results go to
``BENCH_slpa.json`` at the repo root and ``benchmarks/results/bench_slpa.txt``.
"""

import json
import time
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np
import pytest

from _common import save_result

from repro.community.partition import Partition
from repro.community.slpa import slpa
from repro.cooccurrence import build_cooccurrence_graph, build_coreporting_backbone
from repro.graphs.generators import barabasi_albert, erdos_renyi
from repro.graphs.graph import Graph
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import check_fraction

pytestmark = pytest.mark.slow  # tens of seconds of repeated SLPA runs

ROOT = Path(__file__).parent.parent
REPS = 5
#: acceptance gate on the train-sbm co-occurrence graph
MIN_SPEEDUP = 3.0


# --------------------------------------------------------------------- #
# Baseline: the per-listener loop, verbatim from the tree whole-window
# voting replaced.
# --------------------------------------------------------------------- #


def _loop_slpa(
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


# --------------------------------------------------------------------- #
# Harness
# --------------------------------------------------------------------- #


def _regional_backbone(gdelt_world, gdelt_events) -> Graph:
    """Fig. 2's SLPA input: the backbone without the aggregator tier."""
    min_count = max(2, int(round(0.01 * len(gdelt_events))))
    backbone = build_coreporting_backbone(gdelt_events, min_count=min_count)
    active = np.flatnonzero(backbone.out_degree() > 0)
    sub, _ = backbone.subgraph(active[~gdelt_world.is_aggregator[active]])
    return sub


def _assert_identical(graph: Graph, seed: int) -> Partition:
    rng_loop = np.random.default_rng(seed)
    rng_window = np.random.default_rng(seed)
    p_loop, mem_loop = _loop_slpa(graph, seed=rng_loop, return_memberships=True)
    p_window, mem_window = slpa(graph, seed=rng_window, return_memberships=True)
    assert np.array_equal(p_window.membership, p_loop.membership)
    assert mem_window == mem_loop
    # default_rng is PCG64: its state dict holds only ints and strings
    assert rng_window.bit_generator.state == rng_loop.bit_generator.state
    return p_window


def _best_of_alternating(graph: Graph, seed: int) -> Tuple[float, float]:
    best = {"loop": float("inf"), "window": float("inf")}
    for _ in range(REPS):
        for name, fn in (("loop", _loop_slpa), ("window", slpa)):
            rng = np.random.default_rng(seed)
            t0 = time.perf_counter()
            fn(graph, seed=rng)
            best[name] = min(best[name], time.perf_counter() - t0)
    return best["loop"], best["window"]


def test_slpa_window_vote_speedup(sbm_experiment, gdelt_world, gdelt_events, scale):
    inputs = {
        "train_sbm_cooccurrence": (
            build_cooccurrence_graph(sbm_experiment.train).filter_edges(0.1),
            105,
        ),
        "fig02_regional_backbone": (_regional_backbone(gdelt_world, gdelt_events), 201),
        "er_2000_0.005_unweighted": (erdos_renyi(2000, 0.005, seed=1), 1),
        "ba_2000_3_unweighted": (barabasi_albert(2000, 3, seed=1), 1),
    }
    rows = {}
    for name, (graph, seed) in inputs.items():
        # Identity gate before any timing is believed.
        partition = _assert_identical(graph, seed)
        loop_s, window_s = _best_of_alternating(graph, seed)
        rows[name] = {
            "n_nodes": graph.n_nodes,
            "n_arcs": graph.to_undirected().n_edges,
            "weighted": bool(np.any(graph.edge_arrays()[2] != 1.0)),
            "slpa_seed": seed,
            "n_communities": partition.n_communities,
            "identical": True,
            "loop_seconds": loop_s,
            "window_seconds": window_s,
            "speedup_ratio": loop_s / window_s,
        }

    headline = rows["train_sbm_cooccurrence"]
    report = {
        "scale": scale.name,
        "timing": {
            "reps": REPS,
            "statistic": "min over alternating repetitions",
        },
        "identity": "partition, memberships and generator end state equal the loop's",
        "gate": {"graph": "train_sbm_cooccurrence", "min_speedup": MIN_SPEEDUP},
        "graphs": rows,
        "headline": {
            "speedup_ratio": headline["speedup_ratio"],
            "loop_seconds": headline["loop_seconds"],
            "window_seconds": headline["window_seconds"],
        },
    }
    (ROOT / "BENCH_slpa.json").write_text(json.dumps(report, indent=2))

    lines = [
        "SLPA: whole-window voting vs the per-listener loop",
        f"scale={scale.name} (min over {REPS} alternating repetitions; "
        "partition, memberships and generator state identical)",
    ]
    for name, row in rows.items():
        lines.append(
            f"  {name:<26} n={row['n_nodes']:>5}  arcs={row['n_arcs']:>6}  "
            f"loop={row['loop_seconds'] * 1e3:8.1f}ms  "
            f"window={row['window_seconds'] * 1e3:8.1f}ms  "
            f"speedup={row['speedup_ratio']:.2f}x  "
            f"communities={row['n_communities']}"
        )
    save_result("bench_slpa", "\n".join(lines) + "\n")

    # Acceptance: the graph every training run detects communities on.
    # The unweighted tie-dense rows are reported, not gated.
    assert headline["speedup_ratio"] >= MIN_SPEEDUP, report["headline"]
