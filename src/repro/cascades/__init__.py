"""Cascade substrate: the paper's Definition 1 and everything around it.

A *cascade* is a sequence of distinct infections ``(v_i, t_{v_i})`` — a node
and the time it was first infected — realized by the continuous-time
stochastic propagation model of Kempe et al. with exponentially distributed
per-link delays (§III-A).  This package provides:

* :class:`Cascade` / :class:`CascadeSet` — immutable array-backed containers;
* :class:`repro.cascades.simulate.CascadeSimulator` — event-driven
  continuous-time SI simulation with an observation window (§VI-A);
* :mod:`repro.cascades.stats` — sizes, durations, co-participation counts;
* :mod:`repro.cascades.io` — JSON-lines serialization.
"""

from typing import TYPE_CHECKING

from repro import _lazy_exports

if TYPE_CHECKING:
    from repro.cascades.types import Cascade, CascadeSet
    from repro.cascades.simulate import CascadeSimulator, simulate_corpus
    from repro.cascades.stats import (
        cascade_durations,
        cascade_sizes,
        node_participation_counts,
        size_histogram,
    )
    from repro.cascades.io import load_cascades_jsonl, save_cascades_jsonl
    from repro.cascades.kempe import (
        estimate_spread,
        greedy_influence_maximization,
        independent_cascade,
        linear_threshold,
    )
    from repro.cascades.trees import (
        map_infector_tree,
        max_breadth,
        structural_virality,
        tree_depth,
    )

__all__ = [
    "Cascade",
    "CascadeSet",
    "CascadeSimulator",
    "simulate_corpus",
    "cascade_sizes",
    "cascade_durations",
    "node_participation_counts",
    "size_histogram",
    "load_cascades_jsonl",
    "save_cascades_jsonl",
    "independent_cascade",
    "linear_threshold",
    "estimate_spread",
    "greedy_influence_maximization",
    "map_infector_tree",
    "tree_depth",
    "max_breadth",
    "structural_virality",
]

__getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        "repro.cascades.types": ("Cascade", "CascadeSet"),
        "repro.cascades.simulate": ("CascadeSimulator", "simulate_corpus"),
        "repro.cascades.stats": (
            "cascade_durations", "cascade_sizes", "node_participation_counts", "size_histogram",
        ),
        "repro.cascades.io": ("load_cascades_jsonl", "save_cascades_jsonl"),
        "repro.cascades.kempe": (
            "estimate_spread", "greedy_influence_maximization", "independent_cascade",
            "linear_threshold",
        ),
        "repro.cascades.trees": (
            "map_infector_tree", "max_breadth", "structural_virality", "tree_depth",
        ),
    },
)
