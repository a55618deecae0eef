"""Frequent co-occurrence graphs over cascade corpora (§IV-B, Fig. 2)."""

from typing import TYPE_CHECKING

from repro import _lazy_exports

if TYPE_CHECKING:
    from repro.cooccurrence.build import (
        build_cooccurrence_graph,
        build_coreporting_backbone,
        ordered_pair_counts,
    )

__all__ = [
    "build_cooccurrence_graph",
    "build_coreporting_backbone",
    "ordered_pair_counts",
]

__getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        "repro.cooccurrence.build": (
            "build_cooccurrence_graph", "build_coreporting_backbone", "ordered_pair_counts",
        ),
    },
)
