"""Hierarchical clustering of cascades (§II, Fig. 1).

The paper measures pairwise distance between cascades by the Jaccard index
over their reporting-node sets (Eq. 1) and applies agglomerative clustering
under the Ward criterion, yielding a dendrogram whose top-level clusters
align with geographic regions.  Everything here is implemented from
scratch (scipy's implementations are used only as test oracles).
"""

from typing import TYPE_CHECKING

from repro import _lazy_exports

if TYPE_CHECKING:
    from repro.clustering.jaccard import jaccard_distance_matrix, jaccard_index
    from repro.clustering.ward import Dendrogram, ward_linkage

__all__ = [
    "jaccard_index",
    "jaccard_distance_matrix",
    "ward_linkage",
    "Dendrogram",
]

__getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        "repro.clustering.jaccard": ("jaccard_distance_matrix", "jaccard_index"),
        "repro.clustering.ward": ("Dendrogram", "ward_linkage"),
    },
)
