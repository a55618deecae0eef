"""Analysis utilities: power-law fitting (Fig. 3), influencer ranking,
and propagation-network reconstruction from embeddings."""

from typing import TYPE_CHECKING

from repro import _lazy_exports

if TYPE_CHECKING:
    from repro.analysis.powerlaw import fit_power_law, log_binned_histogram
    from repro.analysis.influencers import rank_influencers, rank_selective_nodes
    from repro.analysis.reconstruction import (
        edge_auc,
        predict_edges,
        reconstruction_precision_recall,
    )

__all__ = [
    "fit_power_law",
    "log_binned_histogram",
    "rank_influencers",
    "rank_selective_nodes",
    "predict_edges",
    "reconstruction_precision_recall",
    "edge_auc",
]

__getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        "repro.analysis.powerlaw": ("fit_power_law", "log_binned_histogram"),
        "repro.analysis.influencers": ("rank_influencers", "rank_selective_nodes"),
        "repro.analysis.reconstruction": (
            "edge_auc", "predict_edges", "reconstruction_precision_recall",
        ),
    },
)
