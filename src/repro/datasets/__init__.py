"""Experiment corpora: the SBM benchmark and the synthetic GDELT substitute.

The real GDELT database (tens of thousands of news sites, BigQuery-scale)
is not available offline; :mod:`repro.datasets.gdelt` generates a corpus
with the same structural properties the paper exploits — regional
communities, power-law site popularity, short event life-cycles — from a
ground-truth influence/selectivity model, so the full pipeline (including
the Fig. 12 prediction experiment) runs end to end.  See DESIGN.md §3.1.
"""

from typing import TYPE_CHECKING

from repro import _lazy_exports

if TYPE_CHECKING:
    from repro.datasets.gdelt import GDELTConfig, SyntheticGDELT
    from repro.datasets.sbm_corpus import SBMExperiment, make_sbm_experiment
    from repro.datasets.truth import community_aligned_embeddings

__all__ = [
    "SyntheticGDELT",
    "GDELTConfig",
    "SBMExperiment",
    "make_sbm_experiment",
    "community_aligned_embeddings",
]

__getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        "repro.datasets.gdelt": ("GDELTConfig", "SyntheticGDELT"),
        "repro.datasets.sbm_corpus": ("SBMExperiment", "make_sbm_experiment"),
        "repro.datasets.truth": ("community_aligned_embeddings",),
    },
)
