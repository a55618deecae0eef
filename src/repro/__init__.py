"""repro — reproduction of *Predicting Viral News Events in Online Media*.

Lu & Szymanski, IEEE ParSocial Workshop @ IPDPS 2017 (DOI
10.1109/IPDPSW.2017.82).

The package infers topic-specific *influence* and *selectivity* embeddings
of nodes from observed information cascades — without knowing the
propagation topology — using a community-parallel projected-gradient
algorithm, and predicts the final size of emerging cascades from their
early adopters' embeddings.

Quickstart
----------
>>> from repro import make_sbm_experiment, infer_embeddings, threshold_sweep
>>> exp = make_sbm_experiment(n_nodes=200, n_train=150, n_test=50, seed=0)
>>> model, result, tree = infer_embeddings(exp.train, n_topics=5, seed=0)
>>> sweep = threshold_sweep(model, exp.test, thresholds=[20, 40], seed=0)

See ``examples/`` for complete scenarios and ``benchmarks/`` for the
scripts regenerating every figure of the paper.

Cold start (DESIGN.md §19): this package and its subpackages re-export
their public names lazily, so ``import repro.serving.server`` loads the
serving code and what it imports, not the training stack.
"""

from __future__ import annotations

import importlib
import sys
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Sequence, Tuple

if TYPE_CHECKING:
    from repro.cascades import (
        Cascade,
        CascadeSet,
        CascadeSimulator,
        map_infector_tree,
        simulate_corpus,
        structural_virality,
    )
    from repro.community import MergeTree, Partition, louvain, modularity, slpa
    from repro.cooccurrence import build_cooccurrence_graph, build_coreporting_backbone
    from repro.clustering import jaccard_distance_matrix, ward_linkage
    from repro.datasets import (
        GDELTConfig,
        SBMExperiment,
        SyntheticGDELT,
        community_aligned_embeddings,
        make_sbm_experiment,
    )
    from repro.embedding import (
        EmbeddingModel,
        LinkRateModel,
        OnlineEmbeddingInference,
        OptimizerConfig,
        ProjectedGradientAscent,
        corpus_log_likelihood,
        get_kernel,
        log_likelihood,
    )
    from repro.graphs import Graph, barabasi_albert, core_periphery, stochastic_block_model
    from repro.parallel import (
        CostModelParams,
        HierarchicalInference,
        MultiprocessBackend,
        ParallelCostModel,
        SerialBackend,
        split_cascades,
    )
    from repro.parallel.hierarchical import infer_embeddings
    from repro.prediction import (
        FeatureExtractor,
        LinearSVM,
        RidgeRegression,
        SelfExcitingSizePredictor,
        ViralityPredictor,
        build_dataset,
        threshold_sweep,
    )

__version__ = "1.0.0"

__all__ = [
    # cascades
    "Cascade",
    "CascadeSet",
    "CascadeSimulator",
    "simulate_corpus",
    # graphs
    "Graph",
    "stochastic_block_model",
    "barabasi_albert",
    "core_periphery",
    # community / clustering
    "Partition",
    "slpa",
    "louvain",
    "modularity",
    "MergeTree",
    "build_cooccurrence_graph",
    "build_coreporting_backbone",
    "jaccard_distance_matrix",
    "ward_linkage",
    # embedding
    "EmbeddingModel",
    "ProjectedGradientAscent",
    "OptimizerConfig",
    "log_likelihood",
    "corpus_log_likelihood",
    "LinkRateModel",
    "OnlineEmbeddingInference",
    "get_kernel",
    "map_infector_tree",
    "structural_virality",
    "RidgeRegression",
    "SelfExcitingSizePredictor",
    # parallel
    "HierarchicalInference",
    "SerialBackend",
    "MultiprocessBackend",
    "ParallelCostModel",
    "CostModelParams",
    "split_cascades",
    "infer_embeddings",
    # prediction
    "FeatureExtractor",
    "LinearSVM",
    "ViralityPredictor",
    "build_dataset",
    "threshold_sweep",
    # datasets
    "SyntheticGDELT",
    "GDELTConfig",
    "SBMExperiment",
    "make_sbm_experiment",
    "community_aligned_embeddings",
    "__version__",
]


def _lazy_exports(
    package: str, table: Dict[str, Sequence[str]]
) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """PEP 562 ``__getattr__``/``__dir__`` for a package's re-exports.

    *table* maps each module to the names the package re-exports from
    it, the same names the package imports under ``TYPE_CHECKING`` for
    static tools.  A name is imported on first access and cached in the
    package namespace, so later lookups are plain attribute reads.

    A package must not re-export this way a name that is also one of
    its own submodules (``repro.community``'s ``slpa``): importing that
    submodule binds the package attribute to the module, and
    ``__getattr__`` never runs for it.  Such a package keeps an eager
    init.
    """
    where = {name: module for module, names in table.items() for name in names}
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str) -> Any:
        module = where.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted({*namespace, *where})

    return __getattr__, __dir__


__getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        "repro.cascades": (
            "Cascade", "CascadeSet", "CascadeSimulator", "map_infector_tree", "simulate_corpus",
            "structural_virality",
        ),
        "repro.community": ("MergeTree", "Partition", "louvain", "modularity", "slpa"),
        "repro.cooccurrence": ("build_cooccurrence_graph", "build_coreporting_backbone"),
        "repro.clustering": ("jaccard_distance_matrix", "ward_linkage"),
        "repro.datasets": (
            "GDELTConfig", "SBMExperiment", "SyntheticGDELT", "community_aligned_embeddings",
            "make_sbm_experiment",
        ),
        "repro.embedding": (
            "EmbeddingModel", "LinkRateModel", "OnlineEmbeddingInference", "OptimizerConfig",
            "ProjectedGradientAscent", "corpus_log_likelihood", "get_kernel", "log_likelihood",
        ),
        "repro.graphs": ("Graph", "barabasi_albert", "core_periphery", "stochastic_block_model"),
        "repro.parallel": (
            "CostModelParams", "HierarchicalInference", "MultiprocessBackend", "ParallelCostModel",
            "SerialBackend", "split_cascades",
        ),
        "repro.parallel.hierarchical": ("infer_embeddings",),
        "repro.prediction": (
            "FeatureExtractor", "LinearSVM", "RidgeRegression", "SelfExcitingSizePredictor",
            "ViralityPredictor", "build_dataset", "threshold_sweep",
        ),
    },
)
