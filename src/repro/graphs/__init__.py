"""Graph substrate: CSR directed weighted graphs, generators, statistics.

Everything downstream (cascade simulation, co-occurrence analysis, community
detection) runs on :class:`repro.graphs.Graph`, a compact immutable
compressed-sparse-row representation of a directed weighted graph.

Generators implement the topologies used in the paper's evaluation:

* :func:`stochastic_block_model` — §VI-A synthetic networks (n=2000,
  intra-community edge probability α=0.2, inter β=0.001);
* :func:`barabasi_albert` — preferential attachment, producing the
  power-law popularity distribution discussed with Fig. 3 (Matthew effect);
* :func:`core_periphery` — the adversarial load-balancing case of §IV-B.
"""

from typing import TYPE_CHECKING

from repro import _lazy_exports

if TYPE_CHECKING:
    from repro.graphs.graph import Graph
    from repro.graphs.generators import (
        barabasi_albert,
        core_periphery,
        erdos_renyi,
        planted_partition_sizes,
        stochastic_block_model,
    )
    from repro.graphs.stats import (
        degree_histogram,
        density,
        mean_degree,
        reciprocity,
        weakly_connected_components,
    )

__all__ = [
    "Graph",
    "stochastic_block_model",
    "planted_partition_sizes",
    "barabasi_albert",
    "core_periphery",
    "erdos_renyi",
    "degree_histogram",
    "density",
    "mean_degree",
    "reciprocity",
    "weakly_connected_components",
]

__getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        "repro.graphs.graph": ("Graph",),
        "repro.graphs.generators": (
            "barabasi_albert", "core_periphery", "erdos_renyi", "planted_partition_sizes",
            "stochastic_block_model",
        ),
        "repro.graphs.stats": (
            "degree_histogram", "density", "mean_degree", "reciprocity",
            "weakly_connected_components",
        ),
    },
)
