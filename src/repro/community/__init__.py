"""Community detection and hierarchical merge scheduling (§IV-B).

* :class:`Partition` — a disjoint node partition with dense community ids;
* :func:`slpa` — Speaker-Listener Label Propagation (Xie, Szymanski & Liu,
  ICDMW 2011), the paper's community detector, run on the frequent
  co-occurrence graph;
* :func:`modularity` — directed weighted Newman modularity, for diagnostics;
* :class:`MergeTree` — the balanced binary merge schedule of Algorithm 2 /
  Fig. 4, including the paper's stated future-work variant that balances by
  graph-node counts instead of tree-node counts.

Unlike the other packages this init imports eagerly: ``slpa``,
``louvain`` and ``modularity`` are functions named like the submodules
that define them, and a lazy ``__getattr__`` would hand out the module
once the submodule had been imported (DESIGN.md §19).  The serving
paths never load this package.
"""

from repro.community.partition import Partition
from repro.community.slpa import slpa
from repro.community.louvain import louvain
from repro.community.modularity import modularity
from repro.community.mergetree import MergeTree

__all__ = ["Partition", "slpa", "louvain", "modularity", "MergeTree"]
