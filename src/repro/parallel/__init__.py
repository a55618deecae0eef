"""Community-parallel inference engine (Algorithms 1 and 2).

The engine decomposes inference over a partition of the node set:

1. every cascade is split into per-community **sub-cascades**
   (:mod:`repro.parallel.splitting`, Alg. 1 lines 1–11);
2. one task per community runs block projected-gradient ascent on its
   sub-corpus, touching only its own rows of ``A``/``B`` — disjoint blocks,
   hence no write-write conflicts (:mod:`repro.parallel.backends`);
3. a :class:`repro.community.MergeTree` schedules levels: results of level
   *i* seed level *i+1* whose communities are pairwise merges, up to the
   root (:mod:`repro.parallel.hierarchical`, Alg. 2 / Fig. 4).

Backends: ``SerialBackend`` (in-process, deterministic reference),
``MultiprocessBackend`` (real OS processes + shared memory, the paper's
execution model).  Because this reproduction machine exposes a single
core, the *scaling* figures are regenerated through
:mod:`repro.parallel.costmodel`, a barrier-accurate simulator calibrated
with measured per-infection gradient costs (see DESIGN.md §3.2).
"""

from typing import TYPE_CHECKING

from repro import _lazy_exports

if TYPE_CHECKING:
    from repro.parallel.splitting import (
        PositionSplit,
        split_cascades,
        split_positions,
    )
    from repro.parallel.arena import CorpusArena, LevelSelection
    from repro.parallel.backends import (
        Backend,
        BlockResult,
        BlockTask,
        DispatchStats,
        MultiprocessBackend,
        SerialBackend,
    )
    from repro.parallel.hierarchical import (
        HierarchicalInference,
        HierarchicalResult,
        LevelStats,
    )
    from repro.parallel.costmodel import (
        CostModelParams,
        DispatchCostEstimator,
        ParallelCostModel,
        lpt_makespan,
    )
    from repro.parallel.hogwild import HogwildConfig, hogwild_fit

__all__ = [
    "split_cascades",
    "split_positions",
    "PositionSplit",
    "CorpusArena",
    "LevelSelection",
    "Backend",
    "SerialBackend",
    "MultiprocessBackend",
    "BlockTask",
    "BlockResult",
    "DispatchStats",
    "DispatchCostEstimator",
    "HierarchicalInference",
    "HierarchicalResult",
    "LevelStats",
    "ParallelCostModel",
    "CostModelParams",
    "lpt_makespan",
    "HogwildConfig",
    "hogwild_fit",
]

__getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        "repro.parallel.splitting": (
            "PositionSplit", "split_cascades", "split_positions",
        ),
        "repro.parallel.arena": ("CorpusArena", "LevelSelection"),
        "repro.parallel.backends": (
            "Backend", "BlockResult", "BlockTask", "DispatchStats", "MultiprocessBackend",
            "SerialBackend",
        ),
        "repro.parallel.hierarchical": (
            "HierarchicalInference", "HierarchicalResult", "LevelStats",
        ),
        "repro.parallel.costmodel": (
            "CostModelParams", "DispatchCostEstimator", "ParallelCostModel", "lpt_makespan",
        ),
        "repro.parallel.hogwild": ("HogwildConfig", "hogwild_fit"),
    },
)
