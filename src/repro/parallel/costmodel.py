"""Barrier-accurate parallel cost model (the 1-core → 64-core substitution).

The paper's scaling experiments (Figs. 10, 11, 13) ran on a multi-core
machine; this reproduction machine exposes a single core, so wall-clock
speedup cannot be *observed* here.  It can, however, be *computed*: the
hierarchical algorithm's parallel structure is fully determined by

* the per-community workloads at every merge-tree level (measured in
  iterations × infections by the real engine),
* the per-level barrier (a level ends when its slowest core finishes),
* communication: scattering/gathering disjoint embedding row-blocks plus a
  synchronization cost that grows with the core count.

The model replays the real schedule on a simulated *p*-core machine:

.. math::

    T(p) = T_{serial} + \\sum_{levels} \\Big[ \\mathrm{LPT}(w_{level}, p)
        \\cdot s + C_{level}(p) \\Big]

with LPT the longest-processing-time makespan of that level's community
workloads on *p* cores, *s* the measured seconds-per-work-unit, and

.. math::

    C_{level}(p) = \\alpha_0 + \\alpha_1 p
        + \\beta \\cdot \\mathrm{bytes}_{level} / \\min(p, k_{level})

an α–β communication term (α₁·p models the centralized barrier whose cost
grows with participants — the effect the paper cites for the 32→64-core
efficiency drop).  ``T_serial`` is the Amdahl term: cascade splitting and
schedule construction that runs on one core regardless of *p*.

Calibration: ``seconds_per_work_unit`` is fitted from an actual
single-core run of the engine (``HierarchicalResult`` carries both measured
seconds and work units), so absolute times are anchored to real
measurements on this machine.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from repro.parallel.hierarchical import HierarchicalResult

__all__ = [
    "lpt_makespan",
    "CostModelParams",
    "ParallelCostModel",
    "DispatchCostEstimator",
]


def lpt_makespan(durations: Sequence[float], p: int) -> float:
    """Longest-Processing-Time makespan of *durations* on *p* identical cores.

    Greedy: sort jobs descending, always assign to the least-loaded core —
    the classic 4/3-approximation, and the natural model of a work pool of
    community tasks.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    durations = [float(d) for d in durations if d > 0]
    if not durations:
        return 0.0
    if p == 1:
        return float(sum(durations))
    loads = [0.0] * min(p, len(durations))
    heapq.heapify(loads)
    for d in sorted(durations, reverse=True):
        least = heapq.heappop(loads)
        heapq.heappush(loads, least + d)
    return max(loads)


class DispatchCostEstimator:
    """Online per-task cost predictor driving LPT dispatch ordering.

    The simulated :class:`ParallelCostModel` replays *measured* schedules;
    this estimator is its forward-looking sibling inside the live engine:
    before a level runs, it predicts each block task's compute cost so the
    backend can dispatch the longest tasks first (longest-processing-time
    order — the greedy schedule whose makespan the cost model's
    :func:`lpt_makespan` assumes).

    A task's work is ``iterations × infections`` (the same unit
    :class:`~repro.parallel.backends.BlockResult` reports in
    ``work_units``), but iterations are unknown before the run.  The
    estimator keeps an exponential moving average of the iterations each
    infection needed at previously completed levels and scales it by the
    task's infection count; observed ``work_units``/``wall_seconds`` from
    each finished level recalibrate the average for the next one.

    A work unit prices every iteration alike, but an accepted iteration
    costs one full kernel pass and a rejected one only the forward sweep
    (≈ 0.4 of a pass; a rejection used to cost two passes).  Seconds per
    work unit therefore differ by ≈ 2.5× between levels that accept
    their steps and merged levels that only reject; the supervision
    deadline, ``max(10 s, 10 × predicted)``, covers that spread.

    Parameters
    ----------
    prior_iters:
        Iterations assumed per task before any level has been observed
        (any positive value yields the same ordering at level 0 — cost is
        then proportional to infections — so only cold-start *seconds*
        predictions depend on it).
    smoothing:
        EMA weight of the newest level's observation, in (0, 1].
    """

    def __init__(self, prior_iters: float = 25.0, smoothing: float = 0.5) -> None:
        if prior_iters <= 0:
            raise ValueError("prior_iters must be positive")
        if not (0 < smoothing <= 1):
            raise ValueError("smoothing must lie in (0, 1]")
        self._prior_iters = float(prior_iters)
        self._smoothing = float(smoothing)
        self._iters_ema: float | None = None
        self._spu_ema: float | None = None  # seconds per work unit
        self.n_observed_levels = 0

    # ------------------------------------------------------------------ #

    @property
    def iters_per_task(self) -> float:
        """Current estimate of optimizer iterations per block task."""
        return self._iters_ema if self._iters_ema is not None else self._prior_iters

    @property
    def seconds_per_work_unit(self) -> float | None:
        """Calibrated seconds per (iteration × infection), if observed."""
        return self._spu_ema

    def predict_work(self, n_infections: int) -> float:
        """Predicted work units for a task with *n_infections* infections."""
        return self.iters_per_task * max(1, int(n_infections))

    def predict_seconds(self, n_infections: int) -> float | None:
        """Predicted wall seconds (``None`` until a level was observed)."""
        if self._spu_ema is None:
            return None
        return self.predict_work(n_infections) * self._spu_ema

    def deadline(
        self, n_infections: int, factor: float = 10.0, floor: float = 10.0
    ) -> float | None:
        """Supervision deadline for a task: ``max(floor, factor × predicted)``.

        ``None`` before any level has been observed (no seconds
        calibration yet) — the supervision loop then leaves the task
        un-deadlined rather than guessing; crash detection still covers
        hard worker deaths at level 0.
        """
        pred = self.predict_seconds(n_infections)
        if pred is None:
            return None
        return max(float(floor), float(factor) * pred)

    def order(self, infections: Sequence[int]) -> List[int]:
        """Indices of *infections* in dispatch (LPT: descending cost) order.

        Ties broken by original index, so the order — hence the engine's
        result collection — is deterministic.
        """
        pred = [self.predict_work(m) for m in infections]
        return sorted(range(len(pred)), key=lambda i: (-pred[i], i))

    def observe_level(
        self,
        work_units: Sequence[int],
        infections: Sequence[int],
        wall_seconds: Sequence[float],
    ) -> None:
        """Fold one completed level's measurements into the estimates."""
        total_work = float(sum(work_units))
        total_inf = float(sum(infections))
        total_secs = float(sum(wall_seconds))
        if total_work <= 0 or total_inf <= 0:
            return
        s = self._smoothing
        iters = total_work / total_inf
        self._iters_ema = (
            iters
            if self._iters_ema is None
            else (1 - s) * self._iters_ema + s * iters
        )
        if total_secs > 0:
            spu = total_secs / total_work
            self._spu_ema = (
                spu if self._spu_ema is None else (1 - s) * self._spu_ema + s * spu
            )
        self.n_observed_levels += 1


@dataclass(frozen=True)
class CostModelParams:
    """Machine parameters of the simulated cluster.

    Defaults are representative of a 2017-era shared-memory node: ~5 µs
    barrier entry cost per participating core, ~25 µs per synchronization
    round, and ~5 GB/s effective memory bandwidth for row-block movement.

    Attributes
    ----------
    seconds_per_work_unit:
        Compute cost of one (iteration × infection) unit; calibrate with
        :meth:`ParallelCostModel.calibrated`.
    alpha0:
        Fixed per-level synchronization latency (seconds).
    alpha1:
        Per-core barrier cost (seconds/core) — drives the large-p
        efficiency decay.
    beta:
        Seconds per byte of row-block communication.
    bytes_per_row:
        Communication volume per embedding row (A row + B row, float64).
    serial_seconds:
        One-off sequential work (splitting, SLPA, tree construction).
    """

    seconds_per_work_unit: float = 2e-6
    alpha0: float = 25e-6
    alpha1: float = 5e-6
    beta: float = 1.0 / 5e9
    bytes_per_row: int = 2 * 8 * 10
    serial_seconds: float = 0.0

    def __post_init__(self) -> None:
        if self.seconds_per_work_unit <= 0:
            raise ValueError("seconds_per_work_unit must be positive")
        for name in ("alpha0", "alpha1", "beta", "serial_seconds"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")


class ParallelCostModel:
    """Replay a measured hierarchical schedule on a simulated p-core machine.

    Parameters
    ----------
    level_work_units:
        ``level_work_units[l][c]`` — workload of community *c* at level *l*
        (iterations × infections).
    level_rows:
        Embedding rows touched per community per level (communication
        volume).
    params:
        Machine parameters.
    """

    def __init__(
        self,
        level_work_units: Sequence[Sequence[int]],
        level_rows: Sequence[Sequence[int]],
        params: CostModelParams = CostModelParams(),
    ) -> None:
        if len(level_work_units) != len(level_rows):
            raise ValueError("level_work_units and level_rows length mismatch")
        self.level_work_units = [list(map(int, l)) for l in level_work_units]
        self.level_rows = [list(map(int, l)) for l in level_rows]
        self.params = params

    # ------------------------------------------------------------------ #

    @classmethod
    def from_result(
        cls, result: HierarchicalResult, params: CostModelParams = CostModelParams()
    ) -> "ParallelCostModel":
        """Build directly from a real engine run."""
        return cls(
            [l.work_units for l in result.levels],
            [l.rows_touched for l in result.levels],
            params,
        )

    @classmethod
    def calibrated(
        cls,
        result: HierarchicalResult,
        params: CostModelParams = CostModelParams(),
        serial_seconds: float = 0.0,
    ) -> "ParallelCostModel":
        """Build from a run, fitting ``seconds_per_work_unit`` to measured
        wall-clock so the model's T(1) matches reality on this machine."""
        total_work = result.total_work_units
        measured = result.serial_seconds
        spu = measured / total_work if total_work > 0 and measured > 0 else params.seconds_per_work_unit
        fitted = CostModelParams(
            seconds_per_work_unit=spu,
            alpha0=params.alpha0,
            alpha1=params.alpha1,
            beta=params.beta,
            bytes_per_row=params.bytes_per_row,
            serial_seconds=serial_seconds,
        )
        return cls.from_result(result, fitted)

    # ------------------------------------------------------------------ #

    def level_time(self, level: int, p: int) -> float:
        """Simulated seconds for one level on *p* cores."""
        pm = self.params
        work = self.level_work_units[level]
        durations = [w * pm.seconds_per_work_unit for w in work]
        compute = lpt_makespan(durations, p)
        if p == 1:
            return compute  # no inter-process exchange on a single core
        k = max(1, len([w for w in work if w > 0]))
        active = min(p, k)
        bytes_level = sum(self.level_rows[level]) * pm.bytes_per_row
        comm = pm.alpha0 + pm.alpha1 * p + pm.beta * bytes_level / active
        return compute + comm

    def execution_time(self, p: int) -> float:
        """Simulated end-to-end seconds on *p* cores (Figs. 10–11 series)."""
        if p < 1:
            raise ValueError("p must be >= 1")
        total = self.params.serial_seconds
        for level in range(len(self.level_work_units)):
            total += self.level_time(level, p)
        return total

    def speedup(self, p: int) -> float:
        """``s_p = T(1) / T(p)`` (Eq. 20)."""
        return self.execution_time(1) / self.execution_time(p)

    def efficiency(self, p: int) -> float:
        """``e_p = s_p / p`` (Eq. 21)."""
        return self.speedup(p) / p

    def curves(self, cores: Sequence[int]) -> Dict[str, List[float]]:
        """Execution-time / speedup / efficiency series over *cores*."""
        t = [self.execution_time(p) for p in cores]
        t1 = self.execution_time(1)
        s = [t1 / ti for ti in t]
        e = [si / p for si, p in zip(s, cores)]
        return {"cores": list(cores), "time": t, "speedup": s, "efficiency": e}
