"""Scoring result types and the scoring workspace.

The scoring hot path amortizes fixed per-call costs (snapshot lookup,
feature gathering, the SVM matvec) by scoring a whole group of cascade
ids in one vectorized evaluation.  This module holds the pieces that
are independent of *how* scores are computed:

* :class:`ScoreColumns` — what one ``score_columns`` call returns, and
  :meth:`ScoreColumns.result`, the one converter from a row of it to a
  :class:`ScoreResult`;
* :class:`ScoreResult` / :class:`LatencyBreakdown` — one cascade's
  outcome with its latency split into group wait and shared compute;
* :class:`QueueFullError` — remote backpressure: the server's in-flight
  bound refused a request (the TCP client raises it, the replay
  engine's retry ladder catches it);
* :class:`ScoringWorkspace` — the reusable buffers a ``score_columns``
  call gathers into, so its steady state allocates nothing but its
  output columns.

``score`` converts its row with :meth:`ScoreColumns.result`; the
asyncio server turns a group's columns into JSON rows directly (DESIGN.md
§12.3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

__all__ = [
    "LatencyBreakdown",
    "QueueFullError",
    "ScoreColumns",
    "ScoreResult",
    "ScoringWorkspace",
]


class QueueFullError(RuntimeError):
    """The server refused a request at its in-flight bound (``queue full``)."""


@dataclass(slots=True)
class LatencyBreakdown:
    """Where one request's latency went.

    ``queued_s`` is the request's wait for its group's scoring call;
    ``compute_s`` is that call's feature gather + SVM evaluation, shared
    by every request in the group of ``batch_size``.
    """

    queued_s: float
    compute_s: float
    batch_size: int

    @property
    def total_s(self) -> float:
        return self.queued_s + self.compute_s


@dataclass(slots=True)
class ScoreResult:
    """Outcome of one score request.

    ``status`` is one of:

    * ``"ok"`` — scored; ``score`` is the standardized SVM margin,
      ``label`` the ±1 virality prediction (both ``None`` when the
      active snapshot carries no fitted predictor);
    * ``"unknown_cascade"`` — the cascade is not tracked (never seen,
      evicted, or expired).

    A call that cannot score at all (no model published yet) raises
    instead of returning results.
    """

    cascade_id: str
    status: str
    score: Optional[float] = None
    label: Optional[int] = None
    n_early: int = 0
    model_version: int = 0
    features: Optional[np.ndarray] = None
    latency: Optional[LatencyBreakdown] = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"


@dataclass(slots=True)
class ScoreColumns:
    """Columnar outcome of one bulk scoring call, aligned per request.

    The struct-of-arrays twin of a list of :class:`ScoreResult`: row *i*
    of every column answers request *i*.  This is the wire shape the
    sharded router exchanges with its workers (one pickle of a few
    arrays instead of one dataclass per request) and the shape
    :meth:`ScoringService.score_columns` returns.

    ``ok[i]`` is ``False`` for an untracked cascade; ``scores``/
    ``labels`` are ``None`` when the active snapshot carries no fitted
    predictor, and hold ``NaN``/``0`` at rows where ``ok`` is ``False``.
    ``features`` (only when requested) is a dense ``(n, F)`` matrix with
    zero rows at unknown cascades.
    """

    ok: np.ndarray  # bool, per request
    scores: Optional[np.ndarray]  # float64 per request, or None
    labels: Optional[np.ndarray]  # int64 per request, or None
    n_early: np.ndarray  # int64 per request
    model_version: int
    compute_s: float
    features: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return int(self.ok.shape[0])

    def result(self, i: int, cascade_id: str) -> ScoreResult:
        """Row *i* as the :class:`ScoreResult` for *cascade_id*.

        ``features`` is a read-only copy of row *i*, attached when the
        columns carry features.  ``latency`` has no queued time (the
        call scores at once), the call's ``compute_s`` and ``len(self)``
        as the batch size.
        """
        # positional construction: keywords cost these slotted dataclasses
        # about twice as much, and this runs once per scored request
        latency = LatencyBreakdown(0.0, self.compute_s, len(self.ok))
        if not self.ok.item(i):
            return ScoreResult(
                cascade_id=cascade_id,
                status="unknown_cascade",
                model_version=self.model_version,
                latency=latency,
            )
        features: Optional[np.ndarray] = None
        if self.features is not None:
            features = self.features[i].copy()
            features.setflags(write=False)
        return ScoreResult(
            cascade_id,
            "ok",
            None if self.scores is None else self.scores.item(i),
            None if self.labels is None else self.labels.item(i),
            self.n_early.item(i),
            self.model_version,
            features,
            latency,
        )


class ScoringWorkspace:
    """Named grow-only buffers for ingest bursts and batched scoring.

    The serving analog of the gradient kernel's
    :class:`~repro.embedding.compiled.GradientWorkspace` (DESIGN.md §11,
    §13.3).  Not thread-safe: the owning
    :class:`~repro.serving.service.ScoringService` touches it only under
    its lock.  Every buffer is fully written before it is read within
    one call, so no content survives a call; views handed out of a call
    are valid only until the next one, and anything that escapes the
    service (``ScoreResult.features``) must be copied.
    """

    #: growth slack so a slowly growing batch size doesn't realloc per call
    _SLACK = 1.25

    def __init__(self) -> None:
        self._mats: Dict[str, np.ndarray] = {}
        self._vecs: Dict[str, np.ndarray] = {}

    def mat(self, name: str, rows: int, cols: int) -> np.ndarray:
        """A float64 ``(rows, cols)`` view of the named matrix buffer."""
        buf = self._mats.get(name)
        if buf is None or buf.shape[1] != cols or buf.shape[0] < rows:
            cap = max(rows, int(rows * self._SLACK), 1)
            buf = np.empty((cap, cols), dtype=np.float64)
            self._mats[name] = buf
        return buf[:rows]

    def vec(self, name: str, size: int, dtype: type = np.float64) -> np.ndarray:
        """A ``(size,)`` view of the named vector buffer (dtype pinned
        per name — ask for a consistent dtype under one name)."""
        buf = self._vecs.get(name)
        if buf is None or buf.size < size or buf.dtype != np.dtype(dtype):
            cap = max(size, int(size * self._SLACK), 1)
            buf = np.empty(cap, dtype=dtype)
            self._vecs[name] = buf
        return buf[:size]
