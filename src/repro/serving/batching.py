"""Micro-batching primitives: policy, pending queue, request/result types.

The scoring hot path amortizes fixed per-call costs (snapshot lookup,
feature gathering, the SVM matvec) by coalescing concurrent score
requests into one vectorized evaluation.  This module holds the pieces
that are independent of *how* scores are computed:

* :class:`BatchPolicy` — when to flush (size or age trigger) and what to
  do when the queue is full (explicit backpressure);
* :class:`PendingQueue` — the bounded FIFO of in-flight requests;
* :class:`ScoreRequest` / :class:`ScoreResult` / :class:`LatencyBreakdown`
  — the request lifecycle with per-request latency accounting;
* :class:`ScoreColumns` — what one ``score_columns`` call returns, and
  :meth:`ScoreColumns.result`, the one converter from a row of it to a
  :class:`ScoreResult`.  A flush is a drain, one ``score_columns`` call
  over the drained ids and :func:`finish_requests`; ``score`` and the
  in-process ``score_many`` convert their rows the same way.

Everything here uses the monotonic clock supplied by the owning
service; nothing reads wall-clock time.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, List, Optional, Sequence

import numpy as np

__all__ = [
    "BatchPolicy",
    "LatencyBreakdown",
    "PendingQueue",
    "QueueFullError",
    "ScoreColumns",
    "ScoreRequest",
    "ScoreResult",
    "finish_requests",
]

_OVERFLOW_MODES = ("reject", "shed_oldest")


class QueueFullError(RuntimeError):
    """Raised on submit when the queue is full and the policy rejects."""


@dataclass(frozen=True)
class BatchPolicy:
    """When to flush a batch and how to apply backpressure.

    Attributes
    ----------
    max_batch:
        Flush as soon as this many requests are pending.
    max_delay:
        Flush any request that has waited this long (seconds of the
        service's monotonic clock), even if the batch is not full.
    max_pending:
        Bound on queued requests.  Beyond it, ``overflow`` decides.
    overflow:
        ``"reject"`` raises :class:`QueueFullError` at the submitter;
        ``"shed_oldest"`` completes the oldest queued request with a
        ``"shed"`` status to make room (bounded staleness).
    """

    max_batch: int = 64
    max_delay: float = 0.005
    max_pending: int = 1024
    overflow: str = "reject"

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if self.max_delay < 0:
            raise ValueError("max_delay must be >= 0")
        if self.max_pending < self.max_batch:
            raise ValueError("max_pending must be >= max_batch")
        if self.overflow not in _OVERFLOW_MODES:
            raise ValueError(
                f"overflow must be one of {_OVERFLOW_MODES}, got {self.overflow!r}"
            )


@dataclass(slots=True)
class LatencyBreakdown:
    """Where one request's latency went.

    ``queued_s`` is submit → batch start; ``compute_s`` is the batch's
    feature-gather + SVM evaluation, shared by every request in it.
    """

    queued_s: float
    compute_s: float
    batch_size: int

    @property
    def total_s(self) -> float:
        return self.queued_s + self.compute_s


@dataclass(slots=True)
class ScoreRequest:
    """One in-flight score request.

    ``on_done`` (if set) fires exactly once, with the finished
    :class:`ScoreResult` — this is how the asyncio front end gets its
    completion signal without polling.
    """

    cascade_id: str
    request_id: int
    enqueued_at: float
    include_features: bool = False
    on_done: Optional[Callable[["ScoreResult"], None]] = None
    result: Optional["ScoreResult"] = field(default=None, repr=False)

    def finish(self, result: "ScoreResult") -> None:
        self.result = result
        if self.on_done is not None:
            self.on_done(result)

    def fail(self, status: str) -> "ScoreResult":
        """Finish unscored with *status*; returns the result."""
        result = ScoreResult(
            cascade_id=self.cascade_id, request_id=self.request_id, status=status
        )
        self.finish(result)
        return result


@dataclass(slots=True)
class ScoreResult:
    """Outcome of one score request.

    ``status`` is one of:

    * ``"ok"`` — scored; ``score`` is the standardized SVM margin,
      ``label`` the ±1 virality prediction (both ``None`` when the
      active snapshot carries no fitted predictor);
    * ``"unknown_cascade"`` — the cascade is not tracked (never seen,
      evicted, or expired);
    * ``"shed"`` — dropped unscored by ``overflow="shed_oldest"``;
    * ``"rejected"`` — refused at submit by ``overflow="reject"``;
    * ``"aborted"`` — the service shut down before this request's batch
      flushed (hard stop; a graceful drain flushes instead of aborting);
    * ``"failed"`` — the flush that drained this request could not score
      it (for example, no model published yet); the cause is on the
      health fault trail as ``flush_failed``.

    ``request_id`` is 0 for a result that answers no queued request
    (``score``, the in-process ``score_many``).
    """

    cascade_id: str
    request_id: int
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

    def result(
        self,
        i: int,
        cascade_id: str,
        request_id: int = 0,
        include_features: bool = True,
        queued_s: float = 0.0,
    ) -> ScoreResult:
        """Row *i* as the :class:`ScoreResult` for *cascade_id*.

        ``features`` is a read-only copy of row *i*, attached when the
        columns carry features and *include_features* is set — a flush
        gathers features for its whole batch when any request asked, and
        answers only the requests that did.  ``latency`` is *queued_s*,
        the call's ``compute_s`` and ``len(self)`` as the batch size.
        """
        # positional construction: keywords cost these slotted dataclasses
        # about twice as much, and this runs once per scored request
        latency = LatencyBreakdown(queued_s, self.compute_s, len(self.ok))
        if not self.ok.item(i):
            return ScoreResult(
                cascade_id=cascade_id,
                request_id=request_id,
                status="unknown_cascade",
                model_version=self.model_version,
                latency=latency,
            )
        features: Optional[np.ndarray] = None
        if include_features and self.features is not None:
            features = self.features[i].copy()
            features.setflags(write=False)
        return ScoreResult(
            cascade_id,
            request_id,
            "ok",
            None if self.scores is None else self.scores.item(i),
            None if self.labels is None else self.labels.item(i),
            self.n_early.item(i),
            self.model_version,
            features,
            latency,
        )


def finish_requests(
    requests: Sequence[ScoreRequest], columns: ScoreColumns, start: float
) -> List[ScoreResult]:
    """Finish each drained request with its row of *columns*.

    Row *i* of *columns* answers ``requests[i]``; each request's
    ``queued_s`` runs from its own enqueue time to *start*, the moment
    its flush began.
    """
    results: List[ScoreResult] = []
    for i, request in enumerate(requests):
        result = columns.result(
            i,
            request.cascade_id,
            request.request_id,
            request.include_features,
            max(start - request.enqueued_at, 0.0),
        )
        request.finish(result)
        results.append(result)
    return results


class PendingQueue:
    """Bounded FIFO of :class:`ScoreRequest` with explicit backpressure.

    Not thread-safe on its own — the owning service serializes access.
    """

    def __init__(self, policy: BatchPolicy) -> None:
        self.policy = policy
        self._pending: Deque[ScoreRequest] = deque()
        self.submitted = 0
        self.shed = 0
        self.rejected = 0

    def __len__(self) -> int:
        return len(self._pending)

    def oldest_enqueued_at(self) -> Optional[float]:
        """Enqueue time of the head request (None when empty)."""
        return self._pending[0].enqueued_at if self._pending else None

    def due(self, now: float) -> bool:
        """True when a flush is warranted: batch full or head too old."""
        if len(self._pending) >= self.policy.max_batch:
            return True
        head = self.oldest_enqueued_at()
        return head is not None and (now - head) >= self.policy.max_delay

    def submit(self, request: ScoreRequest) -> None:
        """Enqueue, applying the overflow policy when full.

        Raises
        ------
        QueueFullError
            Under ``overflow="reject"`` when the queue is at capacity.
        """
        if len(self._pending) >= self.policy.max_pending:
            if self.policy.overflow == "reject":
                self.rejected += 1
                raise QueueFullError(
                    f"pending queue full ({self.policy.max_pending} requests)"
                )
            self.shed += 1
            self._pending.popleft().fail("shed")
        self._pending.append(request)
        self.submitted += 1

    def submit_many(self, requests: List[ScoreRequest]) -> None:
        """Enqueue a burst; overflow policy applied per request.

        When the whole burst fits, this is a single ``deque.extend`` —
        the burst-arrival hot path the service's ``submit_many`` rides.
        """
        if len(self._pending) + len(requests) <= self.policy.max_pending:
            self._pending.extend(requests)
            self.submitted += len(requests)
            return
        for request in requests:
            self.submit(request)

    def drain(self, max_batch: int) -> List[ScoreRequest]:
        """Pop up to *max_batch* requests, FIFO order."""
        n = min(max_batch, len(self._pending))
        return [self._pending.popleft() for _ in range(n)]

    def fail_all(self, status: str) -> int:
        """Complete every queued request with *status*, emptying the queue.

        Shutdown path: a hard stop must not leave waiters hanging on
        requests that will never flush.  Returns how many were failed.
        """
        n = len(self._pending)
        while self._pending:
            self._pending.popleft().fail(status)
        return n
