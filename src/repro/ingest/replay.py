"""Rate-controlled replay: recorded streams at Nx real-time (DESIGN.md §17).

The engine turns a recorded corpus into load: a producer task paces
event bursts against the recording's own timestamps through a token
bucket (``speed`` recorded-seconds per wall-second, a small ``burst_s``
allowance for scheduler jitter), a bounded in-flight queue provides
backpressure, and a single ordered consumer folds each burst into the
target — an in-process ``ScoringService``/``ShardedScoringService`` or a
``TCPScoringClient``.  Ordering is preserved end to end, which is what
makes replay bit-identical to direct columnar ingest.

When the target pushes back (``QueueFullError``, or a server-side
reject mapped onto it), the consumer climbs a bounded exponential
backoff ladder; past the retry budget the configured overload policy
decides: ``block`` raises (the run fails loudly), ``shed`` drops the
burst and counts it.  An :class:`SLOMeter` watches the whole run and
produces the structured report ``repro replay`` prints.
"""

from __future__ import annotations

import asyncio
import contextlib
import functools
import math
import time
from dataclasses import dataclass
from typing import (
    Any,
    Awaitable,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.ingest.sources import EventBatch, EventSource, chunk_columns
from repro.serving.batching import QueueFullError

__all__ = [
    "ReplayError",
    "ReplayOverloadError",
    "ReplayConfig",
    "ReplayProgress",
    "SLOReport",
    "SLOMeter",
    "TokenBucket",
    "ReplayEngine",
    "replay_source",
    "replay_recording",
]

Clock = Callable[[], float]

#: Exceptions the retry ladder treats as backpressure (retryable).
BACKPRESSURE_ERRORS: Tuple[type, ...] = (QueueFullError,)


class ReplayError(RuntimeError):
    """A replay run failed."""


class ReplayOverloadError(ReplayError):
    """The target kept rejecting past the retry budget under ``block``."""


@dataclass(frozen=True)
class ReplayConfig:
    """Knobs of a replay run.

    ``speed`` is the real-time multiple: 1.0 re-creates the recorded
    cadence, 10.0 compresses ten recorded seconds into one wall-clock
    second, ``None`` disables pacing entirely (flat out — the throughput
    bench mode).  ``chunk_events`` re-chunks the recorded batches into
    bursts of at most that many events before pacing; ``max_inflight``
    bounds bursts queued between producer and consumer (the
    backpressure window).  On a reject the consumer retries up to
    ``max_retries`` times with exponential backoff
    (``backoff_base_s * 2**attempt``, capped at ``backoff_cap_s``), then
    applies ``overload``: ``"block"`` raises, ``"shed"`` drops the
    burst.  ``score_every`` scores each burst's cascades every Nth
    burst, folding scoring latency into the SLO; ``slo_p99_ms``, if
    set, turns the report's p99 into a pass/fail gate over windows of
    ``window_s`` seconds.
    """

    speed: Optional[float] = 1.0
    burst_s: float = 0.25
    chunk_events: Optional[int] = None
    max_inflight: int = 4
    max_retries: int = 8
    backoff_base_s: float = 0.005
    backoff_cap_s: float = 0.5
    overload: str = "block"
    score_every: Optional[int] = None
    window_s: float = 1.0
    slo_p99_ms: Optional[float] = None

    def __post_init__(self) -> None:
        # NaN passes every ordered comparison: require finite values
        # before the range checks
        for name in (
            "speed",
            "burst_s",
            "backoff_base_s",
            "backoff_cap_s",
            "window_s",
            "slo_p99_ms",
        ):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.speed is not None and self.speed <= 0:
            raise ValueError("speed must be > 0 (or None for flat out)")
        if self.burst_s < 0:
            raise ValueError("burst_s must be >= 0")
        if self.chunk_events is not None and self.chunk_events < 1:
            raise ValueError("chunk_events must be >= 1")
        if self.max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.backoff_base_s < 0 or self.backoff_cap_s < 0:
            raise ValueError("backoff values must be >= 0")
        if self.overload not in ("block", "shed"):
            raise ValueError("overload must be 'block' or 'shed'")
        if self.score_every is not None and self.score_every < 1:
            raise ValueError("score_every must be >= 1")
        if self.window_s <= 0:
            raise ValueError("window_s must be > 0")
        if self.slo_p99_ms is not None and self.slo_p99_ms <= 0:
            raise ValueError("slo_p99_ms must be > 0")


class TokenBucket:
    """Pace stream time against wall time.

    The bucket accrues ``speed`` recorded-seconds of budget per real
    second from the moment of the first call, plus a ``burst_s``
    allowance so small scheduler hiccups don't cascade into lag.
    :meth:`delay_for` answers: how long must the caller sleep before an
    event at stream offset ``t_rel`` may be released?
    """

    def __init__(
        self, speed: float, burst_s: float = 0.0, clock: Clock = time.monotonic
    ) -> None:
        if speed <= 0:
            raise ValueError("speed must be > 0")
        self.speed = speed
        self.burst_s = burst_s
        self._clock = clock
        self._t0: Optional[float] = None

    def delay_for(self, t_rel: float) -> float:
        """Seconds to wait before releasing stream offset *t_rel*."""
        now = self._clock()
        if self._t0 is None:
            self._t0 = now
        budget = (now - self._t0) * self.speed + self.burst_s
        if t_rel <= budget:
            return 0.0
        return (t_rel - budget) / self.speed


@dataclass(frozen=True)
class ReplayProgress:
    """Snapshot handed to the progress hook after each applied burst."""

    bursts: int  #: bursts applied so far
    events: int  #: events offered so far (applied + shed)
    applied: int  #: events accepted by the target (dup-filtered upstream)


@dataclass(frozen=True)
class SLOReport:
    """Structured result of a replay run (``repro replay`` emits it as JSON)."""

    events: int
    bursts: int
    duration_s: float
    events_per_s: float
    recorded_span_s: float
    achieved_speed: Optional[float]
    target_speed: Optional[float]
    windows: int
    window_eps_min: float
    window_eps_median: float
    window_eps_max: float
    ingest_p50_ms: float
    ingest_p95_ms: float
    ingest_p99_ms: float
    score_p50_ms: float
    score_p95_ms: float
    score_p99_ms: float
    latency_p99_ms: float
    lag_p99_ms: Optional[float]
    stalls: int
    stall_s: float
    retries: int
    dropped_events: int
    dropped_bursts: int
    scored: int
    slo_p99_ms: Optional[float]

    @property
    def ok(self) -> bool:
        """SLO verdict: latency p99 under the bound (if one was set)."""
        if self.slo_p99_ms is None:
            return True
        return self.latency_p99_ms <= self.slo_p99_ms

    def to_dict(self) -> Dict[str, Any]:
        out = dict(self.__dict__)
        out["ok"] = self.ok
        return out

    def format_lines(self) -> List[str]:
        """Human-readable summary (the CLI prints this to stderr)."""
        speed = (
            f"{self.achieved_speed:.1f}x real-time"
            if self.achieved_speed is not None
            else "flat out"
        )
        lines = [
            f"replayed {self.events} events in {self.bursts} bursts over "
            f"{self.duration_s:.2f}s ({self.events_per_s:,.0f} ev/s, {speed})",
            f"ingest latency p50/p95/p99: {self.ingest_p50_ms:.2f}/"
            f"{self.ingest_p95_ms:.2f}/{self.ingest_p99_ms:.2f} ms",
        ]
        if self.scored:
            lines.append(
                f"score latency p50/p95/p99: {self.score_p50_ms:.2f}/"
                f"{self.score_p95_ms:.2f}/{self.score_p99_ms:.2f} ms "
                f"({self.scored} cascades scored)"
            )
        lines.append(
            f"backpressure: {self.stalls} stalls ({self.stall_s * 1e3:.0f} ms), "
            f"{self.retries} retries, {self.dropped_events} events shed"
        )
        if self.slo_p99_ms is not None:
            verdict = "PASS" if self.ok else "FAIL"
            lines.append(
                f"SLO p99 <= {self.slo_p99_ms:.1f} ms: {verdict} "
                f"(observed {self.latency_p99_ms:.2f} ms)"
            )
        return lines


def _percentile(samples: Sequence[float], q: float) -> float:
    if not samples:
        return 0.0
    return float(np.percentile(np.asarray(samples, dtype=np.float64), q))


class SLOMeter:
    """Accumulates per-run and per-window service-level observations.

    Windows are fixed ``window_s`` buckets of wall time starting at the
    first release; per-window events/s exposes *sustained* throughput
    (a run that alternates bursts and stalls has a high mean but a low
    minimum window).
    """

    def __init__(
        self, clock: Clock = time.monotonic, window_s: float = 1.0
    ) -> None:
        self._clock = clock
        self._window_s = window_s
        self._t_start: Optional[float] = None
        self._ingest_ms: List[float] = []
        self._score_ms: List[float] = []
        self._lag_ms: List[float] = []
        self._window_events: Dict[int, int] = {}
        self.events = 0
        self.bursts = 0
        self.stalls = 0
        self.stall_s = 0.0
        self.retries = 0
        self.dropped_events = 0
        self.dropped_bursts = 0
        self.scored = 0

    def begin(self) -> None:
        if self._t_start is None:
            self._t_start = self._clock()

    def record_burst(
        self, n_events: int, ingest_s: float, lag_s: Optional[float] = None
    ) -> None:
        self.begin()
        assert self._t_start is not None
        self.events += n_events
        self.bursts += 1
        self._ingest_ms.append(ingest_s * 1e3)
        if lag_s is not None:
            self._lag_ms.append(max(0.0, lag_s) * 1e3)
        w = int((self._clock() - self._t_start) / self._window_s)
        self._window_events[w] = self._window_events.get(w, 0) + n_events

    def record_score(self, n_cascades: int, score_s: float) -> None:
        self.scored += n_cascades
        self._score_ms.append(score_s * 1e3)

    def record_stall(self, seconds: float) -> None:
        self.stalls += 1
        self.stall_s += seconds

    def record_retry(self) -> None:
        self.retries += 1

    def record_drop(self, n_events: int) -> None:
        self.dropped_events += n_events
        self.dropped_bursts += 1

    def finish(
        self,
        recorded_span_s: float,
        target_speed: Optional[float],
        slo_p99_ms: Optional[float],
    ) -> SLOReport:
        end = self._clock()
        start = self._t_start if self._t_start is not None else end
        duration = max(end - start, 1e-9)
        eps = [
            n / self._window_s for _, n in sorted(self._window_events.items())
        ]
        latency = self._ingest_ms + self._score_ms
        achieved = (
            recorded_span_s / duration if target_speed is not None else None
        )
        return SLOReport(
            events=self.events,
            bursts=self.bursts,
            duration_s=duration,
            events_per_s=self.events / duration,
            recorded_span_s=recorded_span_s,
            achieved_speed=achieved,
            target_speed=target_speed,
            windows=len(eps),
            window_eps_min=min(eps) if eps else 0.0,
            window_eps_median=_percentile(eps, 50.0),
            window_eps_max=max(eps) if eps else 0.0,
            ingest_p50_ms=_percentile(self._ingest_ms, 50.0),
            ingest_p95_ms=_percentile(self._ingest_ms, 95.0),
            ingest_p99_ms=_percentile(self._ingest_ms, 99.0),
            score_p50_ms=_percentile(self._score_ms, 50.0),
            score_p95_ms=_percentile(self._score_ms, 95.0),
            score_p99_ms=_percentile(self._score_ms, 99.0),
            latency_p99_ms=_percentile(latency, 99.0),
            lag_p99_ms=_percentile(self._lag_ms, 99.0) if self._lag_ms else None,
            stalls=self.stalls,
            stall_s=self.stall_s,
            retries=self.retries,
            dropped_events=self.dropped_events,
            dropped_bursts=self.dropped_bursts,
            scored=self.scored,
            slo_p99_ms=slo_p99_ms,
        )


def _rechunk(batch: EventBatch, chunk: Optional[int]) -> List[EventBatch]:
    if chunk is None or len(batch) <= chunk:
        return [batch] if len(batch) else []
    return list(
        chunk_columns(
            list(batch.cascade_ids), batch.nodes, batch.times, chunk
        )
    )


class ReplayEngine:
    """Replays an :class:`EventSource` against a scoring target.

    The target needs ``ingest_columns(cascade_ids, nodes, times)`` and —
    when scoring is enabled — ``score_columns`` or ``score_many``;
    targets flagging ``wants_executor_offload`` (the sharded router, the
    TCP client) are called through ``run_in_executor`` so their blocking
    I/O never stalls the pacing loop.
    """

    def __init__(
        self,
        target: Any,
        config: Optional[ReplayConfig] = None,
        *,
        clock: Clock = time.monotonic,
        progress: Optional[Callable[[ReplayProgress], None]] = None,
    ) -> None:
        self.target = target
        self.config = config if config is not None else ReplayConfig()
        self._clock = clock
        self._progress = progress
        self._offload = bool(getattr(target, "wants_executor_offload", False))
        self._error: Optional[BaseException] = None
        self._events_offered = 0
        self._events_applied = 0

    # ------------------------------------------------------------------ #

    async def run(self, source: EventSource) -> SLOReport:
        """Drain *source* through the pacing/retry pipeline; return the SLO."""
        cfg = self.config
        meter = SLOMeter(self._clock, cfg.window_s)
        self._error = None
        self._events_offered = 0
        self._events_applied = 0
        queue: asyncio.Queue[
            Optional[Tuple[EventBatch, Optional[float]]]
        ] = asyncio.Queue(maxsize=cfg.max_inflight)
        consumer = asyncio.get_running_loop().create_task(
            self._consume(queue, meter)
        )
        bucket: Optional[TokenBucket] = None
        t_first: Optional[float] = None
        t_last = 0.0
        try:
            async for raw in source:
                for chunk in _rechunk(raw, cfg.chunk_events):
                    if t_first is None:
                        t_first = chunk.t_first
                        meter.begin()
                    t_last = chunk.t_last
                    deadline: Optional[float] = None
                    if cfg.speed is not None:
                        if bucket is None:
                            bucket = TokenBucket(
                                cfg.speed, cfg.burst_s, self._clock
                            )
                        delay = bucket.delay_for(t_last - t_first)
                        if delay > 0:
                            await asyncio.sleep(delay)
                        deadline = self._clock()
                    if queue.full():
                        t0 = self._clock()
                        await queue.put((chunk, deadline))
                        meter.record_stall(self._clock() - t0)
                    else:
                        await queue.put((chunk, deadline))
            await queue.put(None)
            await consumer
        except BaseException:
            consumer.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await consumer
            raise
        if self._error is not None:
            raise self._error
        span = (t_last - t_first) if t_first is not None else 0.0
        return meter.finish(span, cfg.speed, cfg.slo_p99_ms)

    # ------------------------------------------------------------------ #

    async def _consume(
        self,
        queue: "asyncio.Queue[Optional[Tuple[EventBatch, Optional[float]]]]",
        meter: SLOMeter,
    ) -> None:
        """Single ordered consumer; on failure it keeps draining so the
        producer never deadlocks on a full queue."""
        cfg = self.config
        while True:
            item = await queue.get()
            if item is None:
                return
            if self._error is not None:
                continue
            chunk, deadline = item
            try:
                applied = await self._ingest_burst(chunk, deadline, meter)
                if applied is None:
                    continue  # shed
                if (
                    cfg.score_every is not None
                    and meter.bursts % cfg.score_every == 0
                ):
                    await self._score_burst(chunk, meter)
                if self._progress is not None:
                    self._progress(
                        ReplayProgress(
                            bursts=meter.bursts,
                            events=self._events_offered,
                            applied=self._events_applied,
                        )
                    )
            except asyncio.CancelledError:
                raise
            except BaseException as exc:
                self._error = exc

    async def _ingest_burst(
        self,
        chunk: EventBatch,
        deadline: Optional[float],
        meter: SLOMeter,
    ) -> Optional[int]:
        cfg = self.config
        self._events_offered += len(chunk)
        attempt = 0
        while True:
            t0 = self._clock()
            try:
                applied = await self._call(
                    self.target.ingest_columns,
                    list(chunk.cascade_ids),
                    chunk.nodes,
                    chunk.times,
                )
            except BACKPRESSURE_ERRORS as exc:
                meter.record_retry()
                if attempt >= cfg.max_retries:
                    if cfg.overload == "shed":
                        meter.record_drop(len(chunk))
                        return None
                    raise ReplayOverloadError(
                        f"target still rejecting after {attempt + 1} "
                        f"attempts: {exc}"
                    ) from exc
                await asyncio.sleep(
                    min(cfg.backoff_base_s * 2**attempt, cfg.backoff_cap_s)
                )
                attempt += 1
                continue
            t1 = self._clock()
            lag = (t1 - deadline) if deadline is not None else None
            meter.record_burst(len(chunk), t1 - t0, lag)
            n = int(applied) if applied is not None else len(chunk)
            self._events_applied += n
            return n

    async def _score_burst(self, chunk: EventBatch, meter: SLOMeter) -> None:
        cids = list(dict.fromkeys(chunk.cascade_ids))
        if not cids:
            return
        score_columns = getattr(self.target, "score_columns", None)
        t0 = self._clock()
        if score_columns is not None:
            await self._call(score_columns, cids)
        else:
            await self._call(self.target.score_many, cids)
        meter.record_score(len(cids), self._clock() - t0)

    def _call(self, fn: Callable[..., Any], *args: Any) -> Awaitable[Any]:
        if self._offload:
            loop = asyncio.get_running_loop()
            return loop.run_in_executor(None, functools.partial(fn, *args))
        return _as_coroutine(fn, *args)


async def _as_coroutine(fn: Callable[..., Any], *args: Any) -> Any:
    return fn(*args)


async def replay_source(
    source: EventSource,
    target: Any,
    config: Optional[ReplayConfig] = None,
    *,
    progress: Optional[Callable[[ReplayProgress], None]] = None,
) -> SLOReport:
    """Replay *source* against *target* and return the SLO report."""
    return await ReplayEngine(target, config, progress=progress).run(source)


def replay_recording(
    path_or_source: Any,
    target: Any,
    config: Optional[ReplayConfig] = None,
    *,
    progress: Optional[Callable[[ReplayProgress], None]] = None,
) -> SLOReport:
    """Synchronous entry point: replay a recording file (or any source).

    Accepts a path to a ``repro record`` file, or an
    :class:`EventSource` directly.
    """
    source: EventSource
    if isinstance(path_or_source, (str, bytes)) or hasattr(
        path_or_source, "__fspath__"
    ):
        from repro.ingest.sources import RecordedSource

        source = RecordedSource(path_or_source)
    else:
        source = path_or_source
    return asyncio.run(
        replay_source(source, target, config, progress=progress)
    )
