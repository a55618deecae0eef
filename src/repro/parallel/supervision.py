"""Worker supervision: deadlines, liveness, retry with graceful degradation.

The bare ``imap_unordered`` drain of PR 1 assumed every worker survives.
Real inference runs last hours (NETINF-style corpora), exactly the regime
where a worker OOM-killed mid-level, a segfault in native code, or a hung
task otherwise deadlocks the level and discards all completed work.  This
module supplies the pieces the :class:`~repro.parallel.backends
.MultiprocessBackend` composes into a fault-tolerant dispatch loop:

* :class:`SupervisionConfig` — deadlines, retry budget, backoff, polling.
* :class:`FaultLogEntry` — one structured record per detected fault
  (timeout / crash / exception), accumulated into the level's
  ``DispatchStats.fault_log`` and surfaced through
  :class:`~repro.parallel.hierarchical.HierarchicalResult`.
* :class:`SupervisedDispatcher` — the loop itself.  It keeps at most
  ``n_workers`` tasks outstanding (so every submitted task is actually
  *running*, which makes submission time a faithful start time for
  deadline accounting and bounds the blast radius of a pool respawn),
  polls async results, watches pool-process liveness, and on any fault
  respawns the pool and re-dispatches the incomplete tasks.
* :class:`_FaultPlan` / :func:`inject_fault` — a test-only hook shipped
  to workers inside the payload, so kill/hang/retry behaviour is driven
  deterministically (a chosen task at a chosen attempt raises, calls
  ``os._exit``, or sleeps past its deadline) instead of by flaky timing.

**Retry ladder.**  A failed attempt is retried with exponential
backoff under one rule: attempts before ``max_retries`` run in the pool
(``arena``: the zero-copy shared-memory payload), and the last permitted
attempt, attempt ``max_retries``, runs ``serial`` in the parent, which a
worker fault cannot kill.  A fault is therefore only ever recorded for a
pool attempt, whose next attempt is still within the budget, so one
pathological community degrades to serial execution instead of failing
the whole run; an exception the task raises in the parent is the task's
own and propagates.  Every retry first re-seeds the task's embedding
rows from its original seed, so a partial scatter by a dying worker can
never leak into the retried computation — results stay bit-identical to
:class:`~repro.parallel.backends.SerialBackend` no matter how many faults
occurred.

**Zombie writes.**  A hung worker that later wakes must not scatter stale
rows over a retry's result.  The dispatcher therefore never retries a
timed-out task while its old attempt might still be alive: any timeout or
crash tears down the whole pool generation (killing stragglers) before
incomplete tasks are re-dispatched.  Parent-owned shared segments (arena,
selection, A/B blocks) survive respawn untouched; fresh workers simply
re-attach and re-warm their compile caches.
"""

from __future__ import annotations

import heapq
import itertools
import math
import os
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = [
    "FaultLogEntry",
    "SupervisionConfig",
    "InjectedFault",
    "DispatchOutcome",
    "SupervisedDispatcher",
    "inject_fault",
]


class InjectedFault(RuntimeError):
    """Raised inside a worker by a test fault plan (``action="raise"``)."""


@dataclass(frozen=True)
class FaultLogEntry:
    """One detected fault during a level's dispatch.

    Attributes
    ----------
    task_idx:
        Position of the task in the level's task list.
    community_id:
        The community the task optimizes.
    attempt:
        Zero-based attempt number that failed.
    cause:
        ``"timeout"`` (deadline exceeded), ``"crash"`` (a pool process
        died while the task was in flight — attribution is per
        generation, so co-scheduled tasks may each carry an entry), or
        ``"exception"`` (the worker raised).
    fallback:
        Execution rung of the *next* attempt: ``"arena"`` (the pool) or
        ``"serial"`` (the parent, for the last permitted attempt).
    detail:
        Human-readable specifics (exception repr, deadline, exit codes).
    elapsed_seconds:
        Time the failed attempt had been in flight.
    """

    task_idx: int
    community_id: int
    attempt: int
    cause: str
    fallback: str
    detail: str = ""
    elapsed_seconds: float = 0.0


@dataclass(frozen=True)
class SupervisionConfig:
    """Knobs of the supervised dispatch loop.

    Attributes
    ----------
    max_retries:
        Extra attempts allowed per task beyond the first (so a task runs
        at most ``max_retries + 1`` times).  Attempts ``0 .. max_retries
        - 1`` run in the pool and the last permitted attempt, attempt
        ``max_retries``, runs serially in the parent.  The default 3 thus
        allows up to three pool attempts before the parent; ``0`` runs
        attempt 0, hence every task, in the parent.
    task_timeout:
        Explicit per-task deadline in seconds.  ``None`` derives one from
        the backend's :class:`~repro.parallel.costmodel
        .DispatchCostEstimator` as ``max(timeout_floor, timeout_factor ×
        predicted_seconds)`` — and leaves the task un-deadlined at level
        0, before the estimator has observed anything.
    timeout_factor, timeout_floor:
        The derivation above.  The generous defaults only catch tasks
        that are pathologically slower than the cost model predicts.
    backoff_seconds:
        Base of the exponential backoff before re-dispatching a failed
        task (attempt *k* waits ``backoff_seconds × 2^(k-1)``).
    poll_interval:
        Supervision loop tick in seconds (result polling, liveness
        checks, deadline sweeps).
    """

    max_retries: int = 3
    task_timeout: Optional[float] = None
    timeout_factor: float = 10.0
    timeout_floor: float = 10.0
    backoff_seconds: float = 0.05
    poll_interval: float = 0.01

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        # NaN passes every ordered comparison, and a NaN deadline would
        # never expire: require finite values before the range checks.
        for name in (
            "task_timeout",
            "timeout_factor",
            "timeout_floor",
            "backoff_seconds",
            "poll_interval",
        ):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.task_timeout is not None and self.task_timeout <= 0:
            raise ValueError("task_timeout must be positive (or None)")
        if self.timeout_factor <= 0 or self.timeout_floor <= 0:
            raise ValueError("timeout_factor and timeout_floor must be positive")
        if self.backoff_seconds < 0:
            raise ValueError("backoff_seconds must be >= 0")
        if self.poll_interval <= 0:
            raise ValueError("poll_interval must be positive")


# --------------------------------------------------------------------- #
# Test-only fault injection
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class _FaultPlan:
    """Deterministic fault injection for one task (test-only).

    Shipped to the worker inside the payload; :func:`inject_fault` fires
    it *before* the task computes, so a faulted attempt never partially
    scatters rows (the retry-reseed path is exercised separately by the
    crash tests, whose ``os._exit`` can land anywhere).

    Attributes
    ----------
    task_idx:
        Which task in the level to sabotage.
    action:
        ``"raise"`` (worker raises :class:`InjectedFault`), ``"exit"``
        (worker hard-dies via ``os._exit``), or ``"hang"`` (worker sleeps
        ``hang_seconds``, past any sane deadline).
    attempts:
        Attempt numbers at which to fire (e.g. ``(0,)`` fails only the
        first try).
    hang_seconds:
        Sleep duration for ``action="hang"``.
    """

    task_idx: int
    action: str
    attempts: Tuple[int, ...] = (0,)
    hang_seconds: float = 3600.0

    def __post_init__(self) -> None:
        if self.action not in ("raise", "exit", "hang"):
            raise ValueError(f"unknown fault action {self.action!r}")

    def spec_for(self, task_idx: int, attempt: int) -> Optional[Tuple[str, float]]:
        """Payload fault spec for (task, attempt), or ``None``."""
        if task_idx == self.task_idx and attempt in self.attempts:
            return (self.action, self.hang_seconds)
        return None


def inject_fault(spec: Optional[Tuple[str, float]]) -> None:
    """Worker-side trigger: act on a payload fault spec (no-op if None)."""
    if spec is None:
        return
    action, hang_seconds = spec
    if action == "raise":
        raise InjectedFault("injected worker exception (test fault plan)")
    if action == "exit":
        os._exit(13)
    if action == "hang":  # pragma: no branch - only three actions exist
        time.sleep(hang_seconds)


# --------------------------------------------------------------------- #
# The supervised dispatch loop
# --------------------------------------------------------------------- #


@dataclass
class _InFlight:
    """Book-keeping for one submitted attempt."""

    result: object  # multiprocessing.pool.AsyncResult
    attempt: int
    submitted_at: float
    deadline: Optional[float]


@dataclass
class DispatchOutcome:
    """What a supervised level dispatch produced."""

    records: Dict[int, Tuple]
    #: one entry per retry: every fault schedules exactly one
    fault_log: List[FaultLogEntry] = field(default_factory=list)
    n_respawns: int = 0


class SupervisedDispatcher:
    """Drive one level's payloads through a host backend, surviving faults.

    The *host* (duck-typed; implemented by ``MultiprocessBackend``) owns
    the pool, the payload format, and the shared segments; the
    dispatcher owns scheduling, deadlines, liveness, and the retry
    ladder.  Host protocol::

        submit_attempt(task_idx, attempt) -> AsyncResult   # pool attempt
        run_serial_fallback(task_idx) -> record tuple      # in the parent
        reseed_tasks(task_indices)        # rewrite A/B seed rows
        respawn_pool()                    # terminate generation, fresh pool
        pool_damaged() -> bool            # any worker of this generation died
        task_deadline(task_idx) -> Optional[float]
        task_community(task_idx) -> int
    """

    def __init__(self, host, config: SupervisionConfig, n_workers: int) -> None:
        self.host = host
        self.config = config
        self.n_workers = max(1, int(n_workers))

    # ------------------------------------------------------------------ #

    def _rung_for(self, attempt: int) -> str:
        """Execution rung of an attempt: the pool while retries remain,
        the parent for the last permitted attempt."""
        return "arena" if attempt < self.config.max_retries else "serial"

    def run(self, order: Sequence[int]) -> DispatchOutcome:
        """Execute every task in *order* (LPT) to completion.

        Returns one record per task, each counted exactly once no matter
        how many attempts it took.
        """
        cfg = self.config
        out = DispatchOutcome(records={})
        pending = deque(order)  # never-yet-submitted, in LPT order
        retry_heap: List[Tuple[float, int, int, int]] = []  # (ready_at, seq, idx, attempt)
        seq = itertools.count()
        inflight: Dict[int, _InFlight] = {}

        def launch(idx: int, attempt: int) -> None:
            if self._rung_for(attempt) == "serial":
                # In-process: cannot be killed or lost; genuine exceptions
                # propagate (they indicate the task itself, not the
                # harness, is broken).
                out.records[idx] = self.host.run_serial_fallback(idx)
                return
            inflight[idx] = _InFlight(
                result=self.host.submit_attempt(idx, attempt),
                attempt=attempt,
                submitted_at=time.monotonic(),
                deadline=self.host.task_deadline(idx),
            )

        def record_fault(idx: int, attempt: int, cause: str, detail: str, elapsed: float) -> None:
            # Only pool attempts fault, and a pool attempt is never the
            # last permitted one, so the next attempt is within budget.
            out.fault_log.append(
                FaultLogEntry(
                    task_idx=idx,
                    community_id=self.host.task_community(idx),
                    attempt=attempt,
                    cause=cause,
                    fallback=self._rung_for(attempt + 1),
                    detail=detail,
                    elapsed_seconds=elapsed,
                )
            )
            # A dying attempt may have partially scattered rows: restore
            # the task's seed before the retry so results stay exact.
            self.host.reseed_tasks([idx])
            ready_at = time.monotonic() + cfg.backoff_seconds * (2 ** attempt)
            heapq.heappush(retry_heap, (ready_at, next(seq), idx, attempt + 1))

        def handle_crash() -> None:
            """Kill the damaged generation and requeue its in-flight tasks.

            Worker death cannot be attributed to a single task from the
            parent, so every in-flight task of the dead generation
            carries a fault entry and burns an attempt.
            """
            victims = list(inflight.items())
            inflight.clear()
            self.host.respawn_pool()
            out.n_respawns += 1
            now = time.monotonic()
            for idx, f in victims:
                record_fault(
                    idx,
                    f.attempt,
                    "crash",
                    "pool process died while task was in flight",
                    now - f.submitted_at,
                )

        while pending or retry_heap or inflight:
            progressed = False

            # Promote retries whose backoff expired (ahead of fresh tasks:
            # they have been waiting longest and may be the stragglers).
            now = time.monotonic()
            while retry_heap and retry_heap[0][0] <= now:
                _, _, idx, attempt = heapq.heappop(retry_heap)
                if len(inflight) < self.n_workers:
                    launch(idx, attempt)
                    progressed = True
                else:
                    heapq.heappush(retry_heap, (now, next(seq), idx, attempt))
                    break

            # Top up to one outstanding task per worker — never more, so
            # a submitted task is actually running, not queued.
            while pending and len(inflight) < self.n_workers:
                launch(pending.popleft(), 0)
                progressed = True

            # Collect completions (and worker-raised exceptions).
            for idx in [i for i, f in inflight.items() if f.result.ready()]:
                f = inflight.pop(idx)
                progressed = True
                try:
                    out.records[idx] = f.result.get()
                except Exception as exc:
                    record_fault(
                        idx,
                        f.attempt,
                        "exception",
                        repr(exc),
                        time.monotonic() - f.submitted_at,
                    )

            if inflight:
                # Liveness: a dead pool process poisons its generation —
                # its task's result would simply never arrive.
                if self.host.pool_damaged():
                    handle_crash()
                    continue
                # Deadlines: a hung worker is indistinguishable from a
                # slow one except by its budget.
                now = time.monotonic()
                expired = [
                    (idx, f)
                    for idx, f in inflight.items()
                    if f.deadline is not None and now - f.submitted_at > f.deadline
                ]
                if expired:
                    expired_ids = {idx for idx, _ in expired}
                    survivors = [
                        (idx, f) for idx, f in inflight.items()
                        if idx not in expired_ids
                    ]
                    inflight.clear()
                    self.host.respawn_pool()
                    out.n_respawns += 1
                    self.host.reseed_tasks(
                        [idx for idx, _ in expired] + [idx for idx, _ in survivors]
                    )
                    for idx, f in expired:
                        record_fault(
                            idx,
                            f.attempt,
                            "timeout",
                            f"deadline {f.deadline:.3f}s exceeded",
                            now - f.submitted_at,
                        )
                    for idx, f in survivors:
                        heapq.heappush(
                            retry_heap, (now, next(seq), idx, f.attempt)
                        )
                    continue

            if not progressed:
                # Nothing moved this tick: wait for results / backoff /
                # deadlines without burning CPU.
                if inflight:
                    next(iter(inflight.values())).result.wait(cfg.poll_interval)
                else:
                    time.sleep(cfg.poll_interval)

        return out
