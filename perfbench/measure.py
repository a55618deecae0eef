"""Measurement primitives shared by the benchmark's processes.

Stdlib + numpy only, and nothing here imports ``repro``: the workload
processes time the program, this module only does the arithmetic.

- :func:`percentile` / :func:`top_percentile` — a percentile together with
  the sample count behind it and how many samples lie beyond it.
- :class:`SpanRecorder` — in-memory spans (name, start, end, parent) with
  self time = duration minus the union of the child intervals.
- ``/proc`` readers — CPU seconds from ``stat``, peak RSS from ``status``
  and the process tree from ``task/*/children``.
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

#: percentiles considered for the top reported percentile, highest first
TOP_CANDIDATES = (99.9, 99.0, 90.0)
#: samples that must lie beyond a percentile before it is reported
MIN_BEYOND = 10


@dataclass(frozen=True)
class Percentile:
    """One percentile of a sample, with the counts that qualify it."""

    q: float
    value: float
    n: int  #: samples in the population
    beyond: int  #: samples strictly greater than ``value``

    def describe(self, unit: str = "") -> str:
        return (
            f"p{self.q:g}={self.value:.4g}{unit} "
            f"(n={self.n}, {self.beyond} beyond)"
        )


def percentile(samples: Sequence[float], q: float) -> Percentile:
    """The *q*-th percentile (numpy's linear interpolation) with counts."""
    arr = np.asarray(samples, dtype=np.float64)
    if arr.size == 0:
        raise ValueError("percentile of an empty sample")
    value = float(np.percentile(arr, q))
    return Percentile(q, value, int(arr.size), int(np.count_nonzero(arr > value)))


def top_percentile(samples: Sequence[float]) -> Percentile:
    """The highest of :data:`TOP_CANDIDATES` with at least
    :data:`MIN_BEYOND` samples expected beyond it (the median otherwise)."""
    n = len(samples)
    for q in TOP_CANDIDATES:
        if round(n * (100.0 - q) / 100.0, 6) >= MIN_BEYOND:
            return percentile(samples, q)
    return percentile(samples, 50.0)


def median(values: Sequence[float]) -> float:
    return float(np.median(np.asarray(values, dtype=np.float64)))


# --------------------------------------------------------------------- #
# Spans
# --------------------------------------------------------------------- #


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered(intervals: Sequence[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of *intervals*."""
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in intervals if min(b, hi) > max(a, lo)
    )
    total = 0.0
    cur_a: Optional[float] = None
    cur_b = 0.0
    for a, b in clipped:
        if cur_a is None or a > cur_b:
            if cur_a is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_a is not None:
        total += cur_b - cur_a
    return total


class SpanRecorder:
    """Collects spans in memory; written out once, when the run ends.

    A span's parent is the innermost span open on the same thread, or —
    for spans recorded on executor threads, which have no open span —
    :attr:`default_parent`.  Disabled recorders keep nothing, so the same
    code path runs traced and untraced.
    """

    def __init__(self, enabled: bool = True, clock=time.perf_counter) -> None:
        self.enabled = enabled
        self.clock = clock
        self.spans: List[Span] = []
        self.default_parent: Optional[int] = None
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, name: str, start: float, end: float, parent: Optional[int] = None) -> int:
        """Record a finished span; returns its id (-1 when disabled)."""
        if not self.enabled:
            return -1
        if parent is None:
            stack = self._stack()
            parent = stack[-1] if stack else self.default_parent
        with self._lock:
            span_id = len(self.spans)
            self.spans.append(Span(span_id, name, start, end, parent))
        return span_id

    @contextmanager
    def span(self, name: str) -> Iterator[Optional[Span]]:
        """Time the block as a span nested under the current one."""
        if not self.enabled:
            yield None
            return
        stack = self._stack()
        parent = stack[-1] if stack else self.default_parent
        with self._lock:
            span = Span(len(self.spans), name, self.clock(), float("nan"), parent)
            self.spans.append(span)
        stack.append(span.id)
        try:
            yield span
        finally:
            stack.pop()
            span.end = self.clock()

    def total(self, name: str) -> float:
        """Summed duration of every span called *name*."""
        return float(sum(s.duration for s in self.spans if s.name == name))

    def durations(self, name: str) -> List[float]:
        return [s.duration for s in self.spans if s.name == name]

    def self_time(self, span: Span) -> float:
        """Duration of *span* minus the part its children cover."""
        children = [(c.start, c.end) for c in self.spans if c.parent == span.id]
        return span.duration - covered(children, span.start, span.end)

    def to_records(self) -> List[Dict[str, object]]:
        return [
            {"id": s.id, "name": s.name, "start": s.start, "end": s.end, "parent": s.parent}
            for s in self.spans
        ]


# --------------------------------------------------------------------- #
# /proc
# --------------------------------------------------------------------- #

PROC = Path("/proc")


def parse_stat_cpu_s(text: str, clk_tck: int) -> float:
    """User + system CPU seconds from the text of ``/proc/<pid>/stat``.

    The command name (field 2) is parenthesised and may itself contain
    spaces or parentheses, so fields are counted after its last ``)``.
    """
    rest = text[text.rindex(")") + 2 :].split()
    # rest[0] is field 3 (state); utime and stime are fields 14 and 15
    utime, stime = int(rest[11]), int(rest[12])
    return (utime + stime) / clk_tck


def parse_status_kb(text: str, key: str) -> int:
    """A ``kB`` field of ``/proc/<pid>/status`` (e.g. ``VmHWM``)."""
    for line in text.splitlines():
        if line.startswith(key + ":"):
            return int(line.split()[1])
    raise KeyError(key)


def cpu_seconds(pid: int, proc: Path = PROC) -> float:
    return parse_stat_cpu_s(
        (proc / str(pid) / "stat").read_text(), os.sysconf("SC_CLK_TCK")
    )


def peak_rss_mb(pid: int, proc: Path = PROC) -> float:
    """Peak resident set (``VmHWM``) of *pid* in MB (10^6 bytes)."""
    return parse_status_kb((proc / str(pid) / "status").read_text(), "VmHWM") * 1024 / 1e6


def children(pid: int, proc: Path = PROC) -> List[int]:
    """Direct children of *pid*, gathered over all of its threads."""
    out: List[int] = []
    for task in sorted((proc / str(pid) / "task").iterdir()):
        try:
            out.extend(int(c) for c in (task / "children").read_text().split())
        except FileNotFoundError:  # thread exited while listing
            continue
    return sorted(set(out))


def descendants(pid: int, proc: Path = PROC) -> List[int]:
    out: List[int] = []
    todo = [pid]
    while todo:
        try:
            kids = children(todo.pop(), proc)
        except FileNotFoundError:
            continue
        out.extend(kids)
        todo.extend(kids)
    return out


def tree_peak_rss_mb(pid: int) -> float:
    """Summed peak RSS of *pid* and every live descendant."""
    total = 0.0
    for p in [pid, *descendants(pid)]:
        try:
            total += peak_rss_mb(p)
        except (FileNotFoundError, ProcessLookupError):
            continue
    return total
