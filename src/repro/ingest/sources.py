"""Async event sources: timestamped adoption-event streams (DESIGN.md §17).

A source yields :class:`EventBatch` bursts — the columnar wire shape of
``ScoringService.ingest_columns`` (cascade-id column, node column, time
column) — in non-decreasing time order.  Time is *stream time* in
seconds: the replay engine paces releases against it, so one recorded
second at ``--speed 10`` takes a tenth of a wall-clock second.

Sources are async iterables so connectors that really wait on a network
(the GDELT 15-minute drop cadence, a Kafka topic) slot in without
changing the replay engine; the bundled sources materialise synthetic or
recorded corpora off the event loop via an executor.
"""

from __future__ import annotations

import asyncio
import json
import math
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    AsyncIterator,
    Iterator,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    runtime_checkable,
)

import numpy as np

from repro.utils.rng import SeedLike, as_generator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cascades.types import Cascade
    from repro.datasets.gdelt import GDELTConfig

__all__ = [
    "EventBatch",
    "EventSource",
    "SyntheticGDELTSource",
    "CascadeFileSource",
    "RecordedSource",
    "batches_from_cascades",
    "chunk_columns",
]


class EventBatch:
    """One columnar burst of adoption events, sorted by time.

    Mirrors the ``ingest_columns`` wire shape: parallel cascade-id /
    node / time columns.  Arrays are coerced to contiguous int64 /
    float64 and frozen; times must be finite and non-decreasing (the
    pacing contract).
    """

    __slots__ = ("cascade_ids", "nodes", "times")

    def __init__(
        self,
        cascade_ids: Sequence[str],
        nodes: Sequence[int],
        times: Sequence[float],
    ) -> None:
        cids = tuple(str(c) for c in cascade_ids)
        nodes_arr = np.ascontiguousarray(np.asarray(nodes, dtype=np.int64))
        times_arr = np.ascontiguousarray(np.asarray(times, dtype=np.float64))
        if nodes_arr.ndim != 1 or times_arr.ndim != 1:
            raise ValueError("nodes and times must be 1-D")
        if not (len(cids) == nodes_arr.size == times_arr.size):
            raise ValueError("cascade_ids, nodes, times must have equal length")
        if times_arr.size:
            if not np.all(np.isfinite(times_arr)):
                raise ValueError("event times must be finite")
            if np.any(np.diff(times_arr) < 0):
                raise ValueError("event times must be non-decreasing")
        nodes_arr.setflags(write=False)
        times_arr.setflags(write=False)
        self.cascade_ids = cids
        self.nodes = nodes_arr
        self.times = times_arr

    def __len__(self) -> int:
        return len(self.cascade_ids)

    @property
    def t_first(self) -> float:
        """Stream time of the first event (requires a non-empty batch)."""
        return float(self.times[0])

    @property
    def t_last(self) -> float:
        """Stream time of the last event (requires a non-empty batch)."""
        return float(self.times[-1])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EventBatch):
            return NotImplemented
        return (
            self.cascade_ids == other.cascade_ids
            and np.array_equal(self.nodes, other.nodes)
            and np.array_equal(self.times, other.times)
        )

    def __hash__(self) -> int:
        return hash(
            (self.cascade_ids, self.nodes.tobytes(), self.times.tobytes())
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        span = f"[{self.t_first:.3f}, {self.t_last:.3f}]" if len(self) else "[]"
        return f"EventBatch(n={len(self)}, t={span})"


@runtime_checkable
class EventSource(Protocol):
    """Anything that asynchronously yields time-ordered event batches."""

    def __aiter__(self) -> AsyncIterator[EventBatch]: ...


def chunk_columns(
    cascade_ids: Sequence[str],
    nodes: np.ndarray,
    times: np.ndarray,
    chunk: int,
) -> Iterator[EventBatch]:
    """Slice parallel event columns into :class:`EventBatch` chunks."""
    if chunk < 1:
        raise ValueError("chunk must be >= 1")
    n = len(cascade_ids)
    for lo in range(0, n, chunk):
        hi = min(lo + chunk, n)
        yield EventBatch(cascade_ids[lo:hi], nodes[lo:hi], times[lo:hi])


def batches_from_cascades(
    cascades: Sequence["Cascade"],
    *,
    span_s: float = 60.0,
    start_fraction: float = 0.75,
    chunk: int = 256,
    seed: SeedLike = 0,
    id_prefix: str = "event",
) -> List[EventBatch]:
    """Interleave a cascade corpus into one time-ordered event stream.

    Each cascade keeps its internal timing but is rescaled onto a stream
    clock: cascade starts are drawn uniformly over the first
    ``start_fraction`` of *span_s* seconds (seeded, reproducible), and
    within-cascade offsets — hours in the synthetic world — are mapped
    so the longest cascade fits the remaining span.  The merged stream
    is then stably sorted by absolute time and cut into *chunk*-event
    batches, which is exactly what a live multi-event feed looks like:
    many concurrent cascades progressing a few adoptions at a time.
    """
    # NaN passes every ordered comparison, and an infinite span
    # overflows the uniform start draw
    if not (math.isfinite(span_s) and span_s > 0):
        raise ValueError(f"span_s must be finite and > 0, got {span_s!r}")
    if not 0.0 <= start_fraction < 1.0:
        raise ValueError("start_fraction must be in [0, 1)")
    rng = as_generator(seed)
    live = [c for c in cascades if len(c)]
    if not live:
        return []
    longest = max(float(c.times[-1] - c.times[0]) for c in live)
    tail_s = span_s * (1.0 - start_fraction)
    scale = tail_s / longest if longest > 0 else 0.0
    starts = rng.uniform(0.0, span_s * start_fraction, size=len(live))

    n_total = sum(len(c) for c in live)
    cid_col = np.empty(n_total, dtype=object)
    node_col = np.empty(n_total, dtype=np.int64)
    time_col = np.empty(n_total, dtype=np.float64)
    pos = 0
    for i, c in enumerate(live):
        m = len(c)
        cid_col[pos : pos + m] = f"{id_prefix}-{i}"
        node_col[pos : pos + m] = c.nodes
        time_col[pos : pos + m] = starts[i] + (c.times - c.times[0]) * scale
        pos += m
    order = np.argsort(time_col, kind="stable")
    cids = [str(c) for c in cid_col[order]]
    return list(chunk_columns(cids, node_col[order], time_col[order], chunk))


class SyntheticGDELTSource:
    """Stream a synthetic GDELT corpus as timestamped adoption events.

    Wraps :class:`repro.datasets.gdelt.SyntheticGDELT`: samples
    *n_events* news cascades from the seeded world, then interleaves
    them with :func:`batches_from_cascades`.  Generation runs in an
    executor so the event loop stays responsive.
    """

    def __init__(
        self,
        n_events: int = 200,
        *,
        config: Optional["GDELTConfig"] = None,
        seed: SeedLike = 0,
        min_size: int = 3,
        span_s: float = 60.0,
        start_fraction: float = 0.75,
        chunk: int = 256,
    ) -> None:
        self.n_events = n_events
        self.config = config
        self.seed = seed
        self.min_size = min_size
        self.span_s = span_s
        self.start_fraction = start_fraction
        self.chunk = chunk
        self._batches: Optional[List[EventBatch]] = None

    def materialize(self) -> List[EventBatch]:
        """Sample the corpus and build the stream (cached; blocking)."""
        if self._batches is None:
            from repro.datasets.gdelt import GDELTConfig, SyntheticGDELT

            config = self.config if self.config is not None else GDELTConfig()
            world = SyntheticGDELT(config, seed=self.seed)
            cascades = world.sample_events(
                self.n_events, min_size=self.min_size, seed=self.seed
            )
            self._batches = batches_from_cascades(
                list(cascades),
                span_s=self.span_s,
                start_fraction=self.start_fraction,
                chunk=self.chunk,
                seed=self.seed,
            )
        return self._batches

    async def __aiter__(self) -> AsyncIterator[EventBatch]:
        loop = asyncio.get_running_loop()
        batches = await loop.run_in_executor(None, self.materialize)
        for batch in batches:
            yield batch


class CascadeFileSource:
    """Stream a cascade JSONL corpus as events.

    Accepts both corpus layouts the repo writes: the headered format of
    ``save_cascades_jsonl`` (``repro simulate-sbm`` / ``repro gdelt
    --out`` — first line ``{"n_nodes": ..., "n_cascades": ...}``, fully
    validated by the shared loader) and bare per-line
    ``{"nodes": [...], "times": [...]}`` records (extra keys ignored).
    Cascades are interleaved onto a stream clock exactly like
    :class:`SyntheticGDELTSource`.
    """

    def __init__(
        self,
        path: str | Path,
        *,
        span_s: float = 60.0,
        start_fraction: float = 0.75,
        chunk: int = 256,
        seed: SeedLike = 0,
    ) -> None:
        self.path = Path(path)
        self.span_s = span_s
        self.start_fraction = start_fraction
        self.chunk = chunk
        self.seed = seed
        self._batches: Optional[List[EventBatch]] = None

    def _is_headered(self) -> bool:
        """True when the first line is a ``save_cascades_jsonl`` header."""
        with self.path.open("r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    rec = json.loads(line)
                except json.JSONDecodeError:
                    return False
                return (
                    isinstance(rec, dict)
                    and "n_nodes" in rec
                    and "nodes" not in rec
                )
        return False

    def materialize(self) -> List[EventBatch]:
        """Load the corpus and build the stream (cached; blocking)."""
        if self._batches is None:
            from repro.cascades.io import load_cascades_jsonl
            from repro.cascades.types import Cascade

            cascades: List[Cascade] = []
            if self._is_headered():
                cascades = list(load_cascades_jsonl(self.path))
            else:
                with self.path.open("r", encoding="utf-8") as fh:
                    for lineno, line in enumerate(fh, start=1):
                        line = line.strip()
                        if not line:
                            continue
                        try:
                            rec = json.loads(line)
                        except json.JSONDecodeError as exc:
                            raise ValueError(
                                f"{self.path}:{lineno}: malformed cascade "
                                f"record: {exc}"
                            ) from exc
                        if "nodes" not in rec or "times" not in rec:
                            raise ValueError(
                                f"{self.path}:{lineno}: cascade record "
                                'needs "nodes" and "times" columns'
                            )
                        cascades.append(Cascade(rec["nodes"], rec["times"]))
            self._batches = batches_from_cascades(
                cascades,
                span_s=self.span_s,
                start_fraction=self.start_fraction,
                chunk=self.chunk,
                seed=self.seed,
            )
        return self._batches

    async def __aiter__(self) -> AsyncIterator[EventBatch]:
        loop = asyncio.get_running_loop()
        batches = await loop.run_in_executor(None, self.materialize)
        for batch in batches:
            yield batch


#: frames one executor call reads for :class:`RecordedSource`.  Each
#: call is a thread hop, and its decode thread contends with the
#: consumer for the interpreter lock, so one hop per frame costs the
#: flat-out replay more than the decoding does; a block much larger
#: raises peak memory for no further gain (DESIGN.md §17.3).
_BLOCK_FRAMES = 8


class RecordedSource:
    """Replay a ``repro record`` stream file as an async source.

    Batches come back exactly as recorded (same framing, same order);
    the replay engine's ``chunk_events`` knob re-chunks downstream if a
    different burst size is wanted.  File reads happen in an executor,
    a block of frames per call; a frame that fails to read raises only
    after every frame before it has been yielded.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)

    async def __aiter__(self) -> AsyncIterator[EventBatch]:
        # looked up when iteration starts, so a wrapped iter_batches
        # (a tracing harness timing decode) sees every frame
        from repro.ingest.recorder import iter_batches

        loop = asyncio.get_running_loop()
        it = iter_batches(self.path)

        def _read_block() -> Tuple[List[EventBatch], Optional[Exception]]:
            block: List[EventBatch] = []
            try:
                for _ in range(_BLOCK_FRAMES):
                    batch = next(it, None)
                    if batch is None:
                        break
                    block.append(batch)
            except Exception as exc:  # re-raised once the block is yielded
                return block, exc
            return block, None

        while True:
            block, error = await loop.run_in_executor(None, _read_block)
            for batch in block:
                yield batch
            if error is not None:
                raise error
            if len(block) < _BLOCK_FRAMES:  # the recording ended
                return

