"""Recorded event streams: a versioned, crc-framed on-disk format.

``repro record`` captures any :class:`~repro.ingest.sources.EventSource`
into a single file that ``repro replay`` can re-play at Nx real-time.
The layout deliberately mirrors the serving journal (DESIGN.md §14) so
the two formats share one failure model:

- an 8-byte header: magic ``REVS``, a format version, a reserved word;
- then frames of ``<u32 length><u32 crc32><payload>``;
- each payload is one recorded batch in the ``ingest_columns`` wire
  shape: ``<u8 rtype><u32 n_events><u32 cid_blob_len>`` + a JSON-encoded
  cascade-id list + the int64 node column + the float64 time column.

Unlike the journal — a live artifact where a torn tail is expected and
repaired — a recording is an offline corpus: any mismatch (bad magic,
unknown version, crc failure, truncated frame) raises
:class:`RecordingCorruptError` rather than being silently trimmed.
"""

from __future__ import annotations

import asyncio
import json
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path
from types import TracebackType
from typing import (
    TYPE_CHECKING,
    Any,
    BinaryIO,
    Callable,
    Dict,
    Iterator,
    Optional,
    Sequence,
    Type,
)

import numpy as np

from repro.ingest.sources import EventBatch

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.ingest.sources import EventSource

__all__ = [
    "RecordingError",
    "RecordingCorruptError",
    "StreamInfo",
    "StreamWriter",
    "iter_batches",
    "stream_info",
    "record_stream",
    "record_source",
]

_MAGIC = b"REVS"
_VERSION = 1
_HEADER = struct.Struct("<4sHH")  # magic, version, reserved
_FRAME = struct.Struct("<II")  # payload length, crc32(payload)
_BATCH_HEAD = struct.Struct("<BII")  # rtype, n_events, cid_blob length
_RT_BATCH = 1


class RecordingError(RuntimeError):
    """Base error for recording I/O."""


class RecordingCorruptError(RecordingError):
    """The recording violates the framed format (crc, magic, truncation)
    or a frame's contents (an undecodable id column, non-finite or
    decreasing times)."""


def _encode_batch(batch: EventBatch) -> bytes:
    cid_blob = json.dumps(list(batch.cascade_ids)).encode("utf-8")
    head = _BATCH_HEAD.pack(_RT_BATCH, len(batch), len(cid_blob))
    return b"".join(
        (head, cid_blob, batch.nodes.tobytes(), batch.times.tobytes())
    )


def _decode_batch(payload: bytes) -> EventBatch:
    if len(payload) < _BATCH_HEAD.size:
        raise RecordingCorruptError("record payload shorter than its header")
    rtype, n, cid_len = _BATCH_HEAD.unpack_from(payload)
    if rtype != _RT_BATCH:
        raise RecordingCorruptError(f"unknown record type {rtype}")
    off = _BATCH_HEAD.size
    expected = off + cid_len + 8 * n + 8 * n
    if len(payload) != expected:
        raise RecordingCorruptError(
            f"record payload is {len(payload)} bytes, expected {expected}"
        )
    try:
        cids = json.loads(payload[off : off + cid_len].decode("utf-8"))
    except ValueError as exc:  # UnicodeDecodeError and JSONDecodeError both
        raise RecordingCorruptError(f"cascade-id column: {exc}") from exc
    off += cid_len
    nodes = np.frombuffer(payload, dtype=np.int64, count=n, offset=off)
    off += 8 * n
    times = np.frombuffer(payload, dtype=np.float64, count=n, offset=off)
    if not isinstance(cids, list) or len(cids) != n:
        raise RecordingCorruptError("cascade-id column does not match n_events")
    try:
        return EventBatch(cids, nodes, times)
    except ValueError as exc:  # a NaN/inf or decreasing time
        raise RecordingCorruptError(f"record times: {exc}") from exc


@dataclass(frozen=True)
class StreamInfo:
    """Summary of a recording (``repro replay`` prints it before running)."""

    path: str
    n_records: int
    n_events: int
    n_cascades: int
    t_first: float
    t_last: float

    @property
    def duration_s(self) -> float:
        """Recorded stream span in seconds (0 for empty streams)."""
        return max(0.0, self.t_last - self.t_first)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "path": self.path,
            "n_records": self.n_records,
            "n_events": self.n_events,
            "n_cascades": self.n_cascades,
            "t_first": self.t_first,
            "t_last": self.t_last,
            "duration_s": self.duration_s,
        }


class StreamWriter:
    """Append event batches to a recording file.

    Enforces the stream contract on the way in: batches must be
    time-ordered not just internally (:class:`EventBatch` checks that)
    but across batches — the first event of a batch may not precede the
    last event of the previous one.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._fh: Optional[BinaryIO] = self.path.open("wb")
        self._fh.write(_HEADER.pack(_MAGIC, _VERSION, 0))
        self.n_records = 0
        self.n_events = 0
        self._t_last: Optional[float] = None

    def write_batch(self, batch: EventBatch) -> None:
        if self._fh is None:
            raise RecordingError("writer is closed")
        if len(batch) == 0:
            return
        if self._t_last is not None and batch.t_first < self._t_last:
            raise RecordingError(
                f"out-of-order batch: starts at {batch.t_first:.6f} but the "
                f"stream is already at {self._t_last:.6f}"
            )
        payload = _encode_batch(batch)
        self._fh.write(_FRAME.pack(len(payload), zlib.crc32(payload)))
        self._fh.write(payload)
        self.n_records += 1
        self.n_events += len(batch)
        self._t_last = batch.t_last

    def write_columns(
        self,
        cascade_ids: Sequence[str],
        nodes: Sequence[int],
        times: Sequence[float],
    ) -> None:
        """Convenience: frame raw event columns as one batch."""
        self.write_batch(EventBatch(cascade_ids, nodes, times))

    def close(self) -> None:
        if self._fh is not None:
            self._fh.flush()
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "StreamWriter":
        return self

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> None:
        self.close()


def _read_header(fh: BinaryIO, path: Path) -> None:
    head = fh.read(_HEADER.size)
    if len(head) != _HEADER.size:
        raise RecordingCorruptError(f"{path}: truncated header")
    magic, version, _ = _HEADER.unpack(head)
    if magic != _MAGIC:
        raise RecordingCorruptError(f"{path}: bad magic {magic!r}")
    if version != _VERSION:
        raise RecordingCorruptError(
            f"{path}: unsupported stream version {version}"
        )


def iter_batches(path: str | Path) -> Iterator[EventBatch]:
    """Yield recorded batches in order, verifying every frame's crc."""
    path = Path(path)
    with path.open("rb") as fh:
        _read_header(fh, path)
        index = 0
        while True:
            frame = fh.read(_FRAME.size)
            if not frame:
                return
            if len(frame) != _FRAME.size:
                raise RecordingCorruptError(
                    f"{path}: truncated frame header at record {index}"
                )
            length, crc = _FRAME.unpack(frame)
            payload = fh.read(length)
            if len(payload) != length:
                raise RecordingCorruptError(
                    f"{path}: truncated payload at record {index}"
                )
            if zlib.crc32(payload) != crc:
                raise RecordingCorruptError(
                    f"{path}: crc mismatch at record {index}"
                )
            yield _decode_batch(payload)
            index += 1


def stream_info(path: str | Path) -> StreamInfo:
    """Scan a recording and summarise it (verifies every frame)."""
    path = Path(path)
    n_records = 0
    n_events = 0
    cascades = set()
    t_first: Optional[float] = None
    t_last = 0.0
    for batch in iter_batches(path):
        if t_first is None:
            t_first = batch.t_first
        t_last = batch.t_last
        n_records += 1
        n_events += len(batch)
        cascades.update(batch.cascade_ids)
    return StreamInfo(
        path=str(path),
        n_records=n_records,
        n_events=n_events,
        n_cascades=len(cascades),
        t_first=t_first if t_first is not None else 0.0,
        t_last=t_last,
    )


async def record_stream(
    source: "EventSource",
    path: str | Path,
    progress: Optional[Callable[[int, int], None]] = None,
) -> StreamInfo:
    """Drain *source* into a recording at *path*.

    *progress*, if given, is called after each batch with the cumulative
    ``(n_records, n_events)``.  Returns the summary of what was written.
    """
    path = Path(path)
    loop = asyncio.get_running_loop()
    cascades = set()
    t_first: Optional[float] = None
    t_last = 0.0
    writer = StreamWriter(path)
    try:
        async for batch in source:
            if len(batch) == 0:
                continue
            await loop.run_in_executor(None, writer.write_batch, batch)
            if t_first is None:
                t_first = batch.t_first
            t_last = batch.t_last
            cascades.update(batch.cascade_ids)
            if progress is not None:
                progress(writer.n_records, writer.n_events)
        n_records, n_events = writer.n_records, writer.n_events
    finally:
        await loop.run_in_executor(None, writer.close)
    return StreamInfo(
        path=str(path),
        n_records=n_records,
        n_events=n_events,
        n_cascades=len(cascades),
        t_first=t_first if t_first is not None else 0.0,
        t_last=t_last,
    )


def record_source(
    source: "EventSource",
    path: str | Path,
    progress: Optional[Callable[[int, int], None]] = None,
) -> StreamInfo:
    """Synchronous wrapper around :func:`record_stream`."""
    return asyncio.run(record_stream(source, path, progress))
