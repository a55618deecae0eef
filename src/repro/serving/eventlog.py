"""The event-log format shared by the journal and the recording.

A serving journal segment (``serving/durability.py``, magic ``RWAL``)
and a ``repro record`` stream (``ingest/recorder.py``, magic ``REVS``)
are the same kind of file (DESIGN.md §14.1, §17.2):

- an 8-byte header ``<4sHH``: the caller's magic, format version 1, a
  reserved word;
- then frames ``<II`` (payload length, crc32 of the payload) + payload;
- an events payload is ``<BII`` (record type 1, event count *n*, id-blob
  length) + the JSON-encoded cascade-id list + *n* int64 nodes + *n*
  float64 times.  The journal also writes swap payloads (type 2), which
  ``durability.py`` encodes and decodes itself.

:func:`iter_frames` reads a log frame by frame and raises
:class:`EventLogError` at the first fault; each caller keeps its own
rule for what that fault means.  A recording rejects every fault; the
journal treats a fault in its final segment as a torn tail that
recovery truncates at the fault's offset.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from dataclasses import dataclass
from typing import BinaryIO, Iterator, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "JOURNAL_MAGIC",
    "RECORDING_MAGIC",
    "VERSION",
    "HEADER",
    "FRAME",
    "EventLogError",
    "EventsRecord",
    "header",
    "frame",
    "iter_frames",
    "encode_events",
    "decode_events",
]

JOURNAL_MAGIC = b"RWAL"
RECORDING_MAGIC = b"REVS"
VERSION = 1
HEADER = struct.Struct("<4sHH")  # magic, version, reserved
FRAME = struct.Struct("<II")  # payload length, crc32(payload)
_EVENTS_HEAD = struct.Struct("<BII")  # record type, n events, id-blob length
_RT_EVENTS = 1


class EventLogError(ValueError):
    """A fault in an event log: a broken frame or a malformed payload.

    ``reason`` says what is wrong.  ``offset`` is where the intact
    prefix of the log ends: the byte offset of the faulty frame, or 0
    for a short header.  It is ``None`` when no prefix of the file is a
    log of the expected kind (a bad magic or version) and for a payload
    decoded on its own.  ``index`` is the 0-based record index of a
    faulty frame (``None`` for the header or a lone payload).
    """

    def __init__(
        self, reason: str, offset: Optional[int] = None, index: Optional[int] = None
    ) -> None:
        where = "" if index is None else f" at record {index} (byte {offset})"
        super().__init__(reason + where)
        self.reason = reason
        self.offset = offset
        self.index = index


@dataclass(frozen=True)
class EventsRecord:
    """One events payload in columnar (``ingest_columns``) shape.

    Decoded columns are read-only views over the payload bytes.
    """

    cascade_ids: Sequence[str]
    nodes: np.ndarray
    times: np.ndarray


def header(magic: bytes) -> bytes:
    """The header a log with *magic* opens with."""
    return HEADER.pack(magic, VERSION, 0)


def frame(payload: bytes) -> bytes:
    """*payload* framed by its length and crc32."""
    return FRAME.pack(len(payload), zlib.crc32(payload)) + payload


def iter_frames(fh: BinaryIO, magic: bytes) -> Iterator[Tuple[int, bytes]]:
    """Check the header of the log just opened in *fh*, then yield
    ``(offset, payload)`` per frame, verifying each crc.

    Reads two pieces per frame and never the whole file; a length that
    runs past the end of the file is refused before it is read.  Raises
    :class:`EventLogError` at the first fault: a short header, a bad
    magic or version, a short frame header, a short or zero-length
    payload, or a crc mismatch.
    """
    size = os.fstat(fh.fileno()).st_size
    head = fh.read(HEADER.size)
    if len(head) < HEADER.size:
        raise EventLogError("truncated header", offset=0)
    found, version, _ = HEADER.unpack(head)
    if found != magic:
        raise EventLogError(f"bad magic {found!r}")
    if version != VERSION:
        raise EventLogError(f"unsupported version {version}")
    read = fh.read
    offset = HEADER.size
    index = 0
    while True:
        head = read(FRAME.size)
        if not head:
            return
        if len(head) < FRAME.size:
            raise EventLogError("truncated frame header", offset, index)
        length, crc = FRAME.unpack(head)
        end = offset + FRAME.size + length
        if length == 0 or end > size:
            raise EventLogError("truncated payload", offset, index)
        payload = read(length)
        if zlib.crc32(payload) != crc:
            raise EventLogError("crc mismatch", offset, index)
        yield offset, payload
        offset = end
        index += 1


def encode_events(
    cascade_ids: Sequence[str], nodes: np.ndarray, times: np.ndarray
) -> bytes:
    """One burst of parallel event columns as an events payload."""
    cid_blob = json.dumps(list(cascade_ids)).encode("utf-8")
    node_arr = np.ascontiguousarray(nodes, dtype=np.int64)
    time_arr = np.ascontiguousarray(times, dtype=np.float64)
    return b"".join(
        (
            _EVENTS_HEAD.pack(_RT_EVENTS, node_arr.shape[0], len(cid_blob)),
            cid_blob,
            node_arr.tobytes(),
            time_arr.tobytes(),
        )
    )


def decode_events(payload: bytes) -> EventsRecord:
    """Decode an events payload, refusing any payload of the wrong shape
    with :class:`EventLogError` (never an ``assert``)."""
    if len(payload) < _EVENTS_HEAD.size:
        raise EventLogError("events record shorter than its header")
    rtype, n, blob_len = _EVENTS_HEAD.unpack_from(payload)
    if rtype != _RT_EVENTS:
        raise EventLogError(f"unknown record type {rtype}")
    off = _EVENTS_HEAD.size
    expected = off + blob_len + 16 * n
    if len(payload) != expected:
        raise EventLogError(
            f"events record is {len(payload)} bytes, expected {expected}"
        )
    try:
        cids = json.loads(payload[off : off + blob_len].decode("utf-8"))
    except ValueError as exc:  # UnicodeDecodeError and JSONDecodeError both
        raise EventLogError(f"events record id column: {exc}") from exc
    if not isinstance(cids, list) or len(cids) != n:
        raise EventLogError(f"events record id column does not hold {n} ids")
    off += blob_len
    nodes = np.frombuffer(payload, dtype=np.int64, count=n, offset=off)
    times = np.frombuffer(payload, dtype=np.float64, count=n, offset=off + 8 * n)
    return EventsRecord(cids, nodes, times)
