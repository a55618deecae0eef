"""Crash-tolerant serving: write-ahead event journal + deterministic recovery.

The scoring service holds every tracked cascade in process memory; one
crash used to discard all of it until the stream re-warmed the store.
This module makes the serving tier restartable with the same guarantee
the training tier has had since the checkpoint/resume work (DESIGN.md
§9): a restarted scorer is **bit-identical** to one that never died.

Three pieces (DESIGN.md §14):

* :class:`EventJournal` — a segmented, checksummed write-ahead log of
  admitted adoption-event bursts (the ``ingest_columns`` wire shape —
  id column, node column, time column — goes down as one record, no
  re-boxing) and model-swap markers (self-contained: full embedding
  planes plus the fitted predictor, so recovery never depends on the
  original artifact files still existing).  Appends are buffered writes
  with a configurable fsync policy (``always`` / ``interval`` / ``off``)
  and size-based segment rotation.
* **Snapshot compaction** — :meth:`EventJournal.write_snapshot`
  atomically persists the full store state (every tracked cascade's
  observed event log, in LRU order) plus the live model snapshot, then
  prunes the segments it supersedes.  Recovery cost is therefore
  bounded by ``snapshot_bytes`` of journal tail, not by service uptime.
* :func:`recover_service` — loads the latest snapshot, replays the
  journal tail through the *existing* columnar ingest path
  (``FeatureStore.ingest_columns`` → ``fold_burst``, so the streamed ≡
  batch bit-identity property of the store carries over verbatim),
  tolerates a torn or truncated final record (repairing the tail in
  place), and hands back a serving service already re-attached to a
  fresh journal segment.

Segments are event logs with magic ``RWAL``; the header, framing and
events record are :mod:`repro.serving.eventlog`'s, shared with
``repro record`` streams.  Swap records are this module's own.

What is — and is not — durable
------------------------------
Every *validated* ingest burst is journaled, whether or not any event
applied: a fully-duplicate burst still touches LRU order, and LRU order
decides future evictions, so replay must reproduce it.  Score requests
are **not** journaled; their LRU touches are bounded-memory policy
state, not feature state.  The recovery contract is therefore: feature
vectors and scores of every tracked cascade are bit-identical to an
uninterrupted run over the journaled record stream.  Lifetime stats
counters and registry version numbers restart with the process.

Failure semantics
-----------------
Journal I/O errors never take scoring down: the owning service catches
``OSError`` from append/compact, flips durability to degraded
(shed-and-warn — scoring continues, appends stop, the condition is
surfaced through stats and health), and keeps serving.  Interior
corruption (a bad checksum anywhere but the final record of the final
segment) raises :class:`JournalCorruptError` — replaying past it could
silently diverge, which is worse than refusing.

A test-only :class:`_ChaosPlan` (the serving analog of
``parallel/supervision.py``'s ``_FaultPlan``) drives the fault matrix
deterministically: crash-kills before/after a chosen append, torn
writes (a prefix of the frame reaches the file), injected I/O errors,
and slow disks.  Task deaths in the asyncio front end are injected by
the server tests directly (the watchdog does not care *why* a task
died).
"""

from __future__ import annotations

import io
import json
import os
import tempfile
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.embedding.model import EmbeddingModel
from repro.prediction.pipeline import ViralityPredictor
from repro.serving.eventlog import (
    JOURNAL_MAGIC,
    EventLogError,
    EventsRecord,
    decode_events,
    encode_events,
    frame,
    header,
    iter_frames,
)
from repro.serving.registry import ModelSnapshot, decode_predictor, encode_predictor

__all__ = [
    "EventJournal",
    "InjectedCrash",
    "JournalConfig",
    "JournalCorruptError",
    "JournalError",
    "RecoveryReport",
    "StoreSnapshot",
    "SwapRecord",
    "coalesce_reports",
    "recover_service",
    "scan_journal",
    "shard_journal_dir",
]

#: record type of a swap payload (events payloads are type 1)
_RT_SWAP = 2
#: format version of a compaction snapshot's ``meta``
_SNAPSHOT_FORMAT = 1

_SEGMENT_GLOB = "wal-*.log"
_SNAPSHOT_GLOB = "snap-*.npz"

_FSYNC_POLICIES = ("always", "interval", "off")


class JournalError(RuntimeError):
    """Base class for journal failures."""


class JournalCorruptError(JournalError):
    """A record *before* the journal tail failed its checksum or decode.

    A torn/truncated **final** record is expected after a crash and is
    repaired silently; a bad record anywhere else means the log can no
    longer be replayed faithfully, so recovery refuses.
    """


class InjectedCrash(Exception):
    """Raised by :class:`_ChaosPlan` to simulate a process death.

    Deliberately *not* an ``OSError``: the degraded-mode handler in the
    service must never swallow an injected crash — the test harness
    catches it at the driver level, exactly where a real crash would
    end the process.
    """


@dataclass(frozen=True)
class JournalConfig:
    """Durability policy of the write-ahead journal.

    Attributes
    ----------
    directory:
        Where segments and snapshots live (created if missing).
    fsync:
        ``"always"`` — fsync after every append (maximum durability,
        pays a disk round-trip per record); ``"interval"`` — fsync when
        at least ``fsync_interval`` seconds of service clock passed
        since the last one (bounded loss window, near-zero overhead);
        ``"off"`` — never fsync (the OS page cache decides; a machine
        crash can lose anything since the last writeback).
    fsync_interval:
        Seconds between fsyncs under ``fsync="interval"``.
    rotate_bytes:
        Seal the active segment and open the next once it exceeds this.
    snapshot_bytes:
        Auto-compaction threshold: once this many journal bytes
        accumulate since the last snapshot, the owning service writes a
        store snapshot and prunes superseded segments.  ``None``
        disables auto-compaction (explicit :meth:`ScoringService.compact`
        still works).
    """

    directory: Union[str, Path]
    fsync: str = "interval"
    fsync_interval: float = 0.05
    rotate_bytes: int = 64 * 1024 * 1024
    snapshot_bytes: Optional[int] = 256 * 1024 * 1024

    def __post_init__(self) -> None:
        if self.fsync not in _FSYNC_POLICIES:
            raise ValueError(
                f"fsync must be one of {_FSYNC_POLICIES}, got {self.fsync!r}"
            )
        if self.fsync_interval <= 0:
            raise ValueError("fsync_interval must be positive")
        if self.rotate_bytes < 4096:
            raise ValueError("rotate_bytes must be >= 4096")
        if self.snapshot_bytes is not None and self.snapshot_bytes < 4096:
            raise ValueError("snapshot_bytes must be >= 4096 (or None)")


@dataclass
class JournalStats:
    """Lifetime counters of one journal writer."""

    records: int = 0
    event_records: int = 0
    swap_records: int = 0
    bytes_written: int = 0
    fsyncs: int = 0
    rotations: int = 0
    snapshots: int = 0


# --------------------------------------------------------------------- #
# Test-only fault injection
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class _ChaosPlan:
    """Deterministic journal fault injection (test-only).

    Fires on the ``at_append``-th append call (0-based, counting event
    and swap records alike):

    * ``"kill"`` — raise :class:`InjectedCrash`; ``point="before"``
      crashes before any byte reaches the file (the record is lost),
      ``point="after"`` crashes after the full write + policy fsync
      (the record is durable, the process still dies).
    * ``"torn"`` — write only the first ``torn_bytes`` bytes of the
      frame, flush them, then crash: the classic torn tail a power cut
      leaves behind.
    * ``"ioerror"`` — raise ``OSError`` instead of writing, driving the
      degraded shed-and-warn path (the service must keep scoring).
    * ``"slow"`` — sleep ``slow_s`` before the write, then proceed (a
      stalling disk; exercises timeout/health behavior, not data loss).
    """

    at_append: int
    action: str
    point: str = "before"
    torn_bytes: int = 12
    slow_s: float = 0.05

    def __post_init__(self) -> None:
        if self.action not in ("kill", "torn", "ioerror", "slow"):
            raise ValueError(f"unknown chaos action {self.action!r}")
        if self.point not in ("before", "after"):
            raise ValueError(f"unknown chaos point {self.point!r}")
        if self.torn_bytes < 1:
            raise ValueError("torn_bytes must be >= 1")


# --------------------------------------------------------------------- #
# Record encoding
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class SwapRecord:
    """One journaled model publish, self-contained for replay."""

    source: str
    fingerprint: str
    model: EmbeddingModel
    predictor: Optional[ViralityPredictor]


def _encode_swap(snapshot: ModelSnapshot) -> bytes:
    meta = {
        "source": snapshot.source,
        "fingerprint": snapshot.fingerprint,
    }
    arrays = {
        "meta": np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8),
        "A": np.ascontiguousarray(snapshot.model.A, dtype=np.float64),
        "B": np.ascontiguousarray(snapshot.model.B, dtype=np.float64),
    }
    blob = encode_predictor(snapshot.predictor)
    if blob:
        arrays["predictor_npz"] = np.frombuffer(blob, dtype=np.uint8)
    buf = io.BytesIO()
    np.savez(buf, **arrays)
    return bytes((_RT_SWAP,)) + buf.getvalue()


def _decode_swap(payload: bytes) -> SwapRecord:
    try:
        with np.load(io.BytesIO(payload[1:])) as data:
            meta = json.loads(bytes(data["meta"]).decode("utf-8"))
            return SwapRecord(
                source=str(meta["source"]),
                fingerprint=str(meta["fingerprint"]),
                model=EmbeddingModel(data["A"].copy(), data["B"].copy()),
                predictor=decode_predictor(data.get("predictor_npz", b"")),
            )
    except Exception as exc:  # any load failure: the record is unusable
        raise EventLogError(
            f"swap record does not load ({type(exc).__name__}: {exc})"
        ) from exc


def _decode_record(payload: bytes) -> Union[EventsRecord, SwapRecord]:
    """A journal payload as its record; :class:`EventLogError` if it is
    malformed or of an unknown type."""
    if payload[0] == _RT_SWAP:
        return _decode_swap(payload)
    return decode_events(payload)


# --------------------------------------------------------------------- #
# Segment naming
# --------------------------------------------------------------------- #


def _segment_path(directory: Path, seq: int) -> Path:
    return directory / f"wal-{seq:08d}.log"


def _snapshot_path(directory: Path, seq: int) -> Path:
    return directory / f"snap-{seq:08d}.npz"


def _seq_of(path: Path) -> int:
    return int(path.stem.split("-", 1)[1])


def _list_segments(directory: Path) -> List[Path]:
    return sorted(directory.glob(_SEGMENT_GLOB), key=_seq_of)


def _list_snapshots(directory: Path) -> List[Path]:
    return sorted(directory.glob(_SNAPSHOT_GLOB), key=_seq_of)


def _fsync_dir(directory: Path) -> None:
    fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


# --------------------------------------------------------------------- #
# The writer
# --------------------------------------------------------------------- #


class EventJournal:
    """Append-only segmented journal writer.

    Not thread-safe on its own — the owning
    :class:`~repro.serving.service.ScoringService` serializes access
    under its lock, which also pins the journal order to the store's
    apply order (both happen inside one locked section).

    A writer never appends to a pre-existing segment: it opens the next
    sequence number after anything already on disk, so a crashed
    writer's (possibly torn) tail is left for recovery to repair.
    """

    def __init__(
        self,
        config: JournalConfig,
        clock: Callable[[], float] = time.monotonic,
        _chaos: Optional[_ChaosPlan] = None,
    ) -> None:
        self.config = config
        self.directory = Path(config.directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._clock = clock
        self._chaos = _chaos
        self.stats = JournalStats()
        self._n_appends = 0
        self._bytes_since_snapshot = 0
        self._last_fsync = clock()
        self._unsynced = False  # a frame was written since the last fsync
        self._fh: Optional[io.BufferedWriter] = None
        self._segment_bytes = 0
        # abandoned snapshot temp files from a crashed compaction
        for stale in self.directory.glob(".snap-*.tmp"):
            try:
                stale.unlink()
            except OSError:  # pragma: no cover - cleanup is best-effort
                pass
        existing = _list_segments(self.directory) + _list_snapshots(self.directory)
        self.seq = max((_seq_of(p) for p in existing), default=0) + 1
        self._open_segment(self.seq)

    # ------------------------------------------------------------------ #
    # Segment lifecycle
    # ------------------------------------------------------------------ #

    def _open_segment(self, seq: int) -> None:
        path = _segment_path(self.directory, seq)
        fh = open(path, "xb")
        head = header(JOURNAL_MAGIC)
        fh.write(head)
        fh.flush()
        self._fh = fh
        self.seq = seq
        self._segment_bytes = len(head)

    def _rotate(self) -> None:
        self._seal_segment()
        self.stats.rotations += 1
        self._open_segment(self.seq + 1)

    def _seal_segment(self) -> None:
        fh = self._fh
        if fh is None:
            return
        fh.flush()
        os.fsync(fh.fileno())
        self.stats.fsyncs += 1
        self._unsynced = False
        fh.close()
        self._fh = None

    @property
    def closed(self) -> bool:
        return self._fh is None

    def seal(self) -> None:
        """Flush, fsync, and close the active segment (idempotent).

        A sealed journal accepts no more appends; graceful drain calls
        this last so every journaled byte is on disk at exit.
        """
        self._seal_segment()

    # ------------------------------------------------------------------ #
    # Appending
    # ------------------------------------------------------------------ #

    def _write_frame(self, payload: bytes) -> None:
        fh = self._fh
        if fh is None:
            raise JournalError("journal is sealed; no further appends")
        framed = frame(payload)
        chaos = self._chaos
        fire = chaos is not None and self._n_appends == chaos.at_append
        self._n_appends += 1
        if fire:
            assert chaos is not None
            if chaos.action == "kill" and chaos.point == "before":
                raise InjectedCrash("chaos: killed before journal write")
            if chaos.action == "ioerror":
                raise OSError("chaos: injected journal I/O error")
            if chaos.action == "torn":
                fh.write(framed[: chaos.torn_bytes])
                fh.flush()
                raise InjectedCrash(
                    f"chaos: torn write ({chaos.torn_bytes} of {len(framed)} bytes)"
                )
            if chaos.action == "slow":
                time.sleep(chaos.slow_s)  # repro: noqa[REP103] chaos injection: deliberately stalls the journal write under the service lock to surface contention in tests
        fh.write(framed)
        fh.flush()  # data reaches the OS; fsync policy decides the disk
        self._segment_bytes += len(framed)
        self._bytes_since_snapshot += len(framed)
        self.stats.records += 1
        self.stats.bytes_written += len(framed)
        self._unsynced = True
        self._maybe_fsync(fh)
        if fire and chaos is not None and chaos.action == "kill":
            raise InjectedCrash("chaos: killed after journal write")
        if self._segment_bytes >= self.config.rotate_bytes:
            self._rotate()

    def _maybe_fsync(self, fh: io.BufferedWriter) -> None:
        policy = self.config.fsync
        if policy == "off":
            return
        now = self._clock()
        if policy == "interval" and now - self._last_fsync < self.config.fsync_interval:
            return
        os.fsync(fh.fileno())
        self._last_fsync = now
        self._unsynced = False
        self.stats.fsyncs += 1

    def tick(self) -> None:
        """Opportunistic fsync for ``fsync="interval"`` on an idle stream.

        The server's flusher loop calls this so a burst followed by
        silence still hits the disk within one interval.  A tick with
        no frame written since the last fsync does nothing.
        """
        fh = self._fh
        if fh is None or self.config.fsync != "interval" or not self._unsynced:
            return
        now = self._clock()
        if now - self._last_fsync >= self.config.fsync_interval:
            fh.flush()
            os.fsync(fh.fileno())
            self._last_fsync = now
            self._unsynced = False
            self.stats.fsyncs += 1

    def append_events(
        self,
        cascade_ids: Sequence[str],
        nodes: np.ndarray,
        times: np.ndarray,
    ) -> None:
        """Journal one validated ingest burst (columnar wire shape)."""
        self._write_frame(encode_events(cascade_ids, nodes, times))
        self.stats.event_records += 1

    def append_swap(self, snapshot: ModelSnapshot) -> None:
        """Journal one model publish, self-contained for replay."""
        self._write_frame(_encode_swap(snapshot))
        self.stats.swap_records += 1

    # ------------------------------------------------------------------ #
    # Compaction
    # ------------------------------------------------------------------ #

    def should_snapshot(self) -> bool:
        """True once the auto-compaction byte threshold is crossed."""
        limit = self.config.snapshot_bytes
        return limit is not None and self._bytes_since_snapshot >= limit

    def write_snapshot(self, snapshot: "StoreSnapshot") -> Path:
        """Atomically persist *snapshot* and prune superseded segments.

        Protocol: seal the active segment, write ``snap-<S>.npz`` (temp
        file + fsync + ``os.replace`` + directory fsync) where ``S`` is
        the next sequence number, open segment ``S`` for new appends,
        then delete segments ``< S`` and older snapshots.  Recovery
        reads the newest loadable snapshot plus every segment at or
        after its sequence number, so a crash at any point of this
        protocol leaves a recoverable journal (at worst with some
        not-yet-pruned, superseded files).
        """
        self._seal_segment()
        seq = self.seq + 1
        path = _snapshot_path(self.directory, seq)
        fd, tmp = tempfile.mkstemp(
            dir=self.directory, prefix=".snap-", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "wb") as fh:
                np.savez(fh, **snapshot.to_arrays(seq))
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
            _fsync_dir(self.directory)
        except BaseException:
            try:
                os.unlink(tmp)
            except FileNotFoundError:
                pass
            raise
        self._open_segment(seq)
        self._bytes_since_snapshot = 0
        self.stats.snapshots += 1
        for old in _list_segments(self.directory):
            if _seq_of(old) < seq:
                old.unlink(missing_ok=True)
        for old_snap in _list_snapshots(self.directory):
            if _seq_of(old_snap) < seq:
                old_snap.unlink(missing_ok=True)
        return path

    # ------------------------------------------------------------------ #

    def stats_dict(self) -> Dict[str, object]:
        return {
            "directory": str(self.directory),
            "fsync": self.config.fsync,
            "segment": self.seq,
            "records": self.stats.records,
            "event_records": self.stats.event_records,
            "swap_records": self.stats.swap_records,
            "bytes_written": self.stats.bytes_written,
            "bytes_since_snapshot": self._bytes_since_snapshot,
            "fsyncs": self.stats.fsyncs,
            "rotations": self.stats.rotations,
            "snapshots": self.stats.snapshots,
            "sealed": self.closed,
        }


# --------------------------------------------------------------------- #
# Store snapshots
# --------------------------------------------------------------------- #


@dataclass
class StoreSnapshot:
    """Everything a compaction snapshot persists.

    The cascade logs are columnar — ids in LRU order (least recently
    touched first), per-cascade offsets into concatenated node/time
    columns — so restore is one burst down the existing columnar ingest
    path: consecutive per-cascade blocks admit in LRU order and re-rank
    by last occurrence to the same order, reproducing the live store's
    eviction queue exactly.
    """

    cascade_ids: List[str]
    offsets: np.ndarray
    nodes: np.ndarray
    times: np.ndarray
    source: str
    fingerprint: str
    model: EmbeddingModel
    predictor: Optional[ViralityPredictor]

    def to_arrays(self, seq: int) -> Dict[str, np.ndarray]:
        meta = {
            "format": _SNAPSHOT_FORMAT,
            "seq": seq,
            "source": self.source,
            "fingerprint": self.fingerprint,
            "n_cascades": len(self.cascade_ids),
        }
        out = {
            "meta": np.frombuffer(
                json.dumps(meta).encode("utf-8"), dtype=np.uint8
            ),
            "cids": np.frombuffer(
                json.dumps(self.cascade_ids).encode("utf-8"), dtype=np.uint8
            ),
            "offsets": np.ascontiguousarray(self.offsets, dtype=np.int64),
            "nodes": np.ascontiguousarray(self.nodes, dtype=np.int64),
            "times": np.ascontiguousarray(self.times, dtype=np.float64),
            "A": np.ascontiguousarray(self.model.A, dtype=np.float64),
            "B": np.ascontiguousarray(self.model.B, dtype=np.float64),
        }
        blob = encode_predictor(self.predictor)
        if blob:
            out["predictor_npz"] = np.frombuffer(blob, dtype=np.uint8)
        return out

    @classmethod
    def load(cls, path: Path) -> Tuple["StoreSnapshot", int]:
        """Read one snapshot file; returns ``(snapshot, seq)``.

        Raises :class:`JournalCorruptError` on any structural problem —
        the caller falls back to an older snapshot or a full replay.
        """
        try:
            with np.load(path) as data:
                required = ("meta", "cids", "offsets", "nodes", "times", "A", "B")
                if any(key not in data for key in required):
                    raise JournalCorruptError(
                        f"{path}: not a journal snapshot (need "
                        f"{', '.join(required)})"
                    )
                meta = json.loads(bytes(data["meta"]).decode("utf-8"))
                cids = json.loads(bytes(data["cids"]).decode("utf-8"))
                snapshot = cls(
                    cascade_ids=[str(c) for c in cids],
                    offsets=data["offsets"].copy(),
                    nodes=data["nodes"].copy(),
                    times=data["times"].copy(),
                    source=str(meta["source"]),
                    fingerprint=str(meta["fingerprint"]),
                    model=EmbeddingModel(data["A"].copy(), data["B"].copy()),
                    predictor=decode_predictor(data.get("predictor_npz", b"")),
                )
        except JournalCorruptError:
            raise
        except (OSError, ValueError, KeyError, EOFError, zlib.error) as exc:
            raise JournalCorruptError(
                f"{path}: unreadable journal snapshot: {exc}"
            ) from exc
        if meta.get("format") != _SNAPSHOT_FORMAT:
            raise JournalCorruptError(
                f"{path}: unsupported snapshot format {meta.get('format')!r}"
            )
        if len(snapshot.cascade_ids) != meta.get("n_cascades"):
            raise JournalCorruptError(f"{path}: snapshot id column truncated")
        return snapshot, int(meta["seq"])


# --------------------------------------------------------------------- #
# Reading / recovery
# --------------------------------------------------------------------- #


def _scan_segment(
    path: Path, final: bool, records: List[Union[EventsRecord, SwapRecord]]
) -> Optional[int]:
    """Append one segment's records to *records*; returns the byte
    offset of a torn tail, ``None`` when the segment is clean.

    Only the final segment may end in a torn tail: a framing fault, or a
    crc-valid record that does not decode and ends the file.  Any other
    fault raises :class:`JournalCorruptError`.
    """
    with path.open("rb") as fh:
        try:
            for offset, payload in iter_frames(fh, JOURNAL_MAGIC):
                try:
                    records.append(_decode_record(payload))
                except EventLogError as exc:
                    if final and not fh.peek(1):  # the record ends the file
                        return offset
                    raise JournalCorruptError(
                        f"{path}: record at byte {offset} does not decode "
                        f"({exc.reason}); refusing to replay past it"
                    ) from exc
        except EventLogError as exc:
            if exc.offset is None:  # another magic or version: not a tail
                raise JournalCorruptError(f"{path}: {exc}") from exc
            if final:
                return exc.offset
            raise JournalCorruptError(
                f"{path}: corrupt record at byte {exc.offset} in a non-final "
                f"segment ({exc.reason}); refusing to replay past it"
            ) from exc
    return None


@dataclass
class JournalScan:
    """Everything recovery needs, parsed off disk."""

    snapshot: Optional[StoreSnapshot]
    snapshot_seq: int  # 0 when no snapshot
    records: List[Union[EventsRecord, SwapRecord]]
    torn: Optional[Tuple[Path, int]]  # (segment, byte offset) of a torn tail
    segments: int


def scan_journal(directory: Union[str, Path]) -> JournalScan:
    """Parse a journal directory: newest loadable snapshot + tail records.

    Only the final record of the final segment may be torn or
    truncated; damage anywhere else raises
    :class:`JournalCorruptError`.
    """
    root = Path(directory)
    snapshot: Optional[StoreSnapshot] = None
    snapshot_seq = 0
    for snap_path in reversed(_list_snapshots(root)):
        try:
            snapshot, snapshot_seq = StoreSnapshot.load(snap_path)
            break
        except JournalCorruptError:
            continue  # fall back to the previous snapshot / full replay
    segments = [p for p in _list_segments(root) if _seq_of(p) >= snapshot_seq]
    records: List[Union[EventsRecord, SwapRecord]] = []
    torn: Optional[Tuple[Path, int]] = None
    for i, path in enumerate(segments):
        torn_at = _scan_segment(path, i == len(segments) - 1, records)
        if torn_at is not None:
            torn = (path, torn_at)
    return JournalScan(
        snapshot=snapshot,
        snapshot_seq=snapshot_seq,
        records=records,
        torn=torn,
        segments=len(segments),
    )


def _repair_torn_tail(path: Path, offset: int) -> None:
    """Truncate a torn tail so the segment is canonical going forward."""
    fd = os.open(path, os.O_RDWR)
    try:
        os.ftruncate(fd, offset)
        os.fsync(fd)
    finally:
        os.close(fd)


@dataclass
class RecoveryReport:
    """What :func:`recover_service` did."""

    snapshot_loaded: bool = False
    snapshot_cascades: int = 0
    snapshot_events: int = 0
    segments_replayed: int = 0
    records_replayed: int = 0
    events_replayed: int = 0
    swaps_replayed: int = 0
    torn_tail_repaired: bool = False
    elapsed_s: float = 0.0
    faults: List[str] = field(default_factory=list)


def shard_journal_dir(base: Union[str, Path], shard_id: int) -> Path:
    """Journal directory of one shard under a sharded service's base.

    Every shard owns a private ``shard-NN/`` subdirectory — writers
    never share segments, so per-shard journal order stays exactly that
    shard's apply order and shards recover independently (and
    concurrently) after a crash.
    """
    if shard_id < 0:
        raise ValueError("shard_id must be >= 0")
    return Path(base) / f"shard-{shard_id:02d}"


def coalesce_reports(reports: Sequence[RecoveryReport]) -> RecoveryReport:
    """Merge per-shard recovery reports into one service-level view.

    Counters sum across shards; ``elapsed_s`` is the maximum (shards
    recover concurrently at spawn, so the slowest one bounds the wall
    time); fault strings are carried over with a ``shard i:`` prefix so
    the aggregate stays attributable.
    """
    out = RecoveryReport()
    for i, report in enumerate(reports):
        out.snapshot_loaded = out.snapshot_loaded or report.snapshot_loaded
        out.snapshot_cascades += report.snapshot_cascades
        out.snapshot_events += report.snapshot_events
        out.segments_replayed += report.segments_replayed
        out.records_replayed += report.records_replayed
        out.events_replayed += report.events_replayed
        out.swaps_replayed += report.swaps_replayed
        out.torn_tail_repaired = out.torn_tail_repaired or report.torn_tail_repaired
        out.elapsed_s = max(out.elapsed_s, report.elapsed_s)
        out.faults.extend(f"shard {i}: {fault}" for fault in report.faults)
    return out


def recover_service(
    config: JournalConfig,
    feature_set: Optional[Sequence[str]] = None,
    store_config: Optional[object] = None,
    clock: Callable[[], float] = time.monotonic,
    compact: bool = True,
    _chaos: Optional[_ChaosPlan] = None,
) -> Tuple[object, RecoveryReport]:
    """Rebuild a scoring service from its journal directory.

    Loads the newest snapshot (if any), replays the journal tail
    through the columnar ingest path, repairs a torn tail in place,
    attaches a fresh journal segment, and (by default) compacts so the
    next recovery starts from a snapshot of *this* state.

    Returns ``(service, report)``.  The recovered feature vectors and
    scores are bit-identical to an uninterrupted run over the journaled
    record stream — the crash-recovery property suite pins this down.

    Raises
    ------
    JournalError
        If the journal holds no model at all (no snapshot and no
        leading swap record) — there is nothing to score with.
    JournalCorruptError
        On interior corruption (see :func:`scan_journal`).
    """
    from repro.prediction.features import PAPER_FEATURES
    from repro.serving.registry import ModelRegistry
    from repro.serving.service import ScoringService

    start = time.perf_counter()
    scan = scan_journal(config.directory)
    registry = ModelRegistry()
    service = ScoringService(
        registry,
        feature_set=tuple(feature_set) if feature_set is not None else PAPER_FEATURES,
        store_config=store_config,  # type: ignore[arg-type]
        clock=clock,
    )
    service.begin_recovery()
    report = RecoveryReport()

    if scan.snapshot is not None:
        snap = scan.snapshot
        registry.publish(
            snap.model, predictor=snap.predictor, source=snap.source
        )
        sizes = np.diff(snap.offsets)
        expanded: List[str] = []
        for cid, size in zip(snap.cascade_ids, sizes):
            expanded.extend([cid] * int(size))
        if expanded:
            service.store.ingest_columns(  # repro: noqa[REP101] recovery is single-threaded construction: no front end holds the service yet, and attach_journal/begin_serving below publish it with a happens-before edge
                expanded, snap.nodes, snap.times, registry.current()
            )
        report.snapshot_loaded = True
        report.snapshot_cascades = len(snap.cascade_ids)
        report.snapshot_events = int(snap.nodes.shape[0])

    # Consecutive event records are coalesced into one columnar burst
    # per model epoch (flushed at each swap marker): ingest is
    # chunking-invariant, so the result is bit-identical to per-record
    # replay while the tail replays at batched-ingest speed instead of
    # paying the per-burst fold cost once per journal record.
    pending_cids: List[str] = []
    pending_nodes: List[np.ndarray] = []
    pending_times: List[np.ndarray] = []

    def _flush_pending() -> None:
        if not pending_cids:
            return
        service.store.ingest_columns(  # repro: noqa[REP101] recovery is single-threaded construction: replay bypasses ScoringService.ingest_columns so the rebuild does not re-journal or re-count the records it is replaying
            pending_cids,
            np.concatenate(pending_nodes),
            np.concatenate(pending_times),
            registry.current(),
        )
        pending_cids.clear()
        pending_nodes.clear()
        pending_times.clear()

    for record in scan.records:
        if isinstance(record, SwapRecord):
            _flush_pending()
            registry.publish(
                record.model, predictor=record.predictor, source=record.source
            )
            report.swaps_replayed += 1
        else:
            if registry.n_published == 0:
                raise JournalError(
                    f"{config.directory}: journal holds no model (no "
                    "snapshot, no swap record before the first event); "
                    "cannot recover a scorer from events alone"
                )
            pending_cids.extend(record.cascade_ids)
            pending_nodes.append(record.nodes)
            pending_times.append(record.times)
            report.events_replayed += int(record.nodes.shape[0])
        report.records_replayed += 1
    _flush_pending()
    report.segments_replayed = scan.segments

    if registry.n_published == 0:
        raise JournalError(
            f"{config.directory}: journal holds no model (no snapshot, no "
            "swap record); cannot recover a scorer from events alone"
        )
    if scan.torn is not None:
        path, offset = scan.torn
        _repair_torn_tail(path, offset)
        report.torn_tail_repaired = True
        report.faults.append(f"torn tail repaired: {path.name} @ {offset}")

    journal = EventJournal(config, clock=clock, _chaos=_chaos)
    service.attach_journal(journal)
    if compact:
        service.compact()
    service.begin_serving()
    report.elapsed_s = time.perf_counter() - start
    return service, report

