"""Versioned, atomically hot-swappable model snapshots.

Training and serving run side by side: the hierarchical trainer (or the
streaming estimator) produces new embeddings while the scorer is under
load.  The registry is the hand-off point.  Its contract:

* **Snapshots are immutable.**  ``publish`` deep-copies the embedding
  matrices and marks them read-only; a snapshot can never change after
  a reader has seen it.
* **Swaps are atomic.**  The current snapshot is a single attribute
  whose replacement is one reference store (atomic under the GIL and
  the asyncio loop alike).  A reader grabs the snapshot *once* per
  batch and computes everything against it — there is no window in
  which half-updated ``A``/``B`` (or an ``A`` from one version and a
  ``B`` from another) can be observed.  The swap-storm test in
  ``tests/unit/serving/test_registry.py`` hammers exactly this.
* **Versions are monotone.**  Every publish gets the next integer
  version; score responses echo the version they were computed under,
  so downstream consumers can attribute every score to one model.

Snapshots can be published from an in-memory :class:`EmbeddingModel`,
from an ``.npz`` archive written by :meth:`EmbeddingModel.save`, from a
hierarchical-fit checkpoint (:mod:`repro.parallel.checkpoint` — either
the checkpoint directory or the archive file itself), or from a live
:class:`~repro.embedding.online.OnlineEmbeddingInference`.
"""

from __future__ import annotations

import hashlib
import io
import zipfile
import zlib
from dataclasses import dataclass
from multiprocessing import shared_memory
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.devtools.sanitize import LockLike, guarded_lock
from repro.embedding.model import EmbeddingModel
from repro.parallel._shm import attach_untracked, create_segment
from repro.parallel.arena import attach_arrays, layout_fields
from repro.prediction.pipeline import ViralityPredictor

if TYPE_CHECKING:  # annotation-only: publish_online takes a live estimator
    from repro.embedding.online import OnlineEmbeddingInference

__all__ = [
    "ModelSnapshot",
    "ModelRegistry",
    "SharedSnapshotMeta",
    "SnapshotLoadError",
    "encode_shared_snapshot",
    "model_fingerprint",
]


class SnapshotLoadError(RuntimeError):
    """A filesystem model artifact could not be loaded.

    Raised by :meth:`ModelRegistry.publish_path` for missing, corrupt,
    or truncated artifacts.  The message always carries the offending
    path; the original exception (when any) rides ``__cause__``.  The
    registry's current snapshot is untouched — a scorer mid-serve keeps
    scoring under the last-good model, and the failure is counted in
    :attr:`ModelRegistry.load_failures`.
    """


def model_fingerprint(model: EmbeddingModel) -> str:
    """Content digest of an embedding model (shape + both planes)."""
    h = hashlib.blake2b(digest_size=16)
    h.update(np.int64(model.n_nodes).tobytes())
    h.update(np.int64(model.n_topics).tobytes())
    h.update(np.ascontiguousarray(model.A).tobytes())
    h.update(np.ascontiguousarray(model.B).tobytes())
    return h.hexdigest()


@dataclass(frozen=True)
class ModelSnapshot:
    """One immutable published model version.

    Attributes
    ----------
    version:
        Monotone publish counter (1-based).
    model:
        Read-only embedding matrices (deep-copied at publish time).
    predictor:
        Optional fitted :class:`ViralityPredictor` (deep-copied); when
        absent the scorer returns features without a decision margin.
    source:
        Human-readable provenance ("inline", "npz:...", "checkpoint:...",
        "online:t=...").
    fingerprint:
        :func:`model_fingerprint` of the embedding content.
    """

    version: int
    model: EmbeddingModel
    predictor: Optional[ViralityPredictor]
    source: str
    fingerprint: str


@dataclass(frozen=True)
class SharedSnapshotMeta:
    """Everything a shard needs to map a published snapshot segment.

    The sharded router broadcasts *this* — a name plus scalar shape
    facts — instead of the snapshot itself; the segment layout is
    recomputed deterministically on the attach side from the same
    fields, so no offsets cross the wire.  ``fingerprint`` was computed
    once by the publisher over the exact bytes written to the segment;
    attachers trust it rather than re-hashing ``O(n_nodes * n_topics)``
    planes per shard (the hash covers the same memory either way).
    """

    name: str
    n_nodes: int
    n_topics: int
    predictor_bytes: int
    source: str
    fingerprint: str


def _shared_fields(
    n_nodes: int, n_topics: int, predictor_bytes: int
) -> List[Tuple[int, type]]:
    """Aligned-field plan of a snapshot segment (A, B, predictor blob)."""
    plane = n_nodes * n_topics
    return [
        (plane, np.float64),  # A, row-major
        (plane, np.float64),  # B, row-major
        (predictor_bytes, np.uint8),  # ViralityPredictor .npz archive
    ]


def encode_shared_snapshot(
    snapshot: ModelSnapshot,
) -> Tuple[shared_memory.SharedMemory, SharedSnapshotMeta]:
    """Serialize a snapshot into one shared-memory segment.

    The caller (the sharded router) owns the returned segment: it must
    stay alive — not unlinked — for as long as any shard may still need
    to attach (a restarted shard re-attaches the *current* segment), and
    is closed + unlinked when a later publish supersedes it.  The
    ``create_segment`` finalizer backstops a crashed owner.
    """
    model = snapshot.model
    blob = b""
    if snapshot.predictor is not None:
        sink = io.BytesIO()
        snapshot.predictor.save(sink)
        blob = sink.getvalue()
    fields = _shared_fields(model.n_nodes, model.n_topics, len(blob))
    offsets, total = layout_fields(fields)
    seg = create_segment(total)
    a_view, b_view, blob_view = attach_arrays(seg.buf, offsets, fields)
    a_view[:] = np.ascontiguousarray(model.A).reshape(-1)
    b_view[:] = np.ascontiguousarray(model.B).reshape(-1)
    if blob:
        blob_view[:] = np.frombuffer(blob, dtype=np.uint8)
    # drop the exported views before returning: the owner must be able
    # to close() the segment later without a BufferError from our
    # scratch mappings
    del a_view, b_view, blob_view
    meta = SharedSnapshotMeta(
        name=seg.name,
        n_nodes=model.n_nodes,
        n_topics=model.n_topics,
        predictor_bytes=len(blob),
        source=snapshot.source,
        fingerprint=snapshot.fingerprint,
    )
    return seg, meta


class ModelRegistry:
    """Owns the sequence of published snapshots; readers see one at a time.

    Thread-safe: publishes serialize on an internal lock, reads are a
    single attribute load and take no lock at all.
    """

    #: bounded provenance trail (version, source, fingerprint)
    HISTORY_LIMIT = 32

    def __init__(self) -> None:
        # order-tracked under REPRO_SANITIZE=1 (runtime lock sanitizer)
        self._lock: LockLike = guarded_lock("ModelRegistry._lock")
        self._current: Optional[ModelSnapshot] = None  # guarded-by: _lock
        self._n_published = 0  # guarded-by: _lock
        self._history: List[Tuple[int, str, str]] = []  # guarded-by: _lock
        #: failed publish_path attempts (artifact missing/corrupt/truncated)
        self.load_failures = 0  # guarded-by: _lock
        #: shared-segment attachments still pinned by a published
        #: version's live array views (version -> attached segment)
        self._retained: Dict[int, shared_memory.SharedMemory] = {}  # guarded-by: _lock

    # ------------------------------------------------------------------ #
    # Reading
    # ------------------------------------------------------------------ #

    def current(self) -> ModelSnapshot:
        """The latest published snapshot (atomic, lock-free).

        Raises
        ------
        LookupError
            If nothing has been published yet.
        """
        snap = self._current  # repro: noqa[REP101] sanctioned lock-free read: the swap in publish() is one atomic reference store, so this sees either the old or the new complete snapshot — never a torn one (the registry's core contract; hammered by the swap-storm test)
        if snap is None:
            raise LookupError("no model published to the registry yet")
        return snap

    @property
    def n_published(self) -> int:
        with self._lock:
            return self._n_published

    def load_failure_count(self) -> int:
        """Failed ``publish_path`` attempts so far (locked read)."""
        with self._lock:
            return self.load_failures

    def history(self) -> List[Tuple[int, str, str]]:
        """Recent ``(version, source, fingerprint)`` rows, oldest first."""
        with self._lock:
            return list(self._history)

    # ------------------------------------------------------------------ #
    # Publishing
    # ------------------------------------------------------------------ #

    def publish(
        self,
        model: EmbeddingModel,
        predictor: Optional[ViralityPredictor] = None,
        source: str = "inline",
    ) -> ModelSnapshot:
        """Deep-copy *model* (and *predictor*), freeze, and make current."""
        A = model.A.copy()
        B = model.B.copy()
        A.setflags(write=False)
        B.setflags(write=False)
        frozen = EmbeddingModel(A, B)
        fingerprint = model_fingerprint(frozen)
        pred = predictor.copy() if predictor is not None else None
        with self._lock:
            self._n_published += 1
            snap = ModelSnapshot(
                version=self._n_published,
                model=frozen,
                predictor=pred,
                source=source,
                fingerprint=fingerprint,
            )
            self._history.append((snap.version, snap.source, snap.fingerprint))
            del self._history[: -self.HISTORY_LIMIT]
            self._current = snap  # the atomic swap
        return snap

    def publish_shared(self, meta: SharedSnapshotMeta) -> ModelSnapshot:
        """Publish from a shared-memory segment: attach, never copy.

        The zero-copy twin of :meth:`publish` for sharded serving: the
        embedding planes become read-only ndarray views straight into
        the broadcast segment (the predictor blob — a handful of SVM
        coefficients — is deserialized normally).  Version numbering,
        history, and the atomic swap are identical to :meth:`publish`,
        so a shard that replays the same publish sequence as a
        single-process service lands on the same version counter.

        The attachment is retained per version and detached once a
        later publish supersedes it *and* no reader still holds the old
        snapshot's views (a pinned mapping is re-tried at the next
        publish rather than invalidating a reader mid-batch).
        """
        seg = attach_untracked(meta.name)
        fields = _shared_fields(meta.n_nodes, meta.n_topics, meta.predictor_bytes)
        offsets, _ = layout_fields(fields)
        a_view, b_view, blob_view = attach_arrays(seg.buf, offsets, fields)
        A = a_view.reshape(meta.n_nodes, meta.n_topics)
        B = b_view.reshape(meta.n_nodes, meta.n_topics)
        A.setflags(write=False)
        B.setflags(write=False)
        model = EmbeddingModel(A, B)
        predictor = (
            ViralityPredictor.load(io.BytesIO(blob_view.tobytes()))
            if meta.predictor_bytes
            else None
        )
        del a_view, b_view, blob_view
        with self._lock:
            self._n_published += 1
            snap = ModelSnapshot(
                version=self._n_published,
                model=model,
                predictor=predictor,
                source=meta.source,
                fingerprint=meta.fingerprint,
            )
            self._history.append((snap.version, snap.source, snap.fingerprint))
            del self._history[: -self.HISTORY_LIMIT]
            self._retained[snap.version] = seg
            self._current = snap  # the atomic swap
            self._prune_retained(keep=snap.version)
        return snap

    def _prune_retained(self, keep: int) -> None:
        """Detach superseded segment mappings; called under ``_lock``.

        A mapping whose array views are still referenced (a reader
        mid-batch on the old snapshot) raises ``BufferError`` on close
        and is kept for the next prune — correctness first, the segment
        costs address space, not copies.
        """
        for version in sorted(self._retained):
            if version == keep:
                continue
            seg = self._retained[version]
            try:
                seg.close()
            except BufferError:
                continue
            del self._retained[version]

    def release_shared(self) -> None:
        """Best-effort detach of every retained mapping (shutdown path).

        Drops the current snapshot reference first so its views no
        longer pin their segment.  After this the registry is empty —
        only a shard worker about to exit calls it.
        """
        with self._lock:
            self._current = None  # the atomic swap (to empty)
            for version in sorted(self._retained):
                seg = self._retained[version]
                try:
                    seg.close()
                except BufferError:  # pragma: no cover - stray reader
                    continue
                del self._retained[version]

    def publish_online(
        self,
        online: OnlineEmbeddingInference,
        predictor: Optional[ViralityPredictor] = None,
    ) -> ModelSnapshot:
        """Snapshot a live streaming estimator's current model.

        The estimator keeps mutating its matrices afterwards; the copy
        taken here is what readers score against until the next publish.
        """
        return self.publish(
            online.model, predictor=predictor, source=f"online:t={online.t}"
        )

    def publish_path(
        self,
        path: Union[str, Path],
        predictor: Optional[ViralityPredictor] = None,
    ) -> ModelSnapshot:
        """Publish from a filesystem artifact.

        Accepts an ``.npz`` embedding archive (``EmbeddingModel.save``),
        a hierarchical-fit checkpoint *directory*
        (:class:`~repro.parallel.checkpoint.CheckpointManager`), or the
        checkpoint ``.npz`` file itself — this is what lets a training
        run's periodic checkpoints feed a live scorer.

        Raises
        ------
        SnapshotLoadError
            When the artifact is missing, corrupt, or truncated.  The
            current snapshot is left untouched (publish happens only
            after a fully successful load) and the attempt is counted
            in :attr:`load_failures` — a hot-swap against a half-written
            artifact must never take a serving scorer down.
        """
        p = Path(path)
        try:
            if p.is_dir():
                from repro.parallel.checkpoint import CheckpointManager

                ck = CheckpointManager(p).load()
                if ck is None:
                    raise SnapshotLoadError(f"{p}: no checkpoint in directory")
                model = EmbeddingModel(ck.A, ck.B)
                source = f"checkpoint:{p}"
            elif p.is_file():
                # np.load surfaces corruption in several shapes: OSError /
                # BadZipFile for a mangled archive, zlib.error / EOFError
                # for a truncated member, KeyError/ValueError for missing
                # or malformed entries.  All collapse to the typed error.
                with np.load(p) as data:
                    if "A" not in data or "B" not in data:
                        raise SnapshotLoadError(
                            f"{p}: not an embedding or checkpoint archive "
                            "(need A, B)"
                        )
                    if "meta" in data:  # checkpoint archive (has the JSON blob)
                        source = f"checkpoint:{p}"
                    else:
                        source = f"npz:{p}"
                    model = EmbeddingModel(data["A"].copy(), data["B"].copy())
            else:
                raise SnapshotLoadError(f"no such model artifact: {p}")
        except SnapshotLoadError:
            with self._lock:
                self.load_failures += 1
            raise
        except (
            OSError,
            ValueError,
            KeyError,
            EOFError,
            zipfile.BadZipFile,
            zlib.error,
        ) as exc:
            with self._lock:
                self.load_failures += 1
            raise SnapshotLoadError(
                f"{p}: cannot load model artifact: {exc}"
            ) from exc
        return self.publish(model, predictor=predictor, source=source)
