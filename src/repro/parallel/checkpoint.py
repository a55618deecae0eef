"""Level checkpoint/resume for hierarchical inference.

A hierarchical fit over a real news corpus runs for hours; a crash between
merge-tree levels used to discard every completed level.  This module
persists the driver's state *after each level* so a restarted run resumes
from the first incomplete level — bit-identically, because level *i+1* is
a pure function of the embeddings level *i* produced.

**What is saved** (one file, atomically replaced per level): the full
``A``/``B`` matrices, the completed level index, an optional RNG state
(for callers that thread a generator through the pipeline), and a
*run digest* — a blake2b hash of the corpus content, the merge-tree
partition at every level, and the optimizer configuration.  On resume the
digest is validated first: a checkpoint written against a different
corpus, tree, or config is rejected with :class:`CheckpointMismatchError`
instead of silently producing garbage.

**Atomicity.**  The checkpoint is written to a temporary file in the same
directory, flushed and fsynced, then moved over the previous checkpoint
with ``os.replace`` (atomic on POSIX).  A crash mid-write leaves the
previous checkpoint intact; a crash between levels leaves the latest one.

Format: a single ``.npz`` archive with arrays ``A``, ``B`` and a JSON
metadata blob (format version, level index, digest, RNG state).
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

import numpy as np

from repro.parallel.arena import flatten_corpus

__all__ = [
    "CheckpointError",
    "CheckpointMismatchError",
    "Checkpoint",
    "CheckpointManager",
    "corpus_digest",
    "run_digest",
]

_FORMAT_VERSION = 1
_FILENAME = "hier_checkpoint.npz"


class CheckpointError(ValueError):
    """A checkpoint file is missing fields, corrupt, or unreadable."""


class CheckpointMismatchError(CheckpointError):
    """A checkpoint's run digest does not match the current run.

    Raised on ``resume=True`` when the corpus, merge tree, or optimizer
    configuration differ from the run that wrote the checkpoint.
    """


def corpus_digest(cascades) -> str:
    """Content digest of a cascade corpus in its flat (CSR) layout:
    :func:`~repro.parallel.arena.flatten_corpus`'s node ids, times and
    per-cascade offsets."""
    flat = flatten_corpus(cascades)
    h = hashlib.blake2b(digest_size=16)
    h.update(np.int64(cascades.n_nodes).tobytes())
    h.update(np.int64(len(cascades)).tobytes())
    h.update(flat.nodes.tobytes())
    h.update(flat.times.tobytes())
    h.update(flat.offsets.tobytes())
    return h.hexdigest()


def run_digest(cascades, tree, config) -> str:
    """Content digest binding a checkpoint to (corpus, merge tree, config).

    Combines :func:`corpus_digest`, every level's community membership,
    and the optimizer configuration's repr (a frozen dataclass, so the
    repr is canonical).
    """
    h = hashlib.blake2b(digest_size=16)
    h.update(corpus_digest(cascades).encode("ascii"))
    for partition in tree.levels:
        h.update(
            np.ascontiguousarray(partition.membership, dtype=np.int64).tobytes()
        )
    h.update(repr(config).encode("utf-8"))
    return h.hexdigest()


@dataclass
class Checkpoint:
    """Deserialized checkpoint state."""

    level_idx: int  # last *completed* merge-tree level
    A: np.ndarray
    B: np.ndarray
    digest: str
    rng_state: Optional[dict] = None


class CheckpointManager:
    """Owns one run's checkpoint file under *directory*.

    The directory is created if missing.  All writes are atomic
    (temp file + ``os.replace``); :meth:`load` returns ``None`` when no
    checkpoint exists yet.
    """

    def __init__(self, directory: Union[str, Path]) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.path = self.directory / _FILENAME

    # ------------------------------------------------------------------ #

    def save(
        self,
        level_idx: int,
        A: np.ndarray,
        B: np.ndarray,
        digest: str,
        rng_state: Optional[dict] = None,
    ) -> None:
        """Atomically persist state after completing *level_idx*."""
        meta = {
            "version": _FORMAT_VERSION,
            "level_idx": int(level_idx),
            "digest": digest,
            "rng_state": rng_state,
        }
        fd, tmp = tempfile.mkstemp(
            dir=self.directory, prefix=".ckpt-", suffix=".npz.tmp"
        )
        try:
            with os.fdopen(fd, "wb") as fh:
                np.savez(
                    fh,
                    A=np.ascontiguousarray(A, dtype=np.float64),
                    B=np.ascontiguousarray(B, dtype=np.float64),
                    meta=np.frombuffer(
                        json.dumps(meta).encode("utf-8"), dtype=np.uint8
                    ),
                )
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, self.path)
        except BaseException:
            try:
                os.unlink(tmp)
            except FileNotFoundError:
                pass
            raise

    def load(self) -> Optional[Checkpoint]:
        """Read the latest checkpoint, or ``None`` if none was written."""
        if not self.path.exists():
            return None
        try:
            with np.load(self.path) as data:
                if "A" not in data or "B" not in data or "meta" not in data:
                    raise CheckpointError(
                        f"{self.path}: not a checkpoint archive (need A, B, meta)"
                    )
                meta = json.loads(bytes(data["meta"]).decode("utf-8"))
                A = data["A"].copy()
                B = data["B"].copy()
        except (OSError, ValueError, json.JSONDecodeError) as exc:
            if isinstance(exc, CheckpointError):
                raise
            raise CheckpointError(f"{self.path}: unreadable checkpoint: {exc}") from exc
        if meta.get("version") != _FORMAT_VERSION:
            raise CheckpointError(
                f"{self.path}: unsupported checkpoint version {meta.get('version')!r}"
            )
        return Checkpoint(
            level_idx=int(meta["level_idx"]),
            A=A,
            B=B,
            digest=str(meta["digest"]),
            rng_state=meta.get("rng_state"),
        )

    def validate(self, digest: str) -> Optional[Checkpoint]:
        """Load and digest-check in one step (the resume entry point)."""
        ck = self.load()
        if ck is None:
            return None
        if ck.digest != digest:
            raise CheckpointMismatchError(
                f"{self.path}: checkpoint was written for a different run "
                f"(digest {ck.digest} != expected {digest}); refusing to "
                f"resume — delete the checkpoint or fix corpus/tree/config"
            )
        return ck

    def clear(self) -> None:
        """Delete the checkpoint file (e.g. after a completed run)."""
        try:
            self.path.unlink()
        except FileNotFoundError:
            pass
