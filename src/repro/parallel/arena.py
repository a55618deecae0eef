"""Zero-copy cascade arena: the corpus as flat buffers in shared memory.

Pickling every community's sub-cascade arrays to the workers would cost,
at **every merge-tree level**, per-level IPC proportional to the total
infection count.  The arena replaces that stream of small pickled arrays
with two fixed shared-memory blocks:

* :class:`CorpusArena` — built **once at engine start**: the whole corpus
  concatenated CSR-style (global node ids, infection times, per-cascade
  offsets).  Workers attach once and read for the lifetime of the fit.
  The layout is :func:`flatten_corpus`'s, which the serial backend keeps
  in process memory and the checkpoint digest hashes.
* :class:`LevelSelection` — rebuilt (or, on an optimizer restart with the
  same structure, *reused*) per level: the flat index arrays produced by
  :func:`repro.parallel.splitting.split_positions` — which arena positions
  belong to which community's sub-cascades — plus the concatenated
  community member lists (the local-id remap).

With both blocks in place a :class:`~repro.parallel.backends.BlockTask`
ships to a worker as a handful of integers (index ranges into the blocks),
so per-level pickle+IPC volume is O(communities), not O(total
infections).  The worker gathers its slices, builds a
:class:`~repro.embedding.compiled.CompiledCorpus` directly via
``CompiledCorpus.from_arena`` (no intermediate ``Cascade`` objects), and
caches the compiled structure keyed by the arena segment and the selection
digest, so optimizer restarts within a level skip recompilation entirely.
This is the multiprocess backend's only dispatch path.

Layout of each block (single POSIX shm segment, 64-byte aligned fields):

``CorpusArena``::

    [times  float64[M]] [nodes int64[M]] [offsets int64[C+1]]

``LevelSelection``::

    [positions int64[P]] [sub_offsets int64[S+1]] [members int64[N]]

Both parent-side classes own their segment (create + unlink); workers
attach through :func:`repro.parallel._shm.attach_untracked` and never
unlink.  Segments are sized with headroom so a later level that needs a
slightly larger selection can reuse the same segment (same name → workers
keep their cached attachment).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.cascades.types import CascadeSet
from repro.parallel._shm import create_segment

__all__ = [
    "ArenaMeta",
    "SelectionMeta",
    "FlatCorpus",
    "flatten_corpus",
    "CorpusArena",
    "LevelSelection",
    "attach_arrays",
    "layout_fields",
]

_ALIGN = 64


def _aligned(nbytes: int) -> int:
    """Round *nbytes* up to the segment alignment."""
    return (int(nbytes) + _ALIGN - 1) // _ALIGN * _ALIGN


#: ``(element_count, dtype)`` per aligned field of a segment.
_FieldSpec = Sequence[Tuple[int, "np.dtype | type"]]


def _layout(counts_dtypes: _FieldSpec) -> Tuple[Tuple[int, ...], int]:
    """Byte offsets of consecutive aligned fields plus the total size."""
    offsets: List[int] = []
    cursor = 0
    for count, dtype in counts_dtypes:
        offsets.append(cursor)
        cursor += _aligned(count * np.dtype(dtype).itemsize)
    return tuple(offsets), max(cursor, 1)


#: Public face of the aligned-field planner, paired with
#: :func:`attach_arrays`.  Other shared-memory blocks in the package
#: (the serving tier's shared model snapshots) reuse the arena's layout
#: discipline through these two names instead of re-deriving alignment.
layout_fields = _layout


@dataclass(frozen=True)
class ArenaMeta:
    """Everything a worker needs to map a :class:`CorpusArena` segment."""

    name: str
    n_infections: int
    n_cascades: int


@dataclass(frozen=True)
class SelectionMeta:
    """Everything a worker needs to map a :class:`LevelSelection` segment.

    ``digest`` identifies the selection *content* — with the arena's
    segment name it keys the worker-side compile cache, so two levels with
    identical structure over one corpus (e.g. an optimizer restart) hit
    the same cached ``CompiledCorpus``.
    """

    name: str
    digest: str
    n_positions: int
    n_subcascades: int
    n_members: int


def _arena_layout(M: int, C: int) -> Tuple[Tuple[int, ...], int]:
    return _layout(
        (
            (M, np.dtype(np.float64)),  # times
            (M, np.dtype(np.int64)),  # nodes
            (C + 1, np.dtype(np.int64)),  # offsets
        )
    )


def _selection_layout(P: int, S: int, N: int) -> Tuple[Tuple[int, ...], int]:
    return _layout(
        (
            (P, np.dtype(np.int64)),  # positions
            (S + 1, np.dtype(np.int64)),  # sub_offsets
            (N, np.dtype(np.int64)),  # members
        )
    )


def attach_arrays(
    buf: memoryview,
    field_offsets: Sequence[int],
    counts_dtypes: _FieldSpec,
) -> List[np.ndarray]:
    """Map aligned fields of a segment buffer as ndarray views."""
    out: List[np.ndarray] = []
    for off, (count, dtype) in zip(field_offsets, counts_dtypes):
        itemsize = np.dtype(dtype).itemsize
        out.append(
            np.ndarray((count,), dtype=dtype, buffer=buf, offset=off)
        )
    return out


class FlatCorpus(NamedTuple):
    """A corpus in the flat CSR layout the driver splits: cascade *c*
    occupies ``[offsets[c], offsets[c+1])`` of ``times`` and ``nodes``."""

    times: np.ndarray
    nodes: np.ndarray
    offsets: np.ndarray


def flatten_corpus(cascades: CascadeSet) -> FlatCorpus:
    """Concatenate every cascade's arrays (size-0/1 cascades included,
    so cascade ids line up with the corpus)."""
    offsets = np.zeros(len(cascades) + 1, dtype=np.int64)
    np.cumsum(cascades.sizes(), out=offsets[1:])
    if len(cascades):
        times = np.concatenate([c.times for c in cascades])
        nodes = np.concatenate([c.nodes for c in cascades])
    else:
        times = np.empty(0, dtype=np.float64)
        nodes = np.empty(0, dtype=np.int64)
    return FlatCorpus(times, nodes, offsets)


class CorpusArena:
    """Parent-owned shared-memory copy of the full corpus (CSR layout).

    Parameters
    ----------
    cascades:
        The observed corpus, stored as :func:`flatten_corpus` lays it
        out; the splitting layer applies the usual ``min_size`` filter
        on top.
    """

    def __init__(self, cascades: CascadeSet) -> None:
        flat = flatten_corpus(cascades)
        M = int(flat.nodes.size)
        C = len(cascades)
        field_offsets, total = _arena_layout(M, C)
        self._shm = create_segment(total)
        times, nodes, offs = attach_arrays(
            self._shm.buf,
            field_offsets,
            ((M, np.float64), (M, np.int64), (C + 1, np.int64)),
        )
        times[:] = flat.times
        nodes[:] = flat.nodes
        offs[:] = flat.offsets
        self.times = times
        self.nodes = nodes
        self.offsets = offs
        self.meta = ArenaMeta(self._shm.name, M, C)
        self._closed = False

    # ------------------------------------------------------------------ #

    @staticmethod
    def view(buf: memoryview, meta: ArenaMeta) -> List[np.ndarray]:
        """Worker-side ndarray views ``(times, nodes, offsets)`` of a
        segment attached under *meta*."""
        field_offsets, _ = _arena_layout(meta.n_infections, meta.n_cascades)
        return attach_arrays(
            buf,
            field_offsets,
            (
                (meta.n_infections, np.float64),
                (meta.n_infections, np.int64),
                (meta.n_cascades + 1, np.int64),
            ),
        )

    def close(self) -> None:
        """Release and unlink the segment (idempotent)."""
        if self._closed:
            return
        self._closed = True
        # Drop array views before closing the mmap under them.
        self.times = self.nodes = self.offsets = None
        self._shm.close()
        try:
            self._shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already unlinked
            pass


class LevelSelection:
    """Parent-owned, reusable shared-memory block for one level's split.

    The block is (re)written by :meth:`update`; if the new selection's
    content digest matches what is already resident, the write is skipped
    and workers keep serving compile-cache hits for it.  The segment is
    grown (new name) only when capacity is exceeded.
    """

    #: headroom factor applied when (re)allocating, so small growth between
    #: levels does not force a new segment (and worker re-attachment).
    _SLACK = 1.25

    def __init__(self) -> None:
        self._shm: Optional[shared_memory.SharedMemory] = None
        self._capacity = 0
        self.meta: Optional[SelectionMeta] = None

    # ------------------------------------------------------------------ #

    @staticmethod
    def digest_of(
        positions: np.ndarray, sub_offsets: np.ndarray, members: np.ndarray
    ) -> str:
        """Content digest of a selection (half of the compile-cache key)."""
        h = hashlib.blake2b(digest_size=16)
        h.update(np.int64(positions.size).tobytes())
        h.update(np.int64(sub_offsets.size).tobytes())
        h.update(np.ascontiguousarray(positions, dtype=np.int64).tobytes())
        h.update(np.ascontiguousarray(sub_offsets, dtype=np.int64).tobytes())
        h.update(np.ascontiguousarray(members, dtype=np.int64).tobytes())
        return h.hexdigest()

    def update(
        self,
        positions: np.ndarray,
        sub_offsets: np.ndarray,
        members: np.ndarray,
    ) -> SelectionMeta:
        """Publish a level's selection; returns the meta workers need.

        Returns the existing meta untouched when the content digest is
        unchanged (optimizer restart within a level: zero copies, and
        worker compile caches stay hot).
        """
        digest = self.digest_of(positions, sub_offsets, members)
        if self.meta is not None and self.meta.digest == digest:
            return self.meta
        P, S, N = positions.size, sub_offsets.size - 1, members.size
        field_offsets, total = _selection_layout(P, S, N)
        if self._shm is None or total > self._capacity:
            if self._shm is not None:
                self._release_segment()
            self._capacity = _aligned(int(total * self._SLACK))
            self._shm = create_segment(self._capacity)
        pos_v, sub_v, mem_v = attach_arrays(
            self._shm.buf,
            field_offsets,
            ((P, np.int64), (S + 1, np.int64), (N, np.int64)),
        )
        pos_v[:] = positions
        sub_v[:] = sub_offsets
        mem_v[:] = members
        del pos_v, sub_v, mem_v
        self.meta = SelectionMeta(self._shm.name, digest, P, S, N)
        return self.meta

    def resident_views(self) -> List[np.ndarray]:
        """Parent-side ndarray views of the *published* selection block.

        Reads back what workers will actually see — used by the
        ``REPRO_SANITIZE`` disjointness check to validate the resident
        content (including the digest-matched reuse path, where
        :meth:`update` skipped the write).  Callers must drop the views
        before the segment is closed.
        """
        if self._shm is None or self.meta is None:
            raise RuntimeError("no selection published")
        return self.view(self._shm.buf, self.meta)

    @staticmethod
    def view(buf: memoryview, meta: SelectionMeta) -> List[np.ndarray]:
        """Worker-side ndarray views ``(positions, sub_offsets, members)``."""
        field_offsets, _ = _selection_layout(
            meta.n_positions, meta.n_subcascades, meta.n_members
        )
        return attach_arrays(
            buf,
            field_offsets,
            (
                (meta.n_positions, np.int64),
                (meta.n_subcascades + 1, np.int64),
                (meta.n_members, np.int64),
            ),
        )

    # ------------------------------------------------------------------ #

    def _release_segment(self) -> None:
        shm, self._shm = self._shm, None
        self.meta = None
        if shm is not None:
            shm.close()
            try:
                shm.unlink()
            except FileNotFoundError:  # pragma: no cover
                pass

    def close(self) -> None:
        """Release and unlink the segment (idempotent)."""
        self._release_segment()
        self._capacity = 0
