"""Struct-of-arrays incremental feature store for the serving tier.

The store keeps per-cascade state in pooled, grow-only **columns**
indexed by a *slot* table (the serving analog of the gradient kernel's
``ScatterPlan``, DESIGN.md §13):

* fixed-width per-cascade scalars — event count, last-event time, model
  version, incarnation generation, cached-row validity — live in numpy
  columns (``_n_events``, ``_last_event_at``, ``_version``, ``_gen``,
  ``_row_valid``);
* the cached feature vector of every cascade is one **row** of a pooled
  ``(slots, F)`` matrix (``_rows``), so a batched flush gathers its
  feature matrix with a single fancy-index instead of stacking N
  per-tracker vectors, after rewriting the stale rows with one
  :func:`~repro.prediction.features.feature_rows` call;
* the fold state of every cascade — per embedding plane, the running
  max squared pair distance and the running sum — is one row of the
  shared :class:`~repro.prediction.features.FoldColumns`;
* the ragged per-cascade history (adoption log, adopter set, tree
  state) stays in one recycled
  :class:`~repro.prediction.features.IncrementalFeatures` engine per
  slot, bound to the slot's fold-state row.  Engines are *reset*,
  never freed: evicting a cascade returns its slot (and the engine's
  grown buffers) to a free list, and the next admission reuses them
  without allocation.

A burst of adoption events spanning many cascades folds in with one
:func:`~repro.prediction.features.fold_burst` call
(:meth:`FeatureStore.ingest_columns`): the store does the bookkeeping —
admission, LRU touch, eviction, in exactly the sequence the
one-at-a-time path produces — and the kernel groups the burst,
filters duplicates and folds every touched cascade in one numeric pass.
The observable state — features, LRU order, stats — is identical to
feeding the same events through :meth:`FeatureStore.ingest` one at a
time; the parity property suites pin this down bit-for-bit.

The store bounds memory two ways:

* **LRU capacity** — when more than ``capacity`` cascades are tracked,
  the least recently *touched* (event or score) cascade is evicted.
* **TTL expiry** — :meth:`FeatureStore.sweep` drops cascades whose last
  *event* is older than ``ttl`` seconds of service clock.  The sweep is
  O(expired) amortized: a lazy min-heap over ``(last_event_at, slot,
  generation)`` is pushed **once per admission**; later events only
  refresh the column, and the sweep re-queues a refreshed entry when it
  surfaces (refresh-on-pop).  An idle store therefore pays nothing —
  the heap top is young, the sweep never walks the live table.

Eviction discards the cascade's observed history.  If events for an
evicted id arrive later (re-admission), tracking restarts from scratch
under a bumped generation: the features then describe the events
observed *since re-admission* — the well-defined semantics under
bounded memory, and exactly what the parity property test pins down.

Model hot-swaps are lazy: each slot remembers the snapshot version its
state was computed under and rebuilds (replays its event log) the first
time it is touched under a newer snapshot.  Dormant cascades therefore
never pay for swaps they don't observe.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import math
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import (
    AbstractSet,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as np

from repro.prediction.features import (
    PAPER_FEATURES,
    FoldColumns,
    IncrementalFeatures,
    feature_rows,
    fold_burst,
)
from repro.serving.batching import ScoringWorkspace
from repro.serving.registry import ModelSnapshot

__all__ = ["StoreConfig", "StoreStats", "CascadeTracker", "FeatureStore"]


@dataclass(frozen=True)
class StoreConfig:
    """Memory policy of the feature store.

    Attributes
    ----------
    capacity:
        Max cascades tracked simultaneously (LRU eviction beyond it).
    ttl:
        Seconds of event inactivity after which :meth:`FeatureStore.sweep`
        expires a cascade; ``None`` disables expiry.
    """

    capacity: int = 100_000
    ttl: Optional[float] = None

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise ValueError("capacity must be >= 1")
        # NaN passes every ordered comparison: a NaN TTL would make the
        # sweep's cutoff NaN and expire every cascade on each sweep
        if self.ttl is not None and not (math.isfinite(self.ttl) and self.ttl > 0):
            raise ValueError(f"ttl must be finite and > 0 (or None), got {self.ttl!r}")


@dataclass
class StoreStats:
    """Counters the store accumulates over its lifetime.

    ``sweep_pops`` counts lazy-heap operations performed by
    :meth:`FeatureStore.sweep` — the regression tests use it to prove a
    sweep over an idle store does not walk every tracker.
    """

    events: int = 0
    duplicates: int = 0
    admissions: int = 0
    evictions: int = 0
    expirations: int = 0
    rebuilds: int = 0
    sweep_pops: int = 0


class CascadeTracker:
    """Read-only view of one tracked cascade's slot.

    The store's storage is columnar; this shim keeps the historical
    object API (``store.get(cid).n_events`` etc.) alive.  A view is
    pinned to the slot's current *incarnation*: once the cascade is
    evicted, expired, or dropped, the view raises instead of silently
    reading whatever cascade recycled the slot.
    """

    __slots__ = ("cascade_id", "_store", "_slot", "_gen")

    def __init__(self, store: "FeatureStore", cascade_id: str, slot: int) -> None:
        self.cascade_id = cascade_id
        self._store = store
        self._slot = slot
        self._gen = int(store._gen[slot])

    def _live_slot(self) -> int:
        if int(self._store._gen[self._slot]) != self._gen:
            raise LookupError(
                f"cascade {self.cascade_id!r} is no longer tracked "
                "(evicted, expired, or dropped)"
            )
        return self._slot

    @property
    def engine(self) -> IncrementalFeatures:
        engine = self._store._engines[self._live_slot()]
        assert engine is not None
        return engine

    @property
    def n_events(self) -> int:
        return int(self._store._n_events[self._live_slot()])

    @property
    def model_version(self) -> int:
        return int(self._store._version[self._live_slot()])

    @property
    def last_event_at(self) -> float:
        return float(self._store._last_event_at[self._live_slot()])

    def features(self, snapshot: ModelSnapshot) -> np.ndarray:
        """Current feature vector under *snapshot* (cached, read-only)."""
        self._live_slot()
        vec = self._store.features(self.cascade_id, snapshot)
        assert vec is not None
        return vec


class _PendingGroup:
    """Deferred fold for one cascade incarnation within a burst."""

    __slots__ = ("nodes", "times", "burst_nodes", "seen", "rebind")

    def __init__(self, seen: AbstractSet[int]) -> None:
        self.nodes: List[int] = []
        self.times: List[float] = []
        self.burst_nodes: Set[int] = set()
        #: the engine's live adopter set, captured at group creation so
        #: the per-event duplicate check is two set probes, no calls
        self.seen = seen
        self.rebind = False


class FeatureStore:
    """LRU/TTL-bounded columnar store ``cascade_id -> slot``.

    Not thread-safe on its own — the owning
    :class:`~repro.serving.service.ScoringService` serializes access.
    """

    def __init__(
        self,
        feature_set: Sequence[str] = PAPER_FEATURES,
        config: Optional[StoreConfig] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.feature_set = tuple(feature_set)
        self.config = config if config is not None else StoreConfig()
        self._clock = clock
        self.stats = StoreStats()
        # slot table: id -> slot in LRU order (least recently touched first)
        self._slots: "OrderedDict[str, int]" = OrderedDict()
        self._free: List[int] = []
        self._n_slots = 0
        self._slot_capacity = 0
        # pooled columns (grow-only, doubled on demand)
        f = len(self.feature_set)
        self._n_events = np.empty(0, dtype=np.int64)
        self._last_event_at = np.empty(0, dtype=np.float64)
        self._version = np.empty(0, dtype=np.int64)
        self._gen = np.empty(0, dtype=np.int64)
        self._row_valid = np.empty(0, dtype=np.bool_)
        self._rows = np.empty((0, f), dtype=np.float64)
        # fold state of every slot, shared by the slots' engines
        self._fold = FoldColumns(self.feature_set, capacity=0)
        # ragged per-slot state (recycled across incarnations)
        self._engines: List[Optional[IncrementalFeatures]] = []
        self._slot_ids: List[Optional[str]] = []
        self._public: List[Optional[np.ndarray]] = []
        # lazy TTL heap: (last_event_at-at-push, slot, generation)
        self._heap: List[Tuple[float, int, int]] = []

    # ------------------------------------------------------------------ #
    # Slot lifecycle
    # ------------------------------------------------------------------ #

    def _grow(self, capacity: int) -> None:
        def realloc(col: np.ndarray) -> np.ndarray:
            new = np.empty(capacity, dtype=col.dtype)
            new[: self._n_slots] = col[: self._n_slots]
            return new

        self._n_events = realloc(self._n_events)
        self._last_event_at = realloc(self._last_event_at)
        self._version = realloc(self._version)
        gen = np.zeros(capacity, dtype=np.int64)
        gen[: self._n_slots] = self._gen[: self._n_slots]
        self._gen = gen
        valid = np.zeros(capacity, dtype=np.bool_)
        valid[: self._n_slots] = self._row_valid[: self._n_slots]
        self._row_valid = valid
        rows = np.empty((capacity, self._rows.shape[1]), dtype=np.float64)
        rows[: self._n_slots] = self._rows[: self._n_slots]
        self._rows = rows
        self._fold.grow(capacity)
        extra = capacity - len(self._engines)
        self._engines.extend([None] * extra)
        self._slot_ids.extend([None] * extra)
        self._public.extend([None] * extra)
        self._slot_capacity = capacity

    def _admit(self, cascade_id: str, snapshot: ModelSnapshot, now: float) -> int:
        """Bind *cascade_id* to a (possibly recycled) slot."""
        if self._free:
            slot = self._free.pop()
        else:
            if self._n_slots == self._slot_capacity:
                self._grow(max(16, self._slot_capacity * 2))
            slot = self._n_slots
            self._n_slots += 1
        engine = self._engines[slot]
        if engine is None:
            self._engines[slot] = IncrementalFeatures(
                snapshot.model, self.feature_set, state=self._fold, row=slot
            )
        else:
            engine.reset(snapshot.model)
        self._slots[cascade_id] = slot
        self._slot_ids[slot] = cascade_id
        self._n_events[slot] = 0
        self._last_event_at[slot] = now
        self._version[slot] = snapshot.version
        self._row_valid[slot] = False
        self._public[slot] = None
        if self.config.ttl is not None:
            heapq.heappush(self._heap, (now, slot, int(self._gen[slot])))
        self.stats.admissions += 1
        return slot

    def _release(self, slot: int) -> None:
        """Return a slot to the free list (mapping already removed).

        The engine stays attached for recycling; bumping the generation
        invalidates outstanding views and stale heap entries.
        """
        self._slot_ids[slot] = None
        self._gen[slot] += 1
        self._public[slot] = None
        self._free.append(slot)

    def _evict_over_capacity(self) -> None:
        while len(self._slots) > self.config.capacity:
            _, slot = self._slots.popitem(last=False)
            self._release(slot)
            self.stats.evictions += 1

    def _sync_slot(self, slot: int, snapshot: ModelSnapshot) -> None:
        """Rebuild the slot under *snapshot* if its state predates it."""
        if self._version[slot] != snapshot.version:
            engine = self._engines[slot]
            assert engine is not None
            engine.rebind(snapshot.model)
            self._version[slot] = snapshot.version
            self._row_valid[slot] = False
            self._public[slot] = None
            self.stats.rebuilds += 1

    def _invalidate(self, slot: int) -> None:
        self._row_valid[slot] = False
        self._public[slot] = None

    # ------------------------------------------------------------------ #
    # Mapping API
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return len(self._slots)

    def __contains__(self, cascade_id: str) -> bool:
        return cascade_id in self._slots

    def cascade_ids(self) -> List[str]:
        """Tracked ids, least recently touched first."""
        return list(self._slots)

    def get(self, cascade_id: str) -> Optional[CascadeTracker]:
        """Peek a tracker view without touching LRU order."""
        slot = self._slots.get(cascade_id)
        if slot is None:
            return None
        return CascadeTracker(self, cascade_id, slot)

    # ------------------------------------------------------------------ #
    # Ingest
    # ------------------------------------------------------------------ #

    def ingest(self, cascade_id: str, node: int, t: float, snapshot: ModelSnapshot) -> bool:
        """Fold one adoption event in, admitting the cascade if needed.

        Returns ``True`` when the event changed state (``False`` for a
        duplicate adopter — at-least-once delivery is expected).  An
        invalid node or non-finite time raises with the store untouched.
        """
        node, t = int(node), float(t)
        if not math.isfinite(t):
            raise ValueError("adoption times must be finite")
        n_nodes = snapshot.model.n_nodes
        if node < 0 or node >= n_nodes:
            raise ValueError(f"node {node} outside the model universe of {n_nodes} nodes")
        now = self._clock()
        slot = self._slots.get(cascade_id)
        if slot is None:
            slot = self._admit(cascade_id, snapshot, now)
        else:
            self._slots.move_to_end(cascade_id)
            self._sync_slot(slot, snapshot)
        engine = self._engines[slot]
        assert engine is not None
        applied = engine.update(node, t)
        if applied:
            self._n_events[slot] = engine.n_events
            self._last_event_at[slot] = now
            self._invalidate(slot)
            self.stats.events += 1
        else:
            self.stats.duplicates += 1
        self._evict_over_capacity()
        return applied

    def ingest_columns(
        self,
        cascade_ids: Sequence[str],
        nodes: np.ndarray,
        times: np.ndarray,
        snapshot: ModelSnapshot,
    ) -> int:
        """Fold a burst given as three parallel columns in: an id
        sequence, a node array and a time array, the layout a firehose
        consumer (log shard, Arrow batch) already holds.

        Returns how many events applied (non-duplicates).  Observable
        state — features, LRU order, admission/eviction sequence, stats
        — is identical to calling :meth:`ingest` once per event under
        one clock reading, but the whole burst folds with one
        :func:`~repro.prediction.features.fold_burst` call.

        Two regimes, same observable semantics:

        * **Headroom fast path** — when the burst's new cascades fit
          under ``capacity`` (no eviction can occur), admissions replay
          in first-occurrence order, LRU touches collapse to one
          ``move_to_end`` per cascade in last-occurrence order — the
          exact final order sequential ingest would leave — and the
          kernel folds the burst (it already duplicate-filters in
          arrival order).
        * **Eviction slow path** — otherwise, pass 1 walks the burst in
          arrival order doing the bookkeeping (admit / LRU touch /
          duplicate filter / capacity eviction), queueing the numeric
          work per cascade incarnation; a cascade evicted mid-burst
          simply drops its queued folds (sequential ingest would have
          folded then discarded them — same end state, same stats).
          Pass 2 folds every queued share with one kernel call.

        Unlike the scalar path, the whole burst is validated before any
        state changes (an invalid node or non-finite time raises with
        the store untouched).
        """
        node_arr = np.asarray(nodes, dtype=np.int64)
        time_arr = np.asarray(times, dtype=np.float64)
        n = node_arr.shape[0]
        if len(cascade_ids) != n or time_arr.shape[0] != n:
            raise ValueError("cascade_ids, nodes, times must be equal length")
        if n == 0:
            return 0
        n_nodes = snapshot.model.n_nodes
        if not bool(np.all(np.isfinite(time_arr))):
            raise ValueError("adoption times must be finite")
        lo, hi = int(node_arr.min()), int(node_arr.max())
        if lo < 0 or hi >= n_nodes:
            bad = lo if lo < 0 else hi
            raise ValueError(
                f"node {bad} outside the model universe of {n_nodes} nodes"
            )
        now = self._clock()
        slots = self._slots
        # one dict pass numbers the cascades in first-occurrence order —
        # exactly the order sequential ingest admits new cascades
        index: Dict[str, int] = {}
        number = index.setdefault
        group_of = [number(cid, len(index)) for cid in cascade_ids]
        first_seen = list(index)
        n_new = sum(1 for cid in first_seen if cid not in slots)
        if len(slots) + n_new <= self.config.capacity:
            return self._ingest_headroom(
                first_seen, group_of, n_new, node_arr, time_arr, snapshot, now
            )
        return self._ingest_evicting(
            cascade_ids, node_arr, time_arr, snapshot, now
        )

    def _ingest_headroom(
        self,
        first_seen: List[str],
        group_of: List[int],
        n_new: int,
        node_arr: np.ndarray,
        time_arr: np.ndarray,
        snapshot: ModelSnapshot,
        now: float,
    ) -> int:
        """Eviction-free burst fold: no per-event Python loop at all."""
        slots = self._slots
        # grow the pooled columns to their final size up front: a burst
        # admitting hundreds of fresh cascades would otherwise realloc
        # and copy every column once per doubling inside the loop
        needed = self._n_slots + max(0, n_new - len(self._free))
        if needed > self._slot_capacity:
            cap = max(16, self._slot_capacity)
            while cap < needed:
                cap *= 2
            self._grow(cap)
        # admissions in first-occurrence order
        for cid in first_seen:
            if cid not in slots:
                self._admit(cid, snapshot, now)
        # final LRU order == every touched cascade re-ranked by its last
        # occurrence (untouched cascades keep their relative positions)
        for g in reversed(dict.fromkeys(reversed(group_of))):
            slots.move_to_end(first_seen[g])
        engines: List[IncrementalFeatures] = []
        touched: List[int] = []
        for cid in first_seen:
            slot = slots[cid]
            self._sync_slot(slot, snapshot)
            engine = self._engines[slot]
            assert engine is not None
            engines.append(engine)
            touched.append(slot)
        # one whole-burst scan: gathered subsequences of a time-sorted
        # firehose (the common arrival order) are sorted, so the kernel
        # skips every per-cascade ordering check
        burst_sorted = bool((time_arr[1:] >= time_arr[:-1]).all())
        applied = fold_burst(
            engines, np.array(group_of, dtype=np.intp), node_arr, time_arr, burst_sorted
        )
        total = self._settle(touched, engines, applied, now)
        self.stats.events += total
        self.stats.duplicates += len(group_of) - total
        return total

    def _settle(
        self,
        touched: Sequence[int],
        engines: Sequence[IncrementalFeatures],
        applied: Sequence[int],
        now: float,
    ) -> int:
        """Column bookkeeping after a burst fold; returns how many
        events the folds applied."""
        total = 0
        for slot, engine, done in zip(touched, engines, applied):
            if done:
                total += done
                self._n_events[slot] = engine.n_events
                # the whole burst shares one clock reading
                self._last_event_at[slot] = now
                self._invalidate(slot)
        return total

    def _ingest_evicting(
        self,
        cid_seq: Sequence[str],
        node_arr: np.ndarray,
        time_arr: np.ndarray,
        snapshot: ModelSnapshot,
        now: float,
    ) -> int:
        """Arrival-order burst fold for bursts that may evict."""
        # native ints/floats: the per-event loop below and the queued
        # group folds never touch numpy scalars again
        node_list = node_arr.tolist()
        time_list = time_arr.tolist()
        slots = self._slots
        # NOTE: self._version is re-read inside the loop — _admit may
        # grow (and therefore reassign) the pooled columns mid-burst
        engines = self._engines
        snap_version = snapshot.version
        capacity = self.config.capacity
        stats = self.stats
        pending: Dict[int, _PendingGroup] = {}
        applied = 0
        duplicates = 0
        for cascade_id, node, t in zip(cid_seq, node_list, time_list):
            slot = slots.get(cascade_id)
            if slot is None:
                slot = self._admit(cascade_id, snapshot, now)
                engine = engines[slot]
                assert engine is not None
                group = pending[slot] = _PendingGroup(engine.adopters)
                # a fresh incarnation cannot hold this node yet
                group.burst_nodes.add(node)
                group.nodes.append(node)
                group.times.append(t)
                applied += 1
                # admission is the only point the map can grow past
                # capacity, so the eviction check lives off the hot path
                if len(slots) > capacity:
                    _, victim = slots.popitem(last=False)
                    # deferred folds die with the slot
                    pending.pop(victim, None)
                    self._release(victim)
                    stats.evictions += 1
                continue
            slots.move_to_end(cascade_id)
            maybe = pending.get(slot)
            if maybe is None:
                engine = engines[slot]
                assert engine is not None
                group = pending[slot] = _PendingGroup(engine.adopters)
                if self._version[slot] != snap_version:
                    # count + mark now (arrival order), rebind in pass 2
                    group.rebind = True
                    self._version[slot] = snap_version
                    stats.rebuilds += 1
            else:
                group = maybe
            burst_nodes = group.burst_nodes
            if node in burst_nodes or node in group.seen:
                duplicates += 1
                continue
            burst_nodes.add(node)
            group.nodes.append(node)
            group.times.append(t)
            applied += 1
        stats.events += applied
        stats.duplicates += duplicates
        folding: List[IncrementalFeatures] = []
        touched: List[int] = []
        sizes: List[int] = []
        fold_nodes: List[int] = []
        fold_times: List[float] = []
        for slot, group in pending.items():
            engine = engines[slot]
            assert engine is not None
            if group.rebind:
                engine.rebind(snapshot.model)
                self._invalidate(slot)
            if group.nodes:
                folding.append(engine)
                touched.append(slot)
                sizes.append(len(group.nodes))
                fold_nodes.extend(group.nodes)
                fold_times.extend(group.times)
        # the burst was validated atomically above; pass 1 filtered
        # every duplicate, so the kernel applies each queued event
        folded = fold_burst(
            folding,
            np.repeat(np.arange(len(folding)), sizes),
            np.asarray(fold_nodes, dtype=np.int64),
            np.asarray(fold_times, dtype=np.float64),
        )
        self._settle(touched, folding, folded, now)
        return applied

    # ------------------------------------------------------------------ #
    # Feature access
    # ------------------------------------------------------------------ #

    def _refresh_rows(self, slots: np.ndarray) -> None:
        """Write the cached feature rows of *slots*, synced to one
        snapshot, with one :func:`feature_rows` call; each slot is
        marked valid only once its row is written."""
        engines: List[IncrementalFeatures] = []
        for slot in slots.tolist():
            engine = self._engines[slot]
            assert engine is not None
            engines.append(engine)
        self._rows[slots] = feature_rows(engines)
        self._row_valid[slots] = True

    def touch(self, cascade_id: str, snapshot: ModelSnapshot) -> Optional[CascadeTracker]:
        """Tracker view for scoring: LRU touch + model sync, one lookup."""
        slot = self._slots.get(cascade_id)
        if slot is None:
            return None
        self._slots.move_to_end(cascade_id)
        self._sync_slot(slot, snapshot)
        return CascadeTracker(self, cascade_id, slot)

    def features(self, cascade_id: str, snapshot: ModelSnapshot) -> Optional[np.ndarray]:
        """Feature vector of a tracked cascade, or ``None`` if unknown.

        Touches LRU order (scoring a cascade marks it as live).  The
        returned array is a read-only copy detached from the pooled
        cache — it stays valid (and frozen at its values) across later
        events; the same object is handed back until the next event or
        model swap.
        """
        slot = self._slots.get(cascade_id)
        if slot is None:
            return None
        self._slots.move_to_end(cascade_id)
        self._sync_slot(slot, snapshot)
        public = self._public[slot]
        if public is None:
            if not self._row_valid[slot]:
                self._refresh_rows(np.array([slot], dtype=np.intp))
            public = self._rows[slot].copy()
            public.setflags(write=False)
            self._public[slot] = public
        return public

    def gather_batch(
        self,
        cascade_ids: Sequence[str],
        snapshot: ModelSnapshot,
        ws: ScoringWorkspace,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Resolve a scoring batch into one pooled feature matrix.

        Returns ``(X, row_of, n_events)`` where ``X`` is the ``(live,
        F)`` feature matrix gathered from the pooled row cache with one
        fancy-index, ``row_of[i]`` is request *i*'s row in ``X`` (``-1``
        for unknown cascades) and ``n_events[i]`` its event count.  All
        three are views into workspace buffers — valid only until the
        next workspace call (the flush builds its results before then).

        Touches LRU order and syncs each live cascade to *snapshot*,
        exactly like :meth:`features` per id; the stale rows among them
        are then refreshed with one :func:`feature_rows` call.
        """
        n = len(cascade_ids)
        row_of = ws.vec("gather_row_of", n, np.int64)
        n_events = ws.vec("gather_n_events", n, np.int64)
        live = ws.vec("gather_slots", n, np.int64)
        slots = self._slots
        k = 0
        for i, cascade_id in enumerate(cascade_ids):
            slot = slots.get(cascade_id)
            if slot is None:
                row_of[i] = -1
                n_events[i] = 0
                continue
            slots.move_to_end(cascade_id)
            self._sync_slot(slot, snapshot)
            row_of[i] = k
            n_events[i] = self._n_events[slot]
            live[k] = slot
            k += 1
        # every stale live slot refreshes in one pass (a repeated id
        # computes and writes its row twice, with the same bits)
        stale = live[:k][~self._row_valid[live[:k]]]
        if stale.shape[0]:
            self._refresh_rows(stale)
        x = ws.mat("gather_X", k, self._rows.shape[1])
        np.take(self._rows, live[:k], axis=0, out=x)
        return x, row_of, n_events

    # ------------------------------------------------------------------ #
    # Expiry / retirement
    # ------------------------------------------------------------------ #

    def sweep(self, now: Optional[float] = None) -> int:
        """Expire cascades whose last event is older than the TTL.

        O(expired) amortized: heap entries are pushed once per
        admission, so the sweep pops only entries that are expired,
        stale (evicted incarnation), or refreshed-since-push (re-queued
        at their true time).  A young heap top ends the sweep without
        touching the live table at all.
        """
        ttl = self.config.ttl
        if ttl is None:
            return 0
        if now is None:
            now = self._clock()
        cutoff = now - ttl
        heap = self._heap
        stats = self.stats
        expired = 0
        while heap:
            t, slot, gen = heap[0]
            if t >= cutoff:
                break  # youngest possible candidate is still fresh
            stats.sweep_pops += 1
            if self._gen[slot] != gen:
                heapq.heappop(heap)  # stale incarnation
                continue
            actual = float(self._last_event_at[slot])
            if actual > t:
                heapq.heapreplace(heap, (actual, slot, gen))  # refreshed
                continue
            heapq.heappop(heap)
            cascade_id = self._slot_ids[slot]
            assert cascade_id is not None
            del self._slots[cascade_id]
            self._release(slot)
            expired += 1
        stats.expirations += expired
        # stale entries (evicted incarnations too young to surface) can
        # pile up under heavy churn; rebuild from the live table then
        if len(heap) > 4 * len(self._slots) + 64:
            fresh = [
                (float(self._last_event_at[s]), s, int(self._gen[s]))
                for s in self._slots.values()
            ]
            heapq.heapify(fresh)
            self._heap = fresh
        return expired

    def drop(self, cascade_id: str) -> bool:
        """Explicitly forget one cascade (client-driven retirement)."""
        slot = self._slots.get(cascade_id)
        if slot is None:
            return False
        del self._slots[cascade_id]
        self._release(slot)
        return True

    # ------------------------------------------------------------------ #
    # Durability export
    # ------------------------------------------------------------------ #

    def export_state(self) -> Tuple[List[str], np.ndarray, np.ndarray, np.ndarray]:
        """Columnar dump of every tracked cascade's observed event log.

        Returns ``(cascade_ids, offsets, nodes, times)``: ids in LRU
        order (least recently touched first), ``offsets`` of length
        ``len(ids) + 1`` delimiting each cascade's block in the
        concatenated ``nodes``/``times`` columns.  Events within a block
        are in the engine's observation order.

        This is the journal-snapshot wire shape
        (:class:`~repro.serving.durability.StoreSnapshot`): feeding the
        blocks back through :meth:`ingest_columns` as one burst admits
        cascades in LRU order and re-ranks each by its last occurrence
        to that same order — the restored store's eviction queue, event
        logs, and feature vectors are bit-identical to the original's.
        """
        cids: List[str] = []
        sizes: List[int] = []
        node_blocks: List[List[int]] = []
        time_blocks: List[List[float]] = []
        for cid, slot in self._slots.items():
            engine = self._engines[slot]
            assert engine is not None
            observed = engine.observed()
            cids.append(cid)
            sizes.append(len(observed.nodes))
            node_blocks.append(observed.nodes)
            time_blocks.append(observed.times)
        offsets = np.zeros(len(cids) + 1, dtype=np.int64)
        np.cumsum(sizes, out=offsets[1:])
        total = int(offsets[-1])
        nodes = np.empty(total, dtype=np.int64)
        times = np.empty(total, dtype=np.float64)
        for i, (nb, tb) in enumerate(zip(node_blocks, time_blocks)):
            nodes[offsets[i] : offsets[i + 1]] = nb
            times[offsets[i] : offsets[i + 1]] = tb
        return cids, offsets, nodes, times

    def state_fingerprint(self) -> str:
        """Content hash of the tracked state (blake2b over the columnar
        dump of :meth:`export_state`).

        Two stores fingerprint equal iff they track the same cascades in
        the same LRU order with bit-identical observed event logs — the
        equivalence the replay harness gates on: replaying a recorded
        stream must leave the store indistinguishable from direct
        columnar ingest of the same events (DESIGN.md §17).
        """
        cids, offsets, nodes, times = self.export_state()
        h = hashlib.blake2b(digest_size=16)
        h.update(json.dumps(cids).encode("utf-8"))
        h.update(offsets.tobytes())
        h.update(nodes.tobytes())
        h.update(times.tobytes())
        return h.hexdigest()
