"""The synchronous scoring core: trackers + registry + vectorized scoring.

:class:`ScoringService` is the piece every front end shares (in-process
callers use it directly; the asyncio server and the benchmarks wrap
it).  It is thread-safe — one re-entrant lock
serializes ingest/score/sweep — and clock-agnostic: all timing uses the
injected monotonic clock, so tests can drive time deterministically.

:meth:`ScoringService.score_columns` is the one code path that turns
cascade ids into scores:

1. read the registry snapshot **once** (atomic; the whole batch is
   scored under exactly one model version — no torn reads);
2. resolve the batch through :meth:`FeatureStore.gather_batch`: each
   live cascade's pooled feature-cache row is refreshed only if an
   event or model swap invalidated it, then the whole ``(n, d)`` batch
   matrix is gathered with one fancy-index;
3. make a single vectorized
   :meth:`ViralityPredictor.decision_function` call.

Every numpy intermediate lives in the service's persistent
:class:`~repro.serving.batching.ScoringWorkspace`; only the output
columns are allocated per call.  Everything else rides it:
:meth:`~ScoringService.score` is row 0 of ``score_columns([cascade_id])``
and the asyncio server answers a group of concurrent ``score`` ops with
one call (group commit, DESIGN.md §12.3).  One-off and grouped scores
are bit-identical by construction.  The service keeps no request queue.

Durability is opt-in: with a journal attached
(:meth:`ScoringService.attach_journal`), every validated ingest burst
and every model publish is written to the write-ahead log *inside the
same locked section* that applied it — journal order is apply order by
construction, which is what makes replay deterministic (DESIGN.md §14).
Journal I/O failures degrade rather than crash: the service flips to
shed-and-warn (scoring continues, appends are suspended, the condition
surfaces in :meth:`stats` and the health snapshot).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, Optional, Sequence, Union

import numpy as np

from repro.devtools.sanitize import LockLike, guarded_rlock
from repro.embedding.model import EmbeddingModel
from repro.prediction.features import PAPER_FEATURES
from repro.prediction.pipeline import ViralityPredictor
from repro.serving.batching import ScoreColumns, ScoreResult, ScoringWorkspace
from repro.serving.health import HealthMonitor
from repro.serving.registry import ModelRegistry, ModelSnapshot, SnapshotLoadError
from repro.serving.tracker import FeatureStore, StoreConfig

if TYPE_CHECKING:  # import cycle: durability builds services during recovery
    from repro.serving.durability import EventJournal

__all__ = ["ScoringService", "ServiceStats"]


@dataclass
class ServiceStats:
    """Lifetime counters the service exposes via :meth:`ScoringService.stats`."""

    ingested: int = 0
    scored: int = 0
    batches: int = 0
    unknown: int = 0
    journal_faults: int = 0


class ScoringService:
    """Event-driven virality scorer with vectorized group evaluation."""

    def __init__(
        self,
        registry: ModelRegistry,
        feature_set: Sequence[str] = PAPER_FEATURES,
        store_config: Optional[StoreConfig] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.registry = registry
        self._clock = clock
        # Reentrant: drain() seals and an ingest compacts while already
        # holding it.
        # Under REPRO_SANITIZE=1 the factory returns an order-tracked
        # wrapper feeding the runtime lock-order sanitizer.
        self._lock: LockLike = guarded_rlock("ScoringService._lock")
        self.store = FeatureStore(feature_set, config=store_config, clock=clock)  # guarded-by: _lock
        self.stats_counters = ServiceStats()  # guarded-by: _lock
        self.health = HealthMonitor(clock=clock)  # guarded-by: _lock
        # one workspace per service, used only under the lock
        self._ws = ScoringWorkspace()  # guarded-by: _lock
        self._journal: Optional["EventJournal"] = None  # guarded-by: _lock
        self._journal_suspended = False  # guarded-by: _lock

    # ------------------------------------------------------------------ #
    # Durability
    # ------------------------------------------------------------------ #

    @property
    def journal(self) -> Optional["EventJournal"]:
        with self._lock:
            return self._journal

    def attach_journal(self, journal: "EventJournal") -> None:
        """Start journaling every future ingest burst and publish.

        Attach *before* traffic (or right after recovery, which is the
        same thing): bursts applied while no journal was attached are
        not durable.
        """
        with self._lock:
            self._journal = journal
            self._journal_suspended = False
            self.health.clear("journal")

    def _journal_fault(self, exc: OSError, what: str) -> None:
        """Journal I/O failed: suspend durability, keep scoring."""
        self._journal_suspended = True
        self.stats_counters.journal_faults += 1
        detail = f"{what}: {exc}"
        self.health.record_fault("journal_io", detail)
        self.health.degrade("journal", f"durability suspended ({detail})")

    def _journal_events(
        self,
        cascade_ids: Sequence[str],
        nodes: np.ndarray,
        times: np.ndarray,
    ) -> None:
        """Append one validated burst; called under the lock, post-apply.

        Every *validated* burst is journaled even when zero events
        applied: a fully-duplicate burst still re-ranks LRU order, and
        LRU order decides future evictions — replay must reproduce it.
        Only ``OSError`` is absorbed (into degraded mode); an injected
        :class:`~repro.serving.durability.InjectedCrash` propagates,
        exactly like a real process death would.
        """
        journal = self._journal
        if journal is None or self._journal_suspended:
            return
        try:
            journal.append_events(cascade_ids, nodes, times)
        except OSError as exc:
            self._journal_fault(exc, "append_events")
            return
        if journal.should_snapshot():
            self.compact()

    def journal_tick(self) -> None:
        """Opportunistic interval-fsync; driven by the server's heartbeat."""
        with self._lock:
            journal = self._journal
            if journal is None or self._journal_suspended:
                return
            try:
                journal.tick()
            except OSError as exc:
                self._journal_fault(exc, "tick")

    def compact(self) -> bool:
        """Snapshot the full store state and prune superseded segments.

        Returns ``True`` on success, ``False`` when no journal is
        attached or durability is suspended.  A failed snapshot write
        degrades (the journal keeps appending to its segments — losing
        compaction costs recovery time, not correctness).
        """
        from repro.serving.durability import StoreSnapshot

        with self._lock:
            journal = self._journal
            if journal is None or self._journal_suspended:
                return False
            try:
                snapshot = self.registry.current()
            except LookupError:
                return False
            cids, offsets, nodes, times = self.store.export_state()
            try:
                journal.write_snapshot(
                    StoreSnapshot(
                        cascade_ids=cids,
                        offsets=offsets,
                        nodes=nodes,
                        times=times,
                        source=snapshot.source,
                        fingerprint=snapshot.fingerprint,
                        model=snapshot.model,
                        predictor=snapshot.predictor,
                    )
                )
            except OSError as exc:
                self._journal_fault(exc, "write_snapshot")
                return False
            return True

    def seal_journal(self) -> None:
        """Flush + fsync + close the journal (idempotent; drain's last step)."""
        with self._lock:
            journal = self._journal
            if journal is None:
                return
            try:
                journal.seal()
            except OSError as exc:
                self._journal_fault(exc, "seal")

    def state_fingerprint(self) -> str:
        """Content hash of the tracked store state (DESIGN.md §17).

        The replay harness gates on it: a recorded stream replayed at
        any speed/chunking must leave the store fingerprint-identical
        to direct columnar ingest of the same events.
        """
        with self._lock:
            return self.store.state_fingerprint()

    # ------------------------------------------------------------------ #
    # Ingest
    # ------------------------------------------------------------------ #

    def ingest(self, cascade_id: str, node: int, t: float) -> bool:
        """Fold one adoption event into the cascade's tracker.

        Returns ``True`` when the event changed state (``False`` for
        duplicate adopters).  The cascade is admitted on first sight.
        """
        with self._lock:
            snapshot = self.registry.current()
            applied = self.store.ingest(cascade_id, node, t, snapshot)
            if applied:
                self.stats_counters.ingested += 1
            self._journal_events(
                (cascade_id,),
                np.asarray([node], dtype=np.int64),
                np.asarray([t], dtype=np.float64),
            )
            return applied

    def ingest_columns(
        self,
        cascade_ids: Sequence[str],
        nodes: np.ndarray,
        times: np.ndarray,
    ) -> int:
        """Fold a burst given as three parallel columns in.

        One lock round-trip, one registry snapshot, one clock reading,
        and one kernel call folds every touched cascade's share of the
        burst (:meth:`FeatureStore.ingest_columns`).  Returns how many
        events applied (non-duplicates); the result state is identical
        to calling :meth:`ingest` per event.
        """
        with self._lock:
            snapshot = self.registry.current()
            applied = self.store.ingest_columns(cascade_ids, nodes, times, snapshot)
            self.stats_counters.ingested += applied
            if len(cascade_ids):
                self._journal_events(cascade_ids, nodes, times)
            return applied

    # ------------------------------------------------------------------ #
    # Scoring
    # ------------------------------------------------------------------ #

    def score(self, cascade_id: str, include_features: bool = False) -> ScoreResult:
        """Synchronous one-shot score: row 0 of :meth:`score_columns`.

        This is the one-at-a-time baseline path — every call pays the
        full snapshot + predict cost for a group of one — and
        bit-identical to scoring the same cascade inside a group.
        """
        columns = self.score_columns([cascade_id], include_features=include_features)
        return columns.result(0, cascade_id)

    def score_columns(
        self, cascade_ids: Sequence[str], include_features: bool = False
    ) -> ScoreColumns:
        """Bulk synchronous scoring: columns in, columns out.

        The one code path that turns cascade ids into scores (the
        server's ``score`` groups and ``score_many`` op, :meth:`score`
        and the sharded router's workers all ride it): one
        snapshot read, one gather, one ``decision_function`` over the
        whole group, no queue and no per-request dataclass.  Row *i* of
        every returned column answers ``cascade_ids[i]``; per-row SVM
        margins are independent of group composition, so a row is
        bit-identical whatever else is in the group.
        """
        with self._lock:
            start = self._clock()
            n = len(cascade_ids)
            snapshot = self.registry.current()
            x, row_of, n_events = self.store.gather_batch(
                cascade_ids, snapshot, self._ws
            )
            # gather_batch numbers the live rows in request order, so row
            # r of x answers the r-th tracked id: x fills the ok rows as is
            ok = row_of >= 0  # allocates: the result outlives the workspace
            scores: Optional[np.ndarray] = None
            labels: Optional[np.ndarray] = None
            if snapshot.predictor is not None:
                scores = np.full(n, np.nan)
                labels = np.zeros(n, dtype=np.int64)
                if x.shape[0]:
                    margins = snapshot.predictor.decision_function(x)
                    scores[ok] = margins
                    labels[ok] = np.where(margins >= 0.0, 1, -1)
            features: Optional[np.ndarray] = None
            if include_features:
                features = np.zeros((n, x.shape[1]), dtype=np.float64)
                features[ok] = x
            n_ok = x.shape[0]
            self.stats_counters.unknown += n - n_ok
            self.stats_counters.scored += n_ok
            self.stats_counters.batches += 1
            return ScoreColumns(
                ok=ok,
                scores=scores,
                labels=labels,
                n_early=n_events.copy(),
                model_version=snapshot.version,
                compute_s=self._clock() - start,
                features=features,
            )

    # ------------------------------------------------------------------ #
    # Maintenance
    # ------------------------------------------------------------------ #

    def sweep(self) -> int:
        """Expire TTL-stale cascades; returns how many were dropped."""
        with self._lock:
            return self.store.sweep()

    def _journal_swap(self, snapshot: ModelSnapshot) -> None:
        with self._lock:
            journal = self._journal
            if journal is None or self._journal_suspended:
                return
            try:
                journal.append_swap(snapshot)
            except OSError as exc:
                self._journal_fault(exc, "append_swap")

    def publish(
        self,
        model: EmbeddingModel,
        predictor: Optional[ViralityPredictor] = None,
        source: str = "inline",
    ) -> ModelSnapshot:
        """Publish an in-memory model through the service.

        The journaled twin of ``registry.publish``: the new snapshot is
        written to the write-ahead log as a self-contained swap record,
        so recovery replays the hot-swap at the same stream position.
        """
        with self._lock:
            snapshot = self.registry.publish(model, predictor=predictor, source=source)
            self._journal_swap(snapshot)
            self.health.publish_succeeded()
            return snapshot

    def _adopt_published(self, snapshot: ModelSnapshot) -> None:
        """Journal an externally-published snapshot and mark it healthy.

        The lock-guarded tail shared by :meth:`swap_path` and the server
        factory's initial publish: the registry swap already happened
        (atomically, possibly outside the lock); this folds its
        consequences — journal record, health bookkeeping — into the
        service's guarded state.
        """
        with self._lock:
            self._journal_swap(snapshot)
            self.health.publish_succeeded()

    def swap_path(self, path: Union[str, "object"]) -> ModelSnapshot:
        """Hot-swap the model from a filesystem artifact (see registry).

        Model artifacts (npz archives, checkpoints) carry embeddings
        only, so the currently published predictor is carried forward —
        swapping in refreshed embeddings must not silently stop scoring.

        A corrupt/missing artifact raises
        :class:`~repro.serving.registry.SnapshotLoadError` and pins the
        last-good snapshot: scoring continues under the old model, the
        failure is counted, and (once the pinned model exceeds the
        health monitor's staleness bound) surfaces as degraded.
        """
        try:
            predictor = self.registry.current().predictor
        except LookupError:
            predictor = None
        # The artifact load runs outside the lock on purpose — a slow or
        # hung filesystem must not stall ingest/scoring — but the health
        # transitions and journal append are lock-guarded state.
        try:
            snapshot = self.registry.publish_path(path, predictor=predictor)  # type: ignore[arg-type]
        except SnapshotLoadError as exc:
            with self._lock:
                self.health.publish_failed(str(exc))
            raise
        self._adopt_published(snapshot)
        return snapshot

    # ------------------------------------------------------------------ #
    # Shutdown
    # ------------------------------------------------------------------ #

    def drain(self) -> None:
        """Graceful shutdown: seal the journal.

        After this the service refuses nothing structurally (it has no
        "closed" latch — the front end stops feeding it), but the
        journal is sealed, so durability is over.
        """
        with self._lock:
            self.health.begin_draining()
            self.seal_journal()
            self.health.stopped()

    # ------------------------------------------------------------------ #
    # Lifecycle / health (the locked front door to ``self.health``)
    # ------------------------------------------------------------------ #
    #
    # ``health`` is guarded by the service lock (HealthMonitor itself is
    # deliberately unlocked — see its docstring).  Front ends mutate and
    # read it through these methods instead of reaching into the
    # attribute, so the REP101 analyzer can prove the discipline.

    def begin_recovery(self) -> None:
        with self._lock:
            self.health.begin_recovery()

    def begin_serving(self) -> None:
        with self._lock:
            self.health.begin_serving()

    def begin_draining(self) -> None:
        with self._lock:
            self.health.begin_draining()

    def record_fault(self, kind: str, detail: str) -> None:
        """Append to the health monitor's structured fault trail."""
        with self._lock:
            self.health.record_fault(kind, detail)

    def degrade(self, reason: str, detail: str) -> None:
        """Raise a named degraded condition on the health monitor."""
        with self._lock:
            self.health.degrade(reason, detail)

    def health_snapshot(self) -> Dict[str, object]:
        """JSON-friendly health/readiness view (the ``health`` op)."""
        with self._lock:
            return self.health.snapshot()

    def ttl_enabled(self) -> bool:
        """Whether the store expires idle cascades (sweeper needed)."""
        with self._lock:
            return self.store.config.ttl is not None

    def stats(self) -> Dict[str, object]:
        """One JSON-friendly dict of service/store state."""
        with self._lock:
            try:
                version = self.registry.current().version
            except LookupError:
                version = 0
            journal = self._journal
            out: Dict[str, object] = {
                "model_version": version,
                "state": self.health.state(),
                "tracked_cascades": len(self.store),
                "ingested": self.stats_counters.ingested,
                "scored": self.stats_counters.scored,
                "batches": self.stats_counters.batches,
                "unknown": self.stats_counters.unknown,
                "duplicates": self.store.stats.duplicates,
                "evictions": self.store.stats.evictions,
                "expirations": self.store.stats.expirations,
                "rebuilds": self.store.stats.rebuilds,
                "journal_faults": self.stats_counters.journal_faults,
                "load_failures": self.registry.load_failure_count(),
            }
            if journal is not None:
                stats = journal.stats_dict()
                stats["suspended"] = self._journal_suspended
                out["journal"] = stats
            return out
