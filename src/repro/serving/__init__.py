"""Real-time virality scoring service (DESIGN.md §12).

The paper's point is *early* prediction of emergent news events; this
package is the layer that actually serves those predictions as cascade
adoption events arrive:

* :mod:`repro.serving.tracker` — struct-of-arrays incremental feature
  store (O(mK) per event instead of an O(m²K) recompute, vectorized
  burst folding, LRU + TTL bounded with an O(expired) lazy-heap sweep);
* :mod:`repro.serving.workspace` — persistent buffer pool so the
  steady-state ``score_columns`` hot path allocates nothing;
* :mod:`repro.serving.registry` — versioned, atomically hot-swappable
  model snapshots, loadable from ``.npz`` archives, hierarchical-fit
  checkpoints, or a live online estimator;
* :mod:`repro.serving.batching` — the scoring result types (columnar
  group results, per-request results with latency accounting) and the
  backpressure error;
* :mod:`repro.serving.service` — the synchronous, thread-safe scoring
  core tying the three together;
* :mod:`repro.serving.client` — a reconnecting TCP client speaking the
  server's wire protocol (the replay harness's remote feed point); in
  process, callers use the service itself;
* :mod:`repro.serving.server` — asyncio newline-JSON front end
  (TCP or stdio) with group commit for concurrent ``score`` ops, an
  in-flight bound that refuses excess data requests with ``queue
  full``, bounded reads, per-connection timeouts, and supervised
  background tasks; wired into the CLI as ``repro serve``;
* :mod:`repro.serving.durability` — segmented, checksummed write-ahead
  event journal with fsync policy, rotation, snapshot compaction, and
  bit-identical crash recovery (``repro serve --journal-dir``);
* :mod:`repro.serving.health` — lifecycle state machine
  (starting→recovering→serving→draining), degraded-mode reasons, and
  the structured fault trail behind the ``health`` protocol op;
* :mod:`repro.serving.sharding` — multi-process scale-out: cascade
  state sharded across worker processes by stable id hash, an asyncio-
  friendly router speaking the same service surface, zero-copy model
  hot-swap through one shared-memory segment per publish, per-shard
  journals, and a watchdog that restarts + journal-recovers a dead
  shard (``repro serve --shards N``).
"""

from typing import TYPE_CHECKING

from repro import _lazy_exports

if TYPE_CHECKING:
    from repro.serving.batching import (
        LatencyBreakdown,
        QueueFullError,
        ScoreColumns,
        ScoreResult,
    )
    from repro.serving.client import (
        RemoteError,
        ServerUnreachableError,
        TCPScoringClient,
    )
    from repro.serving.durability import (
        EventJournal,
        JournalConfig,
        JournalCorruptError,
        JournalError,
        RecoveryReport,
        coalesce_reports,
        recover_service,
        shard_journal_dir,
    )
    from repro.serving.health import FaultRecord, HealthMonitor, aggregate_health
    from repro.serving.registry import (
        ModelRegistry,
        ModelSnapshot,
        SharedSnapshotMeta,
        SnapshotLoadError,
        encode_shared_snapshot,
    )
    from repro.serving.server import ScoringServer, build_service, serve_stdio
    from repro.serving.service import ScoringService, ServiceStats
    from repro.serving.sharding import (
        ShardDeadError,
        ShardedScoringService,
        ShardStartupError,
        build_sharded_service,
        recover_sharded_service,
        shard_of,
    )
    from repro.serving.tracker import CascadeTracker, FeatureStore, StoreConfig, StoreStats
    from repro.serving.workspace import ScoringWorkspace

__all__ = [
    "CascadeTracker",
    "EventJournal",
    "FaultRecord",
    "FeatureStore",
    "HealthMonitor",
    "JournalConfig",
    "JournalCorruptError",
    "JournalError",
    "LatencyBreakdown",
    "ModelRegistry",
    "ModelSnapshot",
    "QueueFullError",
    "RecoveryReport",
    "RemoteError",
    "ScoreColumns",
    "ScoreResult",
    "ScoringServer",
    "ScoringService",
    "ScoringWorkspace",
    "ServerUnreachableError",
    "ServiceStats",
    "ShardDeadError",
    "ShardStartupError",
    "ShardedScoringService",
    "SharedSnapshotMeta",
    "SnapshotLoadError",
    "StoreConfig",
    "StoreStats",
    "TCPScoringClient",
    "aggregate_health",
    "build_service",
    "build_sharded_service",
    "coalesce_reports",
    "encode_shared_snapshot",
    "recover_service",
    "recover_sharded_service",
    "serve_stdio",
    "shard_journal_dir",
    "shard_of",
]

__getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        "repro.serving.batching": (
            "LatencyBreakdown", "QueueFullError", "ScoreColumns", "ScoreResult",
        ),
        "repro.serving.client": (
            "RemoteError", "ServerUnreachableError", "TCPScoringClient",
        ),
        "repro.serving.durability": (
            "EventJournal", "JournalConfig", "JournalCorruptError", "JournalError",
            "RecoveryReport", "coalesce_reports", "recover_service", "shard_journal_dir",
        ),
        "repro.serving.health": ("FaultRecord", "HealthMonitor", "aggregate_health"),
        "repro.serving.registry": (
            "ModelRegistry", "ModelSnapshot", "SharedSnapshotMeta", "SnapshotLoadError",
            "encode_shared_snapshot",
        ),
        "repro.serving.server": ("ScoringServer", "build_service", "serve_stdio"),
        "repro.serving.service": ("ScoringService", "ServiceStats"),
        "repro.serving.sharding": (
            "ShardDeadError", "ShardedScoringService", "ShardStartupError", "build_sharded_service",
            "recover_sharded_service", "shard_of",
        ),
        "repro.serving.tracker": ("CascadeTracker", "FeatureStore", "StoreConfig", "StoreStats"),
        "repro.serving.workspace": ("ScoringWorkspace",),
    },
)
