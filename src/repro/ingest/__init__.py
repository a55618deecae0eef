"""Live-stream connectors + Nx real-time replay harness (DESIGN.md §17).

The serving tier (``repro.serving``) folds timestamped adoption events
into per-cascade trackers; this package supplies the other half of the
deployment story: *where the events come from* and *how fast they
arrive*.

- :mod:`repro.ingest.sources` — async :class:`EventSource` connectors
  producing timestamped :class:`EventBatch` bursts (synthetic GDELT
  world, cascade JSONL corpora, recorded streams).
- :mod:`repro.ingest.recorder` — a versioned, crc-framed on-disk stream
  format (``repro record``) mirroring the columnar ingest wire shape.
- :mod:`repro.ingest.replay` — a rate-controlled replay engine
  (``repro replay``) with token-bucket pacing, backpressure-aware
  retry, and a per-window SLO meter.
"""

from typing import TYPE_CHECKING

from repro import _lazy_exports

if TYPE_CHECKING:
    from repro.ingest.recorder import (
        RecordingCorruptError,
        RecordingError,
        StreamInfo,
        StreamWriter,
        iter_batches,
        record_source,
        record_stream,
        stream_info,
    )
    from repro.ingest.replay import (
        ReplayConfig,
        ReplayEngine,
        ReplayError,
        ReplayOverloadError,
        ReplayProgress,
        SLOReport,
        TokenBucket,
        replay_recording,
        replay_source,
    )
    from repro.ingest.sources import (
        CascadeFileSource,
        EventBatch,
        EventSource,
        RecordedSource,
        SyntheticGDELTSource,
        batches_from_cascades,
        chunk_columns,
    )

__all__ = [
    "CascadeFileSource",
    "EventBatch",
    "EventSource",
    "RecordedSource",
    "RecordingCorruptError",
    "RecordingError",
    "ReplayConfig",
    "ReplayEngine",
    "ReplayError",
    "ReplayOverloadError",
    "ReplayProgress",
    "SLOReport",
    "StreamInfo",
    "StreamWriter",
    "SyntheticGDELTSource",
    "TokenBucket",
    "batches_from_cascades",
    "chunk_columns",
    "iter_batches",
    "record_source",
    "record_stream",
    "replay_recording",
    "replay_source",
    "stream_info",
]

__getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        "repro.ingest.recorder": (
            "RecordingCorruptError", "RecordingError", "StreamInfo", "StreamWriter", "iter_batches",
            "record_source", "record_stream", "stream_info",
        ),
        "repro.ingest.replay": (
            "ReplayConfig", "ReplayEngine", "ReplayError", "ReplayOverloadError", "ReplayProgress",
            "SLOReport", "TokenBucket", "replay_recording", "replay_source",
        ),
        "repro.ingest.sources": (
            "CascadeFileSource", "EventBatch", "EventSource", "RecordedSource",
            "SyntheticGDELTSource", "batches_from_cascades", "chunk_columns",
        ),
    },
)
