"""Unit tests for the write-ahead event journal and crash recovery.

The acceptance gate is bit-identity: a service recovered from its
journal must expose the same tracked cascades, in the same LRU order,
with the same observed event logs, feature vectors, and scores as an
uninterrupted run over the journaled record stream.  The
hypothesis-driven crash matrix lives in
``tests/property/test_prop_durability.py``; these tests pin the
deterministic mechanics (framing, rotation, compaction, torn tails,
fsync policy, the chaos harness itself).
"""

import struct
import subprocess
import sys
import zlib
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.embedding.model import EmbeddingModel
from repro.prediction.pipeline import PredictionDataset, ViralityPredictor
from repro.serving.durability import (
    _FORMAT_VERSION,
    _FRAME,
    _HEADER,
    _MAGIC,
    EventJournal,
    EventsRecord,
    InjectedCrash,
    JournalConfig,
    JournalCorruptError,
    JournalError,
    SwapRecord,
    _ChaosPlan,
    _encode_events,
    _encode_swap,
    _list_segments,
    _list_snapshots,
    _segment_path,
    iter_journal_events,
    recover_service,
    scan_journal,
)
from repro.serving.registry import ModelRegistry
from repro.serving.service import ScoringService
from repro.serving.tracker import StoreConfig
from tests.columns import event_columns


def make_model(seed, n=30, k=3):
    rng = np.random.default_rng(seed)
    return EmbeddingModel(rng.uniform(0, 1, (n, k)), rng.uniform(0, 1, (n, k)))


def make_predictor(seed=0, d=3):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(60, d))
    sizes = np.where(X[:, 0] + 0.3 * rng.normal(size=60) > 0, 30, 3).astype(np.int64)
    ds = PredictionDataset(X=X, final_sizes=sizes, feature_names=tuple("xyz"))
    return ViralityPredictor(threshold=10, seed=seed).fit(ds)


def make_service(store_config=None):
    return ScoringService(ModelRegistry(), store_config=store_config)


def journaled_service(tmp_path, chaos=None, store_config=None, **cfg):
    """A freshly published service writing to ``tmp_path/wal``."""
    config = JournalConfig(directory=tmp_path / "wal", **cfg)
    service = make_service(store_config)
    service.attach_journal(EventJournal(config, _chaos=chaos))
    service.publish(make_model(0), predictor=make_predictor(), source="seed")
    service.health.begin_serving()
    return service, config


def sample_events(n=40, n_cascades=6, seed=0):
    rng = np.random.default_rng(seed)
    return [
        (f"c{rng.integers(n_cascades)}", int(rng.integers(30)), float(i) * 0.1)
        for i, _ in enumerate(range(n))
    ]


def assert_bit_identical(recovered, reference):
    """Same cascades, same LRU order, same logs, same features + scores."""
    r_cids, r_off, r_nodes, r_times = recovered.store.export_state()
    e_cids, e_off, e_nodes, e_times = reference.store.export_state()
    assert r_cids == e_cids
    assert np.array_equal(r_off, e_off)
    assert np.array_equal(r_nodes, e_nodes)
    assert np.array_equal(r_times, e_times)
    for cid in e_cids:
        got = recovered.score(cid, include_features=True)
        want = reference.score(cid, include_features=True)
        assert got.status == want.status == "ok"
        assert got.score == want.score
        assert got.label == want.label
        assert np.array_equal(got.features, want.features)


class TestJournalConfig:
    def test_defaults_valid(self, tmp_path):
        cfg = JournalConfig(directory=tmp_path)
        assert cfg.fsync == "interval"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"fsync": "sometimes"},
            {"fsync_interval": 0.0},
            {"fsync_interval": -1.0},
            {"rotate_bytes": 100},
            {"snapshot_bytes": 100},
        ],
    )
    def test_rejects_bad_policy(self, tmp_path, kwargs):
        with pytest.raises(ValueError):
            JournalConfig(directory=tmp_path, **kwargs)

    def test_chaos_plan_validation(self):
        with pytest.raises(ValueError, match="chaos action"):
            _ChaosPlan(at_append=0, action="explode")
        with pytest.raises(ValueError, match="chaos point"):
            _ChaosPlan(at_append=0, action="kill", point="sideways")
        with pytest.raises(ValueError, match="torn_bytes"):
            _ChaosPlan(at_append=0, action="torn", torn_bytes=0)


class TestRoundTrip:
    def test_recovery_is_bit_identical(self, tmp_path):
        service, config = journaled_service(tmp_path)
        events = sample_events()
        service.ingest_columns(*event_columns(events[:15]))
        service.publish(make_model(1), predictor=make_predictor(1), source="refit")
        for cid, node, t in events[15:25]:
            service.ingest(cid, node, t)
        service.ingest_columns(
            [e[0] for e in events[25:]],
            np.asarray([e[1] for e in events[25:]], dtype=np.int64),
            np.asarray([e[2] for e in events[25:]], dtype=np.float64),
        )
        service.seal_journal()

        reference = make_service()
        reference.registry.publish(
            make_model(0), predictor=make_predictor(), source="seed"
        )
        reference.ingest_columns(*event_columns(events[:15]))
        reference.registry.publish(
            make_model(1), predictor=make_predictor(1), source="refit"
        )
        reference.ingest_columns(*event_columns(events[15:]))

        recovered, report = recover_service(config)
        assert_bit_identical(recovered, reference)
        assert report.swaps_replayed == 2
        assert report.events_replayed == len(events)
        assert not report.snapshot_loaded
        assert not report.torn_tail_repaired
        assert recovered.health.phase == "serving"
        assert recovered.registry.current().source == "refit"

    def test_duplicate_bursts_replay_lru_touches(self, tmp_path):
        """A fully-duplicate burst applies zero events but still re-ranks
        LRU order — it must be journaled and replayed."""
        service, config = journaled_service(
            tmp_path, store_config=StoreConfig(capacity=2)
        )
        service.ingest("a", 1, 0.1)
        service.ingest("b", 2, 0.2)
        service.ingest("a", 1, 0.1)  # duplicate: applies 0, touches "a"
        service.ingest("c", 3, 0.3)  # capacity 2: evicts "b", not "a"
        service.seal_journal()
        recovered, _ = recover_service(config, store_config=StoreConfig(capacity=2))
        cids, _, _, _ = recovered.store.export_state()
        assert cids == ["a", "c"]

    def test_recovery_without_model_refuses(self, tmp_path):
        config = JournalConfig(directory=tmp_path / "wal")
        journal = EventJournal(config)
        journal.append_events(["c0"], np.asarray([1]), np.asarray([0.1]))
        journal.seal()
        with pytest.raises(JournalError, match="no model"):
            recover_service(config)

    def test_sealed_journal_refuses_appends(self, tmp_path):
        journal = EventJournal(JournalConfig(directory=tmp_path / "wal"))
        journal.seal()
        assert journal.closed
        journal.seal()  # idempotent
        with pytest.raises(JournalError, match="sealed"):
            journal.append_events(["c"], np.asarray([1]), np.asarray([0.1]))

    def test_iter_journal_events_flattens(self, tmp_path):
        service, config = journaled_service(tmp_path)
        events = sample_events(n=10)
        service.ingest_columns(*event_columns(events))
        service.seal_journal()
        assert list(iter_journal_events(config.directory)) == events


class TestSegments:
    def test_writer_never_reuses_segments(self, tmp_path):
        config = JournalConfig(directory=tmp_path / "wal")
        first = EventJournal(config)
        assert first.seq == 1
        first.append_events(["c"], np.asarray([1]), np.asarray([0.1]))
        first.seal()
        second = EventJournal(config)
        assert second.seq == 2  # crashed writer's tail left untouched
        second.seal()
        assert [p.name for p in _list_segments(config.directory)] == [
            "wal-00000001.log",
            "wal-00000002.log",
        ]

    def test_rotation_replays_across_segments(self, tmp_path):
        service, config = journaled_service(tmp_path, rotate_bytes=4096)
        events = sample_events(n=60)
        for cid, node, t in events:
            service.ingest(cid, node, t)
        service.seal_journal()
        assert service.journal.stats.rotations >= 1
        assert len(_list_segments(config.directory)) >= 2

        reference = make_service()
        reference.registry.publish(
            make_model(0), predictor=make_predictor(), source="seed"
        )
        reference.ingest_columns(*event_columns(events))
        recovered, report = recover_service(config)
        assert report.segments_replayed >= 2
        assert_bit_identical(recovered, reference)

    def test_interior_corruption_refuses_replay(self, tmp_path):
        service, config = journaled_service(tmp_path, rotate_bytes=4096)
        for cid, node, t in sample_events(n=60):
            service.ingest(cid, node, t)
        service.seal_journal()
        segments = _list_segments(config.directory)
        assert len(segments) >= 2
        blob = bytearray(segments[0].read_bytes())
        blob[len(blob) // 2] ^= 0xFF  # corrupt a non-final segment
        segments[0].write_bytes(bytes(blob))
        with pytest.raises(JournalCorruptError, match="non-final"):
            scan_journal(config.directory)

    def test_truncated_final_record_is_tolerated(self, tmp_path):
        service, config = journaled_service(tmp_path)
        for cid, node, t in sample_events(n=10):
            service.ingest(cid, node, t)
        service.seal_journal()
        seg = _list_segments(config.directory)[-1]
        blob = seg.read_bytes()
        seg.write_bytes(blob[:-5])  # tear the last record mid-payload
        scan = scan_journal(config.directory)
        assert scan.torn is not None
        # 1 swap + 10 events written; the torn final event is dropped
        assert len(scan.records) == 10


class TestCompaction:
    def test_snapshot_prunes_and_recovers(self, tmp_path):
        service, config = journaled_service(tmp_path)
        events = sample_events(n=30)
        service.ingest_columns(*event_columns(events[:20]))
        assert service.compact()
        assert len(_list_snapshots(config.directory)) == 1
        # segments strictly before the snapshot's seq are gone
        snap_seq = service.journal.seq
        assert all(
            int(p.stem.split("-")[1]) >= snap_seq - 1
            for p in _list_segments(config.directory)
        )
        service.ingest_columns(*event_columns(events[20:]))  # journal tail past the snapshot
        service.seal_journal()

        reference = make_service()
        reference.registry.publish(
            make_model(0), predictor=make_predictor(), source="seed"
        )
        reference.ingest_columns(*event_columns(events))
        recovered, report = recover_service(config, compact=False)
        assert report.snapshot_loaded
        # the snapshot holds the *observed* logs (duplicates deduped);
        # the tail record keeps its raw journaled row count
        assert 0 < report.snapshot_events <= 20
        assert report.events_replayed == 10
        assert_bit_identical(recovered, reference)

    def test_recover_compacts_by_default(self, tmp_path):
        service, config = journaled_service(tmp_path)
        service.ingest_columns(*event_columns(sample_events(n=10)))
        service.seal_journal()
        recovered, first = recover_service(config)
        recovered.seal_journal()
        assert not first.snapshot_loaded
        again, second = recover_service(config, compact=False)
        assert second.snapshot_loaded  # the first recovery left a snapshot
        assert second.records_replayed == 0
        assert_bit_identical(again, recovered)

    def test_corrupt_snapshot_falls_back(self, tmp_path):
        service, config = journaled_service(tmp_path)
        events = sample_events(n=12)
        service.ingest_columns(*event_columns(events))
        assert service.compact()
        service.seal_journal()
        (snap,) = _list_snapshots(config.directory)
        snap.write_bytes(b"not a zip")
        # the snapshot is unreadable but all segments before it were
        # pruned: nothing to fall back to except... the journal refuses
        # only if no model survives.  Here the post-snapshot segment is
        # empty, so recovery must fail loudly rather than serve nothing.
        with pytest.raises(JournalError, match="no model"):
            recover_service(config)

    def test_corrupt_snapshot_falls_back_to_older(self, tmp_path):
        """A half-written newer snapshot (crash mid-compaction) must not
        mask the older, loadable one."""
        service, config = journaled_service(tmp_path)
        events = sample_events(n=12)
        service.ingest_columns(*event_columns(events[:6]))
        assert service.compact()
        (good,) = _list_snapshots(config.directory)
        good_seq = int(good.stem.split("-")[1])
        service.ingest_columns(*event_columns(events[6:]))
        service.seal_journal()
        # a newer snapshot that never finished writing
        (config.directory / "snap-00000099.npz").write_bytes(b"garbage")
        scan = scan_journal(config.directory)
        assert scan.snapshot is not None
        assert scan.snapshot_seq == good_seq

        reference = make_service()
        reference.registry.publish(
            make_model(0), predictor=make_predictor(), source="seed"
        )
        reference.ingest_columns(*event_columns(events))
        recovered, report = recover_service(config, compact=False)
        assert report.snapshot_loaded
        assert_bit_identical(recovered, reference)

    def test_auto_compaction_threshold(self, tmp_path):
        service, config = journaled_service(tmp_path, snapshot_bytes=4096)
        for cid, node, t in sample_events(n=200, n_cascades=4):
            service.ingest(cid, node, t)
        assert service.journal.stats.snapshots >= 1
        service.seal_journal()
        reference = make_service()
        reference.registry.publish(
            make_model(0), predictor=make_predictor(), source="seed"
        )
        reference.ingest_columns(*event_columns(sample_events(n=200, n_cascades=4)))
        recovered, _ = recover_service(config, compact=False)
        assert_bit_identical(recovered, reference)


class TestFsyncPolicy:
    def _journal(self, tmp_path, clock, **cfg):
        return EventJournal(
            JournalConfig(directory=tmp_path / "wal", **cfg), clock=clock
        )

    def test_always_fsyncs_every_append(self, tmp_path):
        journal = self._journal(tmp_path, clock=lambda: 0.0, fsync="always")
        for i in range(3):
            journal.append_events(["c"], np.asarray([i]), np.asarray([0.1]))
        assert journal.stats.fsyncs == 3

    def test_off_fsyncs_only_on_seal(self, tmp_path):
        journal = self._journal(tmp_path, clock=lambda: 0.0, fsync="off")
        for i in range(3):
            journal.append_events(["c"], np.asarray([i]), np.asarray([0.1]))
        assert journal.stats.fsyncs == 0
        journal.seal()
        assert journal.stats.fsyncs == 1

    def test_interval_batches_fsyncs(self, tmp_path):
        now = [0.0]
        journal = self._journal(
            tmp_path, clock=lambda: now[0], fsync="interval", fsync_interval=1.0
        )
        for i in range(5):
            journal.append_events(["c"], np.asarray([i]), np.asarray([0.1]))
        assert journal.stats.fsyncs == 0  # clock never advanced
        now[0] = 1.5
        journal.append_events(["c"], np.asarray([9]), np.asarray([0.9]))
        assert journal.stats.fsyncs == 1

    def test_tick_flushes_idle_stream(self, tmp_path):
        now = [0.0]
        journal = self._journal(
            tmp_path, clock=lambda: now[0], fsync="interval", fsync_interval=1.0
        )
        journal.append_events(["c"], np.asarray([1]), np.asarray([0.1]))
        journal.tick()
        assert journal.stats.fsyncs == 0  # interval not reached yet
        now[0] = 2.0
        journal.tick()
        assert journal.stats.fsyncs == 1

    def test_idle_ticks_do_not_fsync(self, tmp_path):
        now = [0.0]
        journal = self._journal(
            tmp_path, clock=lambda: now[0], fsync="interval", fsync_interval=1.0
        )
        for step in range(1, 20):
            now[0] = 0.5 * step
            journal.tick()
        assert journal.stats.fsyncs == 0 and journal.stats.bytes_written == 0

    def test_one_append_then_ticks_fsync_exactly_once(self, tmp_path):
        now = [0.0]
        journal = self._journal(
            tmp_path, clock=lambda: now[0], fsync="interval", fsync_interval=1.0
        )
        journal.append_events(["c"], np.asarray([1]), np.asarray([0.1]))
        for step in range(1, 20):
            now[0] = 0.5 * step
            journal.tick()
        assert journal.stats.fsyncs == 1


class TestChaos:
    def test_kill_before_loses_the_record(self, tmp_path):
        # append 0 is the seed swap; kill before event append 3
        chaos = _ChaosPlan(at_append=3, action="kill", point="before")
        service, config = journaled_service(tmp_path, chaos=chaos)
        events = sample_events(n=10)
        with pytest.raises(InjectedCrash):
            for cid, node, t in events:
                service.ingest(cid, node, t)
        scan = scan_journal(config.directory)
        assert scan.torn is None  # nothing reached the file
        assert sum(isinstance(r, EventsRecord) for r in scan.records) == 2

    def test_kill_after_keeps_the_record(self, tmp_path):
        chaos = _ChaosPlan(at_append=3, action="kill", point="after")
        service, config = journaled_service(tmp_path, chaos=chaos)
        with pytest.raises(InjectedCrash):
            for cid, node, t in sample_events(n=10):
                service.ingest(cid, node, t)
        scan = scan_journal(config.directory)
        assert sum(isinstance(r, EventsRecord) for r in scan.records) == 3

    def test_torn_write_repaired_and_bit_identical(self, tmp_path):
        chaos = _ChaosPlan(at_append=5, action="torn", torn_bytes=9)
        service, config = journaled_service(tmp_path, chaos=chaos)
        events = sample_events(n=10)
        survived = []
        with pytest.raises(InjectedCrash):
            for cid, node, t in events:
                service.ingest(cid, node, t)
                survived.append((cid, node, t))
        # appends 1..4 were events; append 5 tore mid-frame.  The store
        # had applied 5 events, but only 4 are journaled — recovery is
        # bit-identical to a run over the *journaled* stream.
        reference = make_service()
        reference.registry.publish(
            make_model(0), predictor=make_predictor(), source="seed"
        )
        reference.ingest_columns(*event_columns(events[:4]))

        recovered, report = recover_service(config)
        assert report.torn_tail_repaired
        assert report.faults  # the repair is reported
        assert_bit_identical(recovered, reference)
        # the tail was truncated in place: a second scan is clean
        assert scan_journal(config.directory).torn is None

    def test_ioerror_degrades_but_keeps_scoring(self, tmp_path):
        chaos = _ChaosPlan(at_append=2, action="ioerror")
        service, config = journaled_service(tmp_path, chaos=chaos)
        for cid, node, t in sample_events(n=10):
            service.ingest(cid, node, t)  # must not raise
        stats = service.stats()
        assert stats["state"] == "degraded"
        assert stats["journal_faults"] == 1
        assert stats["journal"]["suspended"] is True
        assert "journal" in service.health.reasons()
        assert service.score("c0").status == "ok"
        # reattaching a healthy journal clears the condition
        service.seal_journal()
        service.attach_journal(EventJournal(config))
        assert service.stats()["state"] == "serving"

    def test_slow_disk_still_writes(self, tmp_path):
        chaos = _ChaosPlan(at_append=1, action="slow", slow_s=0.01)
        service, config = journaled_service(tmp_path, chaos=chaos)
        service.ingest("c", 1, 0.1)
        service.seal_journal()
        scan = scan_journal(config.directory)
        assert sum(isinstance(r, EventsRecord) for r in scan.records) == 1

    def test_compact_failure_degrades(self, tmp_path, monkeypatch):
        service, config = journaled_service(tmp_path)
        service.ingest("c", 1, 0.1)
        monkeypatch.setattr(
            service.journal,
            "write_snapshot",
            lambda snapshot: (_ for _ in ()).throw(OSError("disk full")),
        )
        assert not service.compact()
        assert service.stats()["state"] == "degraded"
        assert service.score("c").status == "ok"


class TestSwapRecords:
    def test_swap_survives_roundtrip_with_predictor(self, tmp_path):
        service, config = journaled_service(tmp_path)
        service.seal_journal()
        scan = scan_journal(config.directory)
        (swap,) = [r for r in scan.records if isinstance(r, SwapRecord)]
        live = service.registry.current()
        assert swap.source == "seed"
        assert swap.fingerprint == live.fingerprint
        assert np.array_equal(swap.model.A, live.model.A)
        assert np.array_equal(swap.model.B, live.model.B)
        X = np.random.default_rng(0).normal(size=(5, 3))
        assert np.array_equal(
            swap.predictor.decision_function(X),
            live.predictor.decision_function(X),
        )

    def test_swap_without_predictor(self, tmp_path):
        config = JournalConfig(directory=tmp_path / "wal")
        service = make_service()
        service.attach_journal(EventJournal(config))
        service.publish(make_model(3), source="bare")
        service.seal_journal()
        scan = scan_journal(config.directory)
        (swap,) = scan.records
        assert isinstance(swap, SwapRecord)
        assert swap.predictor is None


def _events_payload():
    return _encode_events(["a"], np.array([1]), np.array([0.0]))


#: records that pass their checksum but do not decode
MALFORMED = {
    # declares 5 events, carries the columns of 1
    "n_too_large": struct.pack("<BII", 1, 5, len(b'["a"]'))
    + b'["a"]'
    + np.array([1], dtype=np.int64).tobytes()
    + np.array([0.0]).tobytes(),
    "trailing_bytes": _events_payload() + b"\x00" * 7,
    "non_npz_swap": b"\x02" + b"not an npz archive",
    "shorter_than_header": b"\x01\x00\x00",
}
MALFORMED_CASES = [
    pytest.param(name, where, False, id=f"{name}-{where}")
    for name in MALFORMED
    for where in ("mid", "final")
] + [pytest.param("n_too_large", "mid", True, id="n_too_large-mid-python-O")]

#: scan a journal; exit 0 only on the typed error
_SCAN_SCRIPT = """
import sys
from repro.serving.durability import JournalCorruptError, scan_journal
try:
    scan_journal(sys.argv[1])
except JournalCorruptError:
    sys.exit(0)
sys.exit(1)
"""


class TestMalformedRecords:
    """A record whose checksum holds but whose payload is malformed is
    corruption: mid-segment it stops recovery with
    :class:`JournalCorruptError`, as the final record it is a torn tail
    that recovery repairs."""

    @pytest.mark.parametrize("name,where,optimized", MALFORMED_CASES)
    def test_malformed_record_is_typed_corruption(self, tmp_path, name, where, optimized):
        registry = ModelRegistry()
        swap = _encode_swap(registry.publish(make_model(0)))
        good, bad = _events_payload(), MALFORMED[name]
        payloads = [swap, bad, good] if where == "mid" else [swap, good, bad]
        wal = tmp_path / "wal"
        wal.mkdir()
        _segment_path(wal, 1).write_bytes(
            _HEADER.pack(_MAGIC, _FORMAT_VERSION, 0)
            + b"".join(_FRAME.pack(len(p), zlib.crc32(p)) + p for p in payloads)
        )
        if optimized:
            # asserts vanish under -O, so the checks must not be asserts;
            # a subprocess, because an -O test run would strip ours too
            src = Path(repro.__file__).resolve().parents[1]
            done = subprocess.run(
                [sys.executable, "-O", "-c", _SCAN_SCRIPT, str(wal)],
                env={"PYTHONPATH": str(src)},
                capture_output=True,
                text=True,
                timeout=60,
            )
            assert done.returncode == 0, done.stderr
            return
        if where == "mid":
            with pytest.raises(JournalCorruptError):
                scan_journal(wal)
            return
        scan = scan_journal(wal)
        assert scan.torn is not None and len(scan.records) == 2
        recovered, report = recover_service(JournalConfig(directory=wal), compact=False)
        recovered.seal_journal()
        assert report.torn_tail_repaired
        assert report.events_replayed == 1
