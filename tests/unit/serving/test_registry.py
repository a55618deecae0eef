"""Unit tests for the hot-swappable model registry.

The swap-storm test is the acceptance gate for the "no torn read"
contract: concurrent publishers hammer the registry while reader
threads verify every snapshot they grab is internally consistent.
"""

import threading

import numpy as np
import pytest

from repro.embedding.model import EmbeddingModel
from repro.embedding.online import OnlineEmbeddingInference
from repro.prediction.pipeline import PredictionDataset, ViralityPredictor
from repro.serving.registry import (
    ModelRegistry,
    SnapshotLoadError,
    encode_shared_snapshot,
    model_fingerprint,
)


def make_model(seed, n=20, k=3):
    rng = np.random.default_rng(seed)
    return EmbeddingModel(rng.uniform(0, 1, (n, k)), rng.uniform(0, 1, (n, k)))


class TestPublish:
    def test_empty_registry_raises(self):
        with pytest.raises(LookupError):
            ModelRegistry().current()

    def test_versions_monotone(self):
        reg = ModelRegistry()
        snaps = [reg.publish(make_model(i)) for i in range(5)]
        assert [s.version for s in snaps] == [1, 2, 3, 4, 5]
        assert reg.current() is snaps[-1]
        assert reg.n_published == 5

    def test_snapshot_is_deep_copy_and_frozen(self):
        reg = ModelRegistry()
        model = make_model(0)
        snap = reg.publish(model)
        model.A[:] = 0.0  # mutate the source after publish
        assert not np.all(snap.model.A == 0.0)
        with pytest.raises(ValueError):
            snap.model.A[0, 0] = 1.0

    def test_fingerprint_tracks_content(self):
        m1, m2 = make_model(0), make_model(1)
        assert model_fingerprint(m1) == model_fingerprint(m1)
        assert model_fingerprint(m1) != model_fingerprint(m2)

    def test_history_bounded(self):
        reg = ModelRegistry()
        for i in range(ModelRegistry.HISTORY_LIMIT + 10):
            reg.publish(make_model(i))
        hist = reg.history()
        assert len(hist) == ModelRegistry.HISTORY_LIMIT
        assert hist[-1][0] == reg.current().version

    def test_predictor_deep_copied(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(40, 3))
        sizes = np.where(X[:, 0] > 0, 20, 2).astype(np.int64)
        ds = PredictionDataset(X=X, final_sizes=sizes, feature_names=("a", "b", "c"))
        pred = ViralityPredictor(threshold=10, seed=0).fit(ds)
        snap = ModelRegistry().publish(make_model(0), predictor=pred)
        before = snap.predictor.decision_function(X[:5]).copy()
        pred._svm.w[:] = 0.0  # mutate the source predictor
        assert np.array_equal(snap.predictor.decision_function(X[:5]), before)


class TestPublishPath:
    def test_npz_roundtrip(self, tmp_path):
        model = make_model(0)
        p = tmp_path / "model.npz"
        model.save(p)
        snap = ModelRegistry().publish_path(p)
        assert np.array_equal(snap.model.A, model.A)
        assert snap.source.startswith("npz:")

    def test_checkpoint_directory(self, tmp_path):
        from repro.parallel.checkpoint import CheckpointManager

        model = make_model(1)
        mgr = CheckpointManager(tmp_path / "ck")
        mgr.save(2, model.A, model.B, digest="d")
        snap = ModelRegistry().publish_path(tmp_path / "ck")
        assert np.array_equal(snap.model.A, model.A)
        assert np.array_equal(snap.model.B, model.B)
        assert snap.source.startswith("checkpoint:")

    def test_checkpoint_file(self, tmp_path):
        from repro.parallel.checkpoint import CheckpointManager

        model = make_model(2)
        mgr = CheckpointManager(tmp_path / "ck")
        mgr.save(0, model.A, model.B, digest="d")
        (archive,) = list((tmp_path / "ck").glob("*.npz"))
        snap = ModelRegistry().publish_path(archive)
        assert np.array_equal(snap.model.B, model.B)
        assert snap.source.startswith("checkpoint:")

    def test_missing_path(self, tmp_path):
        reg = ModelRegistry()
        with pytest.raises(SnapshotLoadError, match="nope.npz"):
            reg.publish_path(tmp_path / "nope.npz")
        assert reg.load_failures == 1

    def test_wrong_archive(self, tmp_path):
        p = tmp_path / "junk.npz"
        np.savez(p, x=np.arange(3))
        with pytest.raises(SnapshotLoadError, match="need A, B"):
            ModelRegistry().publish_path(p)


class TestCorruptArtifacts:
    """A half-written or mangled artifact must never unseat the live model."""

    def _publish_good(self, reg, tmp_path):
        model = make_model(7)
        good = tmp_path / "good.npz"
        model.save(good)
        return reg.publish_path(good)

    def test_truncated_npz(self, tmp_path):
        reg = ModelRegistry()
        live = self._publish_good(reg, tmp_path)
        p = tmp_path / "model.npz"
        make_model(8).save(p)
        blob = p.read_bytes()
        p.write_bytes(blob[: len(blob) // 2])  # torn mid-write
        with pytest.raises(SnapshotLoadError, match="model.npz"):
            reg.publish_path(p)
        assert reg.current() is live  # last-good snapshot still pinned
        assert reg.load_failures == 1

    def test_garbage_bytes(self, tmp_path):
        reg = ModelRegistry()
        live = self._publish_good(reg, tmp_path)
        p = tmp_path / "model.npz"
        p.write_bytes(b"\x00\xffnot a zip archive at all")
        with pytest.raises(SnapshotLoadError, match="model.npz"):
            reg.publish_path(p)
        assert reg.current() is live
        assert reg.load_failures == 1

    def test_corrupt_member_crc(self, tmp_path):
        reg = ModelRegistry()
        self._publish_good(reg, tmp_path)
        p = tmp_path / "model.npz"
        make_model(9).save(p)
        blob = bytearray(p.read_bytes())
        # flip bytes in the middle of the archive (inside a member's
        # compressed/stored data), leaving the zip directory intact
        mid = len(blob) // 2
        for i in range(mid, mid + 8):
            blob[i] ^= 0xFF
        p.write_bytes(bytes(blob))
        before = reg.current()
        with pytest.raises(SnapshotLoadError, match="model.npz"):
            reg.publish_path(p)
        assert reg.current() is before

    @pytest.mark.parametrize(
        "plane,value", [("A", np.nan), ("B", np.inf), ("A", -np.inf)]
    )
    def test_non_finite_model_is_refused(self, tmp_path, plane, value):
        reg = ModelRegistry()
        live = self._publish_good(reg, tmp_path)
        model = make_model(8)
        planes = {"A": model.A.copy(), "B": model.B.copy()}
        planes[plane][2, 1] = value
        p = tmp_path / "model.npz"
        np.savez_compressed(p, **planes)
        with pytest.raises(SnapshotLoadError, match="must be finite"):
            reg.publish_path(p)
        assert reg.current() is live  # the last good snapshot stays live
        assert reg.load_failures == 1

    def test_empty_checkpoint_dir(self, tmp_path):
        reg = ModelRegistry()
        live = self._publish_good(reg, tmp_path)
        empty = tmp_path / "ck"
        empty.mkdir()
        with pytest.raises(SnapshotLoadError, match="no checkpoint"):
            reg.publish_path(empty)
        assert reg.current() is live

    def test_service_swap_path_pins_last_good(self, tmp_path):
        """The service-level hot swap: failure counts, health degrades
        after the staleness bound, scoring continues under the old model."""
        from repro.serving.service import ScoringService

        clock = [0.0]
        reg = ModelRegistry()
        service = ScoringService(reg, clock=lambda: clock[0])
        self._publish_good(reg, tmp_path)
        service.health.publish_succeeded()
        service.health.max_publish_staleness = 10.0
        service.ingest("c1", 1, 0.1)
        bad = tmp_path / "bad.npz"
        bad.write_bytes(b"junk")
        with pytest.raises(SnapshotLoadError):
            service.swap_path(str(bad))
        assert service.stats()["load_failures"] == 1
        # inside the staleness bound: degraded condition not yet raised
        assert service.health.state() in ("starting", "serving")
        clock[0] = 11.0
        assert "model_stale" in service.health.reasons()
        # scoring still works under the pinned model
        result = service.score("c1")
        assert result.status == "ok"
        # a later successful swap retracts the condition
        good2 = tmp_path / "good2.npz"
        make_model(10).save(good2)
        service.swap_path(str(good2))
        assert "model_stale" not in service.health.reasons()


class TestPublishOnline:
    def test_snapshot_of_live_estimator(self):
        online = OnlineEmbeddingInference(20, 3, seed=0)
        reg = ModelRegistry()
        snap = reg.publish_online(online)
        before = snap.model.A.copy()
        online.model.A[:] += 1.0  # estimator keeps training
        assert np.array_equal(snap.model.A, before)
        assert snap.source == "online:t=0"


class TestSwapStorm:
    def test_readers_never_see_torn_snapshots(self):
        """Publishers storm the registry; readers assert every snapshot
        they grab is internally consistent (content matches its own
        fingerprint — a torn A/B pair or half-applied swap would not)."""
        # Pre-verify fingerprints so readers do pure comparisons.
        models = [make_model(seed) for seed in range(8)]
        expected = {model_fingerprint(m): m for m in models}
        reg = ModelRegistry()
        reg.publish(models[0])
        stop = threading.Event()
        failures = []

        def reader():
            last_version = 0
            while not stop.is_set():
                snap = reg.current()
                if snap.version < last_version:
                    failures.append("version went backwards")
                    return
                last_version = snap.version
                ref = expected.get(snap.fingerprint)
                if ref is None or not (
                    np.array_equal(snap.model.A, ref.A)
                    and np.array_equal(snap.model.B, ref.B)
                ):
                    failures.append(f"torn snapshot at v{snap.version}")
                    return

        def publisher(offset):
            for i in range(50):
                reg.publish(models[(offset + i) % len(models)])

        readers = [threading.Thread(target=reader) for _ in range(4)]
        publishers = [threading.Thread(target=publisher, args=(o,)) for o in range(3)]
        for t in readers + publishers:
            t.start()
        for t in publishers:
            t.join()
        stop.set()
        for t in readers:
            t.join()
        assert failures == []
        assert reg.n_published == 1 + 3 * 50


def make_predictor(seed=0, d=3):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(60, d))
    sizes = np.where(X[:, 0] + 0.3 * rng.normal(size=60) > 0, 30, 3).astype(np.int64)
    ds = PredictionDataset(X=X, final_sizes=sizes, feature_names=tuple("xyz"))
    return ViralityPredictor(threshold=10, seed=seed).fit(ds)


class TestSharedSegment:
    """encode_shared_snapshot / publish_shared — the sharded swap path."""

    def _encode(self, seed=0, predictor=True):
        reg = ModelRegistry()
        snap = reg.publish(
            make_model(seed), predictor=make_predictor(seed) if predictor else None
        )
        return snap, encode_shared_snapshot(snap)

    def test_round_trip_is_bit_identical(self):
        snap, (seg, meta) = self._encode(seed=3)
        try:
            attacher = ModelRegistry()
            twin = attacher.publish_shared(meta)
            assert np.array_equal(twin.model.A, snap.model.A)
            assert np.array_equal(twin.model.B, snap.model.B)
            assert twin.fingerprint == snap.fingerprint == model_fingerprint(
                twin.model
            )
            X = np.random.default_rng(0).normal(size=(5, 3))
            assert np.array_equal(
                twin.predictor.decision_function(X),
                snap.predictor.decision_function(X),
            )
            attacher.release_shared()
        finally:
            seg.close()
            seg.unlink()

    def test_attached_planes_are_views_not_copies(self):
        # the zero-copy contract: the attached model's planes are
        # read-only windows into the segment, not per-shard copies
        snap, (seg, meta) = self._encode(seed=4)
        try:
            attacher = ModelRegistry()
            twin = attacher.publish_shared(meta)
            assert not twin.model.A.flags.owndata
            assert not twin.model.B.flags.owndata
            assert not twin.model.A.flags.writeable
            with pytest.raises((ValueError, RuntimeError)):
                twin.model.A[0, 0] = 99.0
            attacher.release_shared()
        finally:
            seg.close()
            seg.unlink()

    def test_attacher_trusts_publisher_fingerprint(self):
        snap, (seg, meta) = self._encode(seed=5)
        try:
            attacher = ModelRegistry()
            assert attacher.publish_shared(meta).fingerprint == meta.fingerprint
            attacher.release_shared()
        finally:
            seg.close()
            seg.unlink()

    def test_predictor_free_snapshot_encodes(self):
        snap, (seg, meta) = self._encode(seed=6, predictor=False)
        try:
            assert meta.predictor_bytes == 0
            attacher = ModelRegistry()
            twin = attacher.publish_shared(meta)
            assert twin.predictor is None
            assert np.array_equal(twin.model.A, snap.model.A)
            attacher.release_shared()
        finally:
            seg.close()
            seg.unlink()

    def test_superseded_segment_is_pruned(self):
        _, (seg1, meta1) = self._encode(seed=7)
        _, (seg2, meta2) = self._encode(seed=8)
        try:
            attacher = ModelRegistry()
            attacher.publish_shared(meta1)
            assert len(attacher._retained) == 1
            attacher.publish_shared(meta2)
            # v1's mapping is detached as soon as no reader pins it
            assert list(attacher._retained) == [2]
            attacher.release_shared()
            assert attacher._retained == {}
        finally:
            for seg in (seg1, seg2):
                seg.close()
                seg.unlink()
