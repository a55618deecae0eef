"""Unit tests for the scoring service core and the in-process client.

Includes the concurrency acceptance test: scoring threads race against
a publisher storm and every result must be attributable to exactly one
published model version, with the score matching that version's
predictor output on the cascade's features.
"""

import threading

import numpy as np
import pytest

from repro.cascades.types import Cascade
from repro.embedding.model import EmbeddingModel
from repro.prediction.features import PAPER_FEATURES, extract_features
from repro.prediction.pipeline import PredictionDataset, ViralityPredictor
from repro.serving.client import ScoringClient
from repro.serving.registry import ModelRegistry
from repro.serving.service import ScoringService
from repro.serving.tracker import StoreConfig


def make_model(seed, n=30, k=3):
    rng = np.random.default_rng(seed)
    return EmbeddingModel(rng.uniform(0, 1, (n, k)), rng.uniform(0, 1, (n, k)))


def make_predictor(seed=0, d=3):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(60, d))
    sizes = np.where(X[:, 0] + 0.3 * rng.normal(size=60) > 0, 30, 3).astype(np.int64)
    ds = PredictionDataset(X=X, final_sizes=sizes, feature_names=tuple("xyz"))
    return ViralityPredictor(threshold=10, seed=seed).fit(ds)


@pytest.fixture
def service():
    reg = ModelRegistry()
    reg.publish(make_model(0), predictor=make_predictor())
    return ScoringService(reg)


class TestIngestScore:
    def test_score_matches_direct_prediction(self, service):
        events = [(3, 0.0), (7, 0.2), (12, 0.5)]
        for node, t in events:
            service.ingest("c", node, t)
        result = service.score("c")
        assert result.ok and result.n_early == 3
        snap = service.registry.current()
        X = extract_features(
            snap.model,
            Cascade([n for n, _ in events], [t for _, t in events]),
            PAPER_FEATURES,
        )[None, :]
        expected = float(snap.predictor.decision_function(X)[0])
        assert result.score == expected
        assert result.label == (1 if expected >= 0 else -1)

    def test_unknown_cascade(self, service):
        result = service.score("never-seen")
        assert result.status == "unknown_cascade"
        assert result.score is None

    def test_include_features(self, service):
        service.ingest("c", 3, 0.0)
        result = service.score("c", include_features=True)
        assert result.features is not None
        assert result.features.shape == (len(PAPER_FEATURES),)

    def test_no_predictor_returns_features_only(self):
        reg = ModelRegistry()
        reg.publish(make_model(0))  # no predictor
        svc = ScoringService(reg)
        svc.ingest("c", 1, 0.0)
        result = svc.score("c")
        assert result.ok and result.score is None and result.label is None

    def test_latency_accounting(self, service):
        service.ingest("c", 3, 0.0)
        result = service.score("c")
        lat = result.latency
        assert lat is not None
        assert lat.queued_s >= 0 and lat.compute_s >= 0
        assert lat.batch_size == 1
        assert lat.total_s == pytest.approx(lat.queued_s + lat.compute_s)

    def test_stats_shape(self, service):
        service.ingest("c", 3, 0.0)
        service.score("c")
        stats = service.stats()
        assert stats["model_version"] == 1
        assert stats["tracked_cascades"] == 1
        assert stats["ingested"] == 1
        assert stats["scored"] == 1
        assert stats["batches"] >= 1

    def test_sweep_via_service(self):
        reg = ModelRegistry()
        reg.publish(make_model(0))
        clock = [0.0]
        svc = ScoringService(
            reg, store_config=StoreConfig(ttl=5.0), clock=lambda: clock[0]
        )
        svc.ingest("c", 1, 0.0)
        clock[0] = 10.0
        assert svc.sweep() == 1
        assert svc.score("c").status == "unknown_cascade"

    def test_swap_path_keeps_predictor(self, service, tmp_path):
        """Artifacts carry embeddings only; a swap must not silently
        stop scoring by dropping the published predictor."""
        service.ingest("c", 3, 0.0)
        assert service.score("c").score is not None
        path = tmp_path / "next.npz"
        make_model(1).save(path)
        snap = service.swap_path(str(path))
        assert snap.version == 2 and snap.predictor is not None
        result = service.score("c")
        assert result.model_version == 2 and result.score is not None


class TestIngestMany:
    def test_burst_matches_scalar_ingest(self, service):
        events = [("a", 3, 0.0), ("b", 7, 0.1), ("a", 12, 0.2), ("a", 3, 0.3)]
        assert service.ingest_many(events) == 3  # one duplicate
        assert service.stats()["ingested"] == 3
        twin = ScoringService(service.registry)
        for cid, node, t in events:
            twin.ingest(cid, node, t)
        snap = service.registry.current()
        for cid in ("a", "b"):
            assert np.array_equal(
                service.store.features(cid, snap), twin.store.features(cid, snap)
            )

    def test_empty_burst(self, service):
        assert service.ingest_many([]) == 0
        assert service.stats()["ingested"] == 0

    def test_burst_then_score(self, service):
        events = [("c", 3, 0.0), ("c", 7, 0.2), ("c", 12, 0.5)]
        service.ingest_many(events)
        result = service.score("c")
        assert result.ok and result.n_early == 3
        snap = service.registry.current()
        X = extract_features(
            snap.model,
            Cascade([n for _, n, _ in events], [t for _, _, t in events]),
            PAPER_FEATURES,
        )[None, :]
        assert result.score == float(snap.predictor.decision_function(X)[0])


class TestScoreFlushBitIdentity:
    def test_single_score_bit_identical_to_batched_flush(self, service):
        """The one-shot path and a group's ``score_columns`` call share
        the same workspace/gather/predict code — same score, bit for bit."""
        cids = ["a", "b", "c", "d"]
        for i, cid in enumerate(cids):
            service.ingest_many([(cid, (3 * i + j) % 30, 0.1 * j) for j in range(4)])
        singles = [service.score(cid).score for cid in cids]
        assert service.score_columns(cids).scores.tolist() == singles

    def test_include_features_copy_is_stable(self, service):
        """Features handed out of a score must be detached from the
        workspace: a later score cannot mutate them."""
        service.ingest("a", 3, 0.0)
        service.ingest("b", 7, 0.5)
        r1 = service.score("a", include_features=True)
        kept = r1.features.copy()
        service.score("b", include_features=True)  # reuses the workspace
        assert np.array_equal(r1.features, kept)
        with pytest.raises(ValueError):
            r1.features[0] = 99.0


class TestWorkspaceReuse:
    def test_flush_reuses_pooled_buffers(self, service):
        for i, cid in enumerate(("a", "b", "c")):
            service.ingest(cid, i, 0.0)
        service.score_columns(["a", "b", "c"])
        before = {k: id(v) for k, v in service._ws._mats.items()}
        service.score_columns(["a", "b", "c"])
        after = {k: id(v) for k, v in service._ws._mats.items()}
        assert after == before  # same pooled arrays, no reallocation


class TestSwapDuringScoring:
    def test_swap_storm_with_concurrent_scoring(self):
        """Every score produced while publishers storm the registry must
        be exactly the output of ONE published version's predictor on
        the cascade's features — a torn read (model from one version,
        predictor from another, or half-swapped matrices) cannot
        reproduce any single version's expected value."""
        versions = [
            (make_model(seed), make_predictor(seed)) for seed in range(4)
        ]
        events = [(3, 0.0), (7, 0.2), (12, 0.5), (1, 0.9)]
        cascade = Cascade([n for n, _ in events], [t for _, t in events])
        # version index -> the one legal score under that publish
        expected = {}
        for i, (model, pred) in enumerate(versions):
            X = extract_features(model, cascade, PAPER_FEATURES)[None, :]
            expected[i] = float(pred.decision_function(X)[0])

        reg = ModelRegistry()
        reg.publish(versions[0][0], predictor=versions[0][1])
        svc = ScoringService(reg)
        for node, t in events:
            svc.ingest("c", node, t)

        stop = threading.Event()
        failures = []

        def scorer():
            while not stop.is_set():
                result = svc.score("c")
                if not result.ok:
                    failures.append(result.status)
                    return
                idx = (result.model_version - 1) % len(versions)
                if result.score != expected[idx]:
                    failures.append(
                        f"v{result.model_version}: {result.score} != {expected[idx]}"
                    )
                    return

        def publisher():
            for i in range(1, 40):
                model, pred = versions[i % len(versions)]
                reg.publish(model, predictor=pred)

        scorers = [threading.Thread(target=scorer) for _ in range(4)]
        pub = threading.Thread(target=publisher)
        for t in scorers:
            t.start()
        pub.start()
        pub.join()
        stop.set()
        for t in scorers:
            t.join()
        assert failures == []
        assert reg.n_published == 40


class TestScoringClient:
    def test_client_roundtrip(self, service):
        client = ScoringClient(service)
        n_new = client.ingest_many([("a", 3, 0.0), ("a", 7, 0.2), ("a", 3, 0.5)])
        assert n_new == 2  # duplicate adopter dropped
        result = client.score("a")
        assert result.ok and result.n_early == 2

    def test_score_many_batches(self, service):
        client = ScoringClient(service)
        for i, cid in enumerate(("a", "b", "c", "d")):
            client.ingest(cid, i, 0.0)
        results = client.score_many(["a", "b", "c", "d", "ghost"])
        assert [r.status for r in results] == ["ok"] * 4 + ["unknown_cascade"]
        assert all(r.latency.batch_size == 5 for r in results)

    def test_score_many_rows_equal_score_columns(self, service):
        client = ScoringClient(service)
        for i, cid in enumerate(("a", "b", "c")):
            client.ingest_many([(cid, (3 * i + j) % 30, 0.2 * j) for j in range(3)])
        ids = ["c", "ghost", "a", "b"]
        want = service.score_columns(ids, include_features=True)
        for include_features in (False, True):
            rows = client.score_many(ids, include_features=include_features)
            assert [r.cascade_id for r in rows] == ids
            assert [r.status for r in rows] == ["ok", "unknown_cascade", "ok", "ok"]
            for i, row in enumerate(rows):
                assert row.n_early == want.n_early[i]
                assert row.latency.batch_size == len(ids)
                if row.ok:
                    assert row.score == want.scores[i]
                    assert row.label == want.labels[i]
                if row.ok and include_features:
                    assert (row.features == want.features[i]).all()
                else:
                    assert row.features is None

    def test_stats_passthrough(self, service):
        client = ScoringClient(service)
        assert client.stats()["model_version"] == 1
