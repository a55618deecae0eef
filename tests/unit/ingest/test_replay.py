"""Unit tests for the rate-controlled replay engine."""

import time

import numpy as np
import pytest

from repro.embedding.model import EmbeddingModel
from repro.ingest.recorder import StreamWriter
from repro.ingest.replay import (
    ReplayConfig,
    ReplayOverloadError,
    SLOMeter,
    TokenBucket,
    replay_recording,
)
from repro.ingest.sources import EventBatch, batches_from_cascades
from repro.prediction.pipeline import PredictionDataset, ViralityPredictor
from repro.serving.batching import QueueFullError
from repro.serving.registry import ModelRegistry
from repro.serving.service import ScoringService
from repro.serving.tracker import StoreConfig

N = 30


def make_model(seed):
    rng = np.random.default_rng(seed)
    return EmbeddingModel(rng.uniform(0, 1, (N, 3)), rng.uniform(0, 1, (N, 3)))


def make_predictor(seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(60, 3))
    sizes = np.where(X[:, 0] > 0, 30, 3).astype(np.int64)
    ds = PredictionDataset(X=X, final_sizes=sizes, feature_names=tuple("xyz"))
    return ViralityPredictor(threshold=10, seed=seed).fit(ds)


def make_service(seed=0, capacity=100_000):
    reg = ModelRegistry()
    reg.publish(make_model(seed), predictor=make_predictor(seed))
    return ScoringService(
        reg,
        store_config=StoreConfig(capacity=capacity),
    )


def make_stream_batches(seed=0, n_events=120, n_cascades=9, chunk=16):
    """An interleaved multi-cascade stream (dups allowed), chunked."""
    rng = np.random.default_rng(seed)
    cids = [f"c{int(rng.integers(n_cascades))}" for _ in range(n_events)]
    nodes = rng.integers(0, N, n_events)
    times = np.sort(rng.uniform(0, 4.0, n_events))
    from repro.ingest.sources import chunk_columns

    return list(chunk_columns(cids, nodes, times, chunk))


def record(tmp_path, batches, name="s.evs"):
    path = tmp_path / name
    with StreamWriter(path) as w:
        for b in batches:
            w.write_batch(b)
    return path


class ListSource:
    def __init__(self, batches):
        self.batches = batches

    async def __aiter__(self):
        for b in self.batches:
            yield b


class FakeClock:
    def __init__(self):
        self.t = 100.0

    def __call__(self):
        return self.t


class TestTokenBucket:
    def test_pacing_math_with_fake_clock(self):
        clock = FakeClock()
        bucket = TokenBucket(speed=2.0, burst_s=0.0, clock=clock)
        assert bucket.delay_for(0.0) == 0.0  # anchors t0 at first call
        # stream offset 4s at speed 2 is due 2 wall-seconds in
        assert bucket.delay_for(4.0) == pytest.approx(2.0)
        clock.t += 1.0
        assert bucket.delay_for(4.0) == pytest.approx(1.0)
        clock.t += 1.0
        assert bucket.delay_for(4.0) == 0.0

    def test_burst_allowance(self):
        clock = FakeClock()
        bucket = TokenBucket(speed=1.0, burst_s=0.5, clock=clock)
        assert bucket.delay_for(0.4) == 0.0
        assert bucket.delay_for(1.5) == pytest.approx(1.0)

    def test_rejects_bad_speed(self):
        with pytest.raises(ValueError):
            TokenBucket(speed=0.0)


class TestReplayConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"speed": 0.0},
            {"speed": -1.0},
            {"chunk_events": 0},
            {"max_inflight": 0},
            {"max_retries": -1},
            {"overload": "panic"},
            {"score_every": 0},
            {"window_s": 0.0},
            {"slo_p99_ms": 0.0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            ReplayConfig(**kwargs)

    @pytest.mark.parametrize(
        "field",
        ["speed", "burst_s", "backoff_base_s", "backoff_cap_s", "window_s", "slo_p99_ms"],
    )
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_rejects_non_finite(self, field, value):
        with pytest.raises(ValueError, match="finite"):
            ReplayConfig(**{field: value})

    def test_speed_none_means_flat_out(self):
        assert ReplayConfig(speed=None).speed is None


class TestReplayParity:
    def test_flat_out_replay_is_bit_identical_to_direct_ingest(self, tmp_path):
        batches = make_stream_batches(seed=1)
        path = record(tmp_path, batches)
        replayed = make_service(seed=1)
        report = replay_recording(
            path, replayed, ReplayConfig(speed=None)
        )
        direct = make_service(seed=1)
        for b in batches:
            direct.ingest_columns(list(b.cascade_ids), b.nodes, b.times)
        assert report.events == sum(len(b) for b in batches)
        assert replayed.state_fingerprint() == direct.state_fingerprint()
        cids = sorted({c for b in batches for c in b.cascade_ids})
        got = replayed.score_columns(cids, include_features=True)
        want = direct.score_columns(cids, include_features=True)
        assert np.array_equal(got.scores, want.scores)
        assert np.array_equal(got.features, want.features)

    @pytest.mark.parametrize("chunk", [1, 7, 200])
    def test_rechunking_does_not_change_state(self, tmp_path, chunk):
        batches = make_stream_batches(seed=2)
        path = record(tmp_path, batches)
        a = make_service(seed=2)
        replay_recording(path, a, ReplayConfig(speed=None))
        b = make_service(seed=2)
        replay_recording(
            path, b, ReplayConfig(speed=None, chunk_events=chunk)
        )
        assert a.state_fingerprint() == b.state_fingerprint()

    def test_eviction_matches_direct_ingest(self, tmp_path):
        batches = make_stream_batches(seed=3, n_cascades=12)
        path = record(tmp_path, batches)
        replayed = make_service(seed=3, capacity=3)
        replay_recording(path, replayed, ReplayConfig(speed=None, chunk_events=5))
        direct = make_service(seed=3, capacity=3)
        for b in batches:
            direct.ingest_columns(list(b.cascade_ids), b.nodes, b.times)
        assert replayed.state_fingerprint() == direct.state_fingerprint()
        assert (
            replayed.store.stats.evictions == direct.store.stats.evictions > 0
        )

    def test_source_accepted_directly(self):
        batches = make_stream_batches(seed=4)
        service = make_service(seed=4)
        report = replay_recording(
            ListSource(batches), service, ReplayConfig(speed=None)
        )
        assert report.events == sum(len(b) for b in batches)


class TestPacing:
    def test_paced_replay_takes_about_span_over_speed(self):
        # 2 recorded seconds at 10x must take >= ~0.2 wall seconds
        # (minus the burst allowance), and the report must say so
        batches = [
            EventBatch(["a"], [1], [0.0]),
            EventBatch(["b"], [2], [1.0]),
            EventBatch(["c"], [3], [2.0]),
        ]
        service = make_service()
        t0 = time.perf_counter()
        report = replay_recording(
            ListSource(batches),
            service,
            ReplayConfig(speed=10.0, burst_s=0.0),
        )
        elapsed = time.perf_counter() - t0
        assert elapsed >= 0.15
        assert report.achieved_speed is not None
        assert report.achieved_speed == pytest.approx(10.0, rel=0.35)
        assert report.target_speed == 10.0

    def test_flat_out_reports_no_speed(self):
        service = make_service()
        report = replay_recording(
            ListSource(make_stream_batches()), service, ReplayConfig(speed=None)
        )
        assert report.achieved_speed is None and report.target_speed is None


class FlakyTarget:
    """Rejects the first *n_rejects* ingest calls, then accepts."""

    def __init__(self, n_rejects):
        self.n_rejects = n_rejects
        self.calls = 0
        self.applied = 0

    def ingest_columns(self, cids, nodes, times):
        self.calls += 1
        if self.calls <= self.n_rejects:
            raise QueueFullError("pending queue full (fake)")
        self.applied += len(cids)
        return len(cids)


class TestBackpressure:
    def test_retry_ladder_recovers(self):
        target = FlakyTarget(n_rejects=3)
        report = replay_recording(
            ListSource([EventBatch(["a", "b"], [1, 2], [0.0, 0.1])]),
            target,
            ReplayConfig(speed=None, max_retries=5, backoff_base_s=1e-4),
        )
        assert target.applied == 2
        assert report.retries == 3
        assert report.dropped_events == 0

    def test_block_policy_raises_past_the_budget(self):
        target = FlakyTarget(n_rejects=100)
        with pytest.raises(ReplayOverloadError):
            replay_recording(
                ListSource([EventBatch(["a"], [1], [0.0])]),
                target,
                ReplayConfig(
                    speed=None,
                    max_retries=2,
                    backoff_base_s=1e-4,
                    overload="block",
                ),
            )

    def test_shed_policy_drops_and_continues(self):
        target = FlakyTarget(n_rejects=3)  # first burst exhausts retries
        batches = [
            EventBatch(["a", "b"], [1, 2], [0.0, 0.1]),
            EventBatch(["c"], [3], [0.2]),
        ]
        report = replay_recording(
            ListSource(batches),
            target,
            ReplayConfig(
                speed=None, max_retries=2, backoff_base_s=1e-4, overload="shed"
            ),
        )
        assert report.dropped_events == 2 and report.dropped_bursts == 1
        assert target.applied == 1  # the second burst landed
        assert report.events == 1


class TestScoringAndProgress:
    def test_score_every_feeds_the_meter(self):
        service = make_service()
        report = replay_recording(
            ListSource(make_stream_batches(chunk=10)),
            service,
            ReplayConfig(speed=None, score_every=2),
        )
        assert report.scored > 0
        assert report.score_p99_ms >= report.score_p50_ms >= 0.0

    def test_progress_hook_sees_every_burst(self):
        seen = []
        service = make_service()
        batches = make_stream_batches(chunk=10)
        replay_recording(
            ListSource(batches),
            service,
            ReplayConfig(speed=None),
            progress=lambda p: seen.append((p.bursts, p.applied)),
        )
        assert len(seen) == len(batches)
        assert seen[-1][0] == len(batches)
        assert [b for b, _ in seen] == sorted(b for b, _ in seen)

    def test_mid_replay_hot_swap_via_progress_hook(self):
        # swap after burst 3: the replayed service must equal a direct
        # service that ingests, swaps at the same boundary, and ingests
        batches = make_stream_batches(seed=5, chunk=10)
        swap_at = 3
        replayed = make_service(seed=5)
        model2, predictor2 = make_model(99), make_predictor(99)

        def hook(p):
            if p.bursts == swap_at:
                replayed.publish(model2, predictor=predictor2, source="swap")

        replay_recording(
            ListSource(batches), replayed, ReplayConfig(speed=None), progress=hook
        )
        direct = make_service(seed=5)
        for i, b in enumerate(batches):
            if i == swap_at:
                direct.publish(model2, predictor=predictor2, source="swap")
            direct.ingest_columns(list(b.cascade_ids), b.nodes, b.times)
        assert replayed.state_fingerprint() == direct.state_fingerprint()
        cids = sorted({c for b in batches for c in b.cascade_ids})
        got = replayed.score_columns(cids)
        want = direct.score_columns(cids)
        assert np.array_equal(got.scores, want.scores)
        assert got.model_version == want.model_version


class TestSLOReport:
    def test_report_fields_and_gate(self):
        meter = SLOMeter(window_s=0.5)
        meter.record_burst(10, 0.001)
        meter.record_burst(5, 0.002)
        meter.record_score(3, 0.004)
        meter.record_stall(0.05)
        meter.record_retry()
        meter.record_drop(2)
        report = meter.finish(1.0, 2.0, slo_p99_ms=100.0)
        assert report.events == 15 and report.bursts == 2
        assert report.stalls == 1 and report.retries == 1
        assert report.dropped_events == 2 and report.dropped_bursts == 1
        assert report.scored == 3
        assert report.ok
        d = report.to_dict()
        assert d["ok"] and d["events"] == 15
        assert any("stalls" in line for line in report.format_lines())

    def test_gate_fails_on_slow_p99(self):
        meter = SLOMeter()
        meter.record_burst(1, 0.5)  # 500 ms
        report = meter.finish(0.0, None, slo_p99_ms=1.0)
        assert not report.ok
        assert any("FAIL" in line for line in report.format_lines())
