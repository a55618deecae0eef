"""Property-based tests for the ingest subsystem.

The replay invariant the whole PR leans on: for *any* recorded event
stream, replaying it — at any speed, with any re-chunking, through a
tight-capacity store (evictions), across a mid-replay model hot-swap —
leaves the scoring service in exactly the state a direct columnar
ingest of the same stream would have produced: same store fingerprint,
same scores, same features.  Pacing is a latency knob, never a
semantics knob.

A second property pins the recording format: any stream survives a
write → read round trip bit-identically, whatever the batch geometry.
"""

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.embedding.model import EmbeddingModel
from repro.ingest.recorder import StreamWriter, iter_batches, stream_info
from repro.ingest.replay import ReplayConfig, replay_recording
from repro.ingest.sources import chunk_columns
from repro.prediction.pipeline import PredictionDataset, ViralityPredictor
from repro.serving.registry import ModelRegistry
from repro.serving.service import ScoringService
from repro.serving.tracker import StoreConfig

N = 12
K = 3
CASCADE_IDS = tuple(f"cascade-{i}" for i in range(8))


def make_model(seed):
    rng = np.random.default_rng(seed)
    return EmbeddingModel(rng.uniform(0, 2, (N, K)), rng.uniform(0, 2, (N, K)))


def make_predictor(seed):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(40, K))
    sizes = np.where(X[:, 0] > 0, 30, 3).astype(np.int64)
    ds = PredictionDataset(X=X, final_sizes=sizes, feature_names=tuple("xyz"))
    return ViralityPredictor(threshold=10, seed=seed).fit(ds)


def make_service(seed, capacity=None):
    reg = ModelRegistry()
    reg.publish(make_model(seed), predictor=make_predictor(seed))
    store_config = StoreConfig(capacity=capacity) if capacity else None
    return ScoringService(
        reg,
        store_config=store_config,
    )


@st.composite
def stream_strategy(draw, max_events=40):
    """An arrival-ordered columnar stream (dups and time ties allowed)."""
    size = draw(st.integers(min_value=1, max_value=max_events))
    cids, nodes, times = [], [], []
    for _ in range(size):
        cids.append(draw(st.sampled_from(CASCADE_IDS)))
        nodes.append(draw(st.integers(min_value=0, max_value=N - 1)))
        times.append(draw(st.floats(min_value=0, max_value=1, allow_nan=False)))
    order = np.argsort(np.asarray(times), kind="stable")
    return (
        [cids[i] for i in order],
        np.asarray(nodes, dtype=np.int64)[order],
        np.asarray(times, dtype=np.float64)[order],
    )


def record_stream(directory, stream, chunk):
    cids, nodes, times = stream
    path = Path(directory) / "stream.evs"
    with StreamWriter(path) as w:
        for batch in chunk_columns(cids, nodes, times, chunk):
            w.write_batch(batch)
    return path


def direct_ingest(stream, seed, capacity=None):
    service = make_service(seed, capacity)
    cids, nodes, times = stream
    service.ingest_columns(cids, nodes, times)
    return service


def assert_state_equal(got_service, want_service):
    assert got_service.state_fingerprint() == want_service.state_fingerprint()
    cids = sorted(set(got_service.store.cascade_ids()))
    assert cids == sorted(set(want_service.store.cascade_ids()))
    got = got_service.score_columns(cids, include_features=True)
    want = want_service.score_columns(cids, include_features=True)
    assert np.array_equal(got.scores, want.scores, equal_nan=True)
    assert np.array_equal(got.features, want.features, equal_nan=True)
    assert np.array_equal(got.n_early, want.n_early)


class TestRecorderRoundTrip:
    @given(stream_strategy(), st.integers(min_value=1, max_value=9))
    @settings(max_examples=25, deadline=None)
    def test_any_stream_survives_the_format(self, stream, chunk):
        cids, nodes, times = stream
        written = list(chunk_columns(cids, nodes, times, chunk))
        with tempfile.TemporaryDirectory() as tmp:
            path = record_stream(tmp, stream, chunk)
            got = list(iter_batches(path))
            info = stream_info(path)
        assert got == written
        assert info.n_records == len(written)
        assert info.n_events == len(cids)
        assert info.t_first == times[0] and info.t_last == times[-1]


class TestReplayParity:
    @given(
        stream_strategy(),
        st.integers(min_value=0, max_value=2**31 - 1),
        st.integers(min_value=1, max_value=7),
        st.sampled_from([None, 200.0, 5000.0]),
    )
    @settings(max_examples=12, deadline=None)
    def test_replay_at_any_speed_and_chunking(self, stream, seed, chunk, speed):
        with tempfile.TemporaryDirectory() as tmp:
            path = record_stream(tmp, stream, chunk)
            replayed = make_service(seed)
            report = replay_recording(
                path,
                replayed,
                ReplayConfig(speed=speed, chunk_events=chunk, burst_s=0.01),
            )
        assert report.events == len(stream[0])
        assert report.dropped_events == 0
        assert_state_equal(replayed, direct_ingest(stream, seed))

    @given(
        stream_strategy(),
        st.integers(min_value=0, max_value=2**31 - 1),
        st.integers(min_value=2, max_value=4),
        st.integers(min_value=1, max_value=5),
    )
    @settings(max_examples=12, deadline=None)
    def test_replay_through_eviction(self, stream, seed, capacity, chunk):
        # a tight LRU store evicts during the stream; replay must walk
        # the exact same eviction sequence as direct ingest
        with tempfile.TemporaryDirectory() as tmp:
            path = record_stream(tmp, stream, chunk)
            replayed = make_service(seed, capacity=capacity)
            replay_recording(path, replayed, ReplayConfig(speed=None))
        direct = direct_ingest(stream, seed, capacity=capacity)
        assert replayed.store.stats.evictions == direct.store.stats.evictions
        assert_state_equal(replayed, direct)

    @given(
        stream_strategy(),
        st.integers(min_value=0, max_value=2**31 - 1),
        st.integers(min_value=1, max_value=6),
    )
    @settings(max_examples=12, deadline=None)
    def test_mid_replay_hot_swap(self, stream, seed, swap_at):
        # swapping the model after burst k of a replay must equal
        # direct ingest with the same swap at the same event boundary
        chunk = 4
        cids, nodes, times = stream
        batches = list(chunk_columns(cids, nodes, times, chunk))
        swap_at = min(swap_at, len(batches))
        model2, predictor2 = make_model(seed + 1), make_predictor(seed + 1)

        replayed = make_service(seed)

        def hook(progress):
            if progress.bursts == swap_at:
                replayed.publish(model2, predictor=predictor2, source="swap")

        with tempfile.TemporaryDirectory() as tmp:
            path = record_stream(tmp, stream, chunk)
            replay_recording(
                path, replayed, ReplayConfig(speed=None), progress=hook
            )

        direct = make_service(seed)
        for i, b in enumerate(batches):
            if i == swap_at:
                direct.publish(model2, predictor=predictor2, source="swap")
            direct.ingest_columns(list(b.cascade_ids), b.nodes, b.times)
        if swap_at == len(batches):
            direct.publish(model2, predictor=predictor2, source="swap")
        assert_state_equal(replayed, direct)
