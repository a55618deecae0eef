"""Unit tests for the event-source layer (EventBatch + connectors)."""

import asyncio
import json

import numpy as np
import pytest

from repro.cascades.types import Cascade
from repro.datasets.gdelt import GDELTConfig
from repro.ingest.sources import (
    CascadeFileSource,
    EventBatch,
    EventSource,
    RecordedSource,
    SyntheticGDELTSource,
    batches_from_cascades,
    chunk_columns,
)


def collect(source):
    async def drain():
        return [b async for b in source]

    return asyncio.run(drain())


def make_cascades(seed=0, n=6, n_nodes=40):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        size = int(rng.integers(2, 9))
        nodes = rng.choice(n_nodes, size=size, replace=False)
        times = np.sort(rng.uniform(0, 5, size=size))
        out.append(Cascade(nodes, times))
    return out


class TestEventBatch:
    def test_coerces_and_freezes_columns(self):
        b = EventBatch(["a", "b"], [1, 2], [0.5, 1.5])
        assert b.nodes.dtype == np.int64 and b.times.dtype == np.float64
        assert not b.nodes.flags.writeable and not b.times.flags.writeable
        assert len(b) == 2
        assert b.t_first == 0.5 and b.t_last == 1.5

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError, match="equal length"):
            EventBatch(["a"], [1, 2], [0.1, 0.2])

    def test_rejects_unordered_times(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            EventBatch(["a", "b"], [1, 2], [1.0, 0.5])

    def test_rejects_non_finite_times(self):
        with pytest.raises(ValueError, match="finite"):
            EventBatch(["a"], [1], [np.inf])

    def test_equality_and_hash(self):
        a = EventBatch(["x"], [3], [0.25])
        b = EventBatch(["x"], [3], [0.25])
        c = EventBatch(["y"], [3], [0.25])
        assert a == b and hash(a) == hash(b)
        assert a != c

    def test_empty_batch_allowed(self):
        assert len(EventBatch([], [], [])) == 0


class TestChunkColumns:
    def test_slices_preserve_all_events(self):
        cids = [f"c{i}" for i in range(10)]
        nodes = np.arange(10, dtype=np.int64)
        times = np.linspace(0, 1, 10)
        chunks = list(chunk_columns(cids, nodes, times, 3))
        assert [len(c) for c in chunks] == [3, 3, 3, 1]
        assert [c for ch in chunks for c in ch.cascade_ids] == cids
        assert np.array_equal(
            np.concatenate([c.nodes for c in chunks]), nodes
        )

    def test_rejects_bad_chunk(self):
        with pytest.raises(ValueError):
            list(chunk_columns(["a"], np.array([1]), np.array([0.0]), 0))


class TestBatchesFromCascades:
    def test_stream_is_globally_time_ordered(self):
        batches = batches_from_cascades(
            make_cascades(), span_s=30.0, chunk=7, seed=1
        )
        times = np.concatenate([b.times for b in batches])
        assert np.all(np.diff(times) >= 0)
        assert times[0] >= 0.0 and times[-1] <= 30.0

    def test_deterministic_for_a_seed(self):
        a = batches_from_cascades(make_cascades(), span_s=20.0, seed=5)
        b = batches_from_cascades(make_cascades(), span_s=20.0, seed=5)
        assert a == b
        c = batches_from_cascades(make_cascades(), span_s=20.0, seed=6)
        assert a != c

    def test_preserves_every_event(self):
        cascades = make_cascades(seed=2)
        total = sum(len(c) for c in cascades)
        batches = batches_from_cascades(cascades, chunk=5)
        assert sum(len(b) for b in batches) == total
        # every cascade keeps its internal event order on the stream
        per_cascade = {}
        for b in batches:
            for cid, node in zip(b.cascade_ids, b.nodes):
                per_cascade.setdefault(cid, []).append(int(node))
        for i, c in enumerate(cascades):
            assert per_cascade[f"event-{i}"] == list(c.nodes)

    def test_empty_corpus(self):
        assert batches_from_cascades([]) == []

    def test_rejects_bad_span(self):
        with pytest.raises(ValueError):
            batches_from_cascades(make_cascades(), span_s=0.0)

    @pytest.mark.parametrize("span", [np.nan, np.inf])
    def test_rejects_non_finite_span(self, span):
        # NaN passes every ordered comparison and an infinite span
        # overflows the start draw; both must be refused up front
        with pytest.raises(ValueError, match="span_s must be finite"):
            batches_from_cascades(make_cascades(), span_s=span)


class TestSyntheticGDELTSource:
    def test_streams_the_sampled_corpus(self):
        source = SyntheticGDELTSource(
            8,
            config=GDELTConfig(n_sites=300),
            seed=3,
            span_s=15.0,
            chunk=50,
        )
        assert isinstance(source, EventSource)
        batches = collect(source)
        assert batches and all(len(b) <= 50 for b in batches)
        times = np.concatenate([b.times for b in batches])
        assert np.all(np.diff(times) >= 0) and times[-1] <= 15.0
        # cached: a second pass yields the identical stream
        assert collect(source) == batches
        assert source.materialize() == batches


class TestCascadeFileSource:
    def test_reads_jsonl_corpus(self, tmp_path):
        cascades = make_cascades(seed=4, n=4)
        path = tmp_path / "corpus.jsonl"
        with path.open("w") as fh:
            for c in cascades:
                fh.write(
                    json.dumps(
                        {"nodes": c.nodes.tolist(), "times": c.times.tolist()}
                    )
                    + "\n"
                )
        source = CascadeFileSource(path, span_s=10.0, chunk=9, seed=0)
        batches = collect(source)
        assert sum(len(b) for b in batches) == sum(len(c) for c in cascades)
        assert batches == batches_from_cascades(
            cascades, span_s=10.0, chunk=9, seed=0
        )

    def test_reads_headered_corpus(self, tmp_path):
        # the save_cascades_jsonl layout (repro simulate-sbm / gdelt
        # --out): a header line, then cascade records
        from repro.cascades.io import save_cascades_jsonl
        from repro.cascades.types import CascadeSet

        cascades = make_cascades(seed=5, n=3)
        path = tmp_path / "corpus.jsonl"
        save_cascades_jsonl(CascadeSet(40, cascades), path)
        batches = collect(CascadeFileSource(path, span_s=10.0, seed=1))
        assert sum(len(b) for b in batches) == sum(len(c) for c in cascades)

    def test_bad_record_is_a_clean_error(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text('{"sizes": [1, 2]}\n')
        with pytest.raises(ValueError, match="corpus.jsonl:1"):
            CascadeFileSource(path).materialize()


def _record_frames(path, n):
    """Record *n* one-event frames; returns the batches written."""
    from repro.ingest.recorder import StreamWriter

    batches = [EventBatch([f"c{i % 3}"], [i], [float(i)]) for i in range(n)]
    with StreamWriter(path) as w:
        for b in batches:
            w.write_batch(b)
    return batches


def _corrupt_frame(path, k):
    """Flip one payload byte of frame *k* so its crc check fails."""
    from repro.serving.eventlog import FRAME as _FRAME, HEADER as _HEADER

    blob = bytearray(path.read_bytes())
    pos = _HEADER.size
    for _ in range(k):
        length, _crc = _FRAME.unpack_from(blob, pos)
        pos += _FRAME.size + length
    blob[pos + _FRAME.size] ^= 0xFF
    path.write_bytes(bytes(blob))


class TestRecordedSource:
    @pytest.mark.parametrize("k", [0, 7, 8, 9])
    def test_frames_before_a_corrupt_one_are_yielded_first(self, tmp_path, k):
        # frames are read in blocks: the good frames of the block that
        # holds the bad one still reach the consumer before the error
        from repro.ingest.recorder import RecordingCorruptError

        path = tmp_path / "s.evs"
        batches = _record_frames(path, 20)
        _corrupt_frame(path, k)
        got = []

        async def drain():
            async for b in RecordedSource(path):
                got.append(b)

        with pytest.raises(RecordingCorruptError, match=f"crc mismatch at record {k}"):
            asyncio.run(drain())
        assert got == batches[:k]

    @pytest.mark.parametrize("n", [0, 1, 7, 8, 9, 100])
    def test_yields_every_recorded_batch(self, tmp_path, n):
        from repro.ingest.recorder import iter_batches

        path = tmp_path / "s.evs"
        _record_frames(path, n)
        assert collect(RecordedSource(path)) == list(iter_batches(path))

    def test_a_wrapped_iter_batches_sees_one_next_per_frame(self, tmp_path, monkeypatch):
        # the way a tracing harness times decode: replace the module's
        # iter_batches before iteration starts and wrap every next()
        import repro.ingest.recorder as recorder

        path = tmp_path / "s.evs"
        batches = _record_frames(path, 19)
        original = recorder.iter_batches
        calls = []

        def counted(p):
            it = original(p)
            while True:
                batch = next(it, None)
                calls.append(batch)
                if batch is None:
                    return
                yield batch

        monkeypatch.setattr(recorder, "iter_batches", counted)
        assert collect(RecordedSource(path)) == batches
        assert calls == batches + [None]  # one per frame, one at the end

    def test_round_trips_through_a_recording(self, tmp_path):
        from repro.ingest.recorder import StreamWriter

        batches = batches_from_cascades(make_cascades(), chunk=11, seed=9)
        path = tmp_path / "stream.evs"
        with StreamWriter(path) as w:
            for b in batches:
                w.write_batch(b)
        assert collect(RecordedSource(path)) == batches
