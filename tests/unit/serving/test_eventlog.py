"""The bytes both event-log writers put on disk (DESIGN.md §14.1, §17.2).

The expected files are built here with ``struct`` from the documented
layout, not with the codec: a recording (:class:`StreamWriter`) and a
journal segment (:class:`EventJournal`) are an 8-byte header ``<4sHH``
(magic, version 1, reserved 0) followed by frames ``<II`` (payload
length, crc32 of the payload) + payload.  An events payload is ``<BII``
(type 1, event count, id-blob length) + the JSON id list + the int64
nodes + the float64 times.  A swap payload is type byte 2 + an ``.npz``
archive; ``np.savez`` stamps zip entry times, so swap records are
compared after decoding them.
"""

import io
import json
import struct
import zlib

import numpy as np

from repro.embedding.model import EmbeddingModel
from repro.ingest.recorder import StreamWriter
from repro.prediction.pipeline import PredictionDataset, ViralityPredictor
from repro.serving.durability import EventJournal, JournalConfig
from repro.serving.registry import ModelRegistry

#: (cascade ids, the id blob written for them, nodes, times); JSON
#: escapes a non-ASCII id to ``\uXXXX``
BURSTS = [
    (["a", "b", "a"], b'["a", "b", "a"]', [3, 7, 12], [0.0, 0.5, 0.5]),
    (["naïve", "Zürich"], b'["na\\u00efve", "Z\\u00fcrich"]', [1, 2], [1.0, 2.25]),
    (["c"], b'["c"]', [29], [3.0]),
]


def framed(payload):
    return struct.pack("<II", len(payload), zlib.crc32(payload)) + payload


def events_payload(blob, nodes, times):
    n = len(nodes)
    return (
        struct.pack("<BII", 1, n, len(blob))
        + blob
        + struct.pack(f"<{n}q", *nodes)
        + struct.pack(f"<{n}d", *times)
    )


EVENT_FRAMES = b"".join(
    framed(events_payload(blob, nodes, times)) for _, blob, nodes, times in BURSTS
)


def test_stream_writer_bytes(tmp_path):
    path = tmp_path / "s.evs"
    with StreamWriter(path) as writer:
        for cids, _, nodes, times in BURSTS:
            writer.write_columns(cids, nodes, times)
    assert path.read_bytes() == struct.pack("<4sHH", b"REVS", 1, 0) + EVENT_FRAMES


def test_event_journal_bytes(tmp_path):
    rng = np.random.default_rng(0)
    model = EmbeddingModel(rng.uniform(0, 1, (30, 3)), rng.uniform(0, 1, (30, 3)))
    X = rng.normal(size=(60, 3))
    sizes = np.where(X[:, 0] > 0, 30, 3).astype(np.int64)
    dataset = PredictionDataset(X=X, final_sizes=sizes, feature_names=tuple("xyz"))
    predictor = ViralityPredictor(threshold=10, seed=0).fit(dataset)
    snapshot = ModelRegistry().publish(model, predictor=predictor, source="seed")

    journal = EventJournal(JournalConfig(directory=tmp_path / "wal", fsync="off"))
    journal.append_swap(snapshot)
    for cids, _, nodes, times in BURSTS:
        journal.append_events(cids, np.asarray(nodes), np.asarray(times))
    journal.seal()
    (segment,) = (tmp_path / "wal").glob("wal-*.log")
    blob = segment.read_bytes()

    assert blob[:8] == struct.pack("<4sHH", b"RWAL", 1, 0)
    length, crc = struct.unpack_from("<II", blob, 8)
    swap = blob[16 : 16 + length]
    assert zlib.crc32(swap) == crc and swap[0] == 2
    with np.load(io.BytesIO(swap[1:])) as data:
        assert data.files == ["meta", "A", "B", "predictor_npz"]
        assert json.loads(bytes(data["meta"])) == {
            "source": "seed",
            "fingerprint": snapshot.fingerprint,
        }
        assert np.array_equal(data["A"], model.A) and np.array_equal(data["B"], model.B)
        loaded = ViralityPredictor.load(io.BytesIO(bytes(data["predictor_npz"])))
    assert np.array_equal(loaded.decision_function(X), predictor.decision_function(X))
    assert blob[16 + length :] == EVENT_FRAMES
