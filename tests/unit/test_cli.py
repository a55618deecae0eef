"""Unit tests for the command-line interface (driven in-process)."""

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.embedding.model import EmbeddingModel


@pytest.fixture
def small_corpus_file(tmp_path):
    path = tmp_path / "corpus.jsonl"
    rc = main(
        [
            "simulate-sbm",
            "--nodes", "120",
            "--community-size", "30",
            "--cascades", "60",
            "--seed", "1",
            "--out", str(path),
        ]
    )
    assert rc == 0
    return path


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_int_list_parsing(self):
        args = build_parser().parse_args(
            ["speedup", "--corpus", "x", "--cores", "1,2,4"]
        )
        assert args.cores == [1, 2, 4]

    def test_bad_int_list(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["speedup", "--corpus", "x", "--cores", "1,two"]
            )


class TestSimulate:
    def test_writes_corpus(self, small_corpus_file, capsys):
        from repro.cascades.io import load_cascades_jsonl

        corpus = load_cascades_jsonl(small_corpus_file)
        assert corpus.n_nodes == 120
        assert len(corpus) == 60

    def test_gdelt_command(self, tmp_path, capsys):
        path = tmp_path / "events.jsonl"
        rc = main(
            ["gdelt", "--sites", "200", "--events", "30", "--out", str(path)]
        )
        assert rc == 0
        from repro.cascades.io import load_cascades_jsonl

        events = load_cascades_jsonl(path)
        assert events.n_nodes == 200
        assert len(events) == 30


class TestInferPredict:
    def test_full_pipeline(self, small_corpus_file, tmp_path, capsys):
        model_path = tmp_path / "model.npz"
        rc = main(
            [
                "infer",
                "--corpus", str(small_corpus_file),
                "--train", "40",
                "--topics", "4",
                "--max-iters", "20",
                "--out", str(model_path),
            ]
        )
        assert rc == 0
        model = EmbeddingModel.load(model_path)
        assert model.n_nodes == 120 and model.n_topics == 4

        rc = main(
            [
                "predict",
                "--corpus", str(small_corpus_file),
                "--skip", "40",
                "--model", str(model_path),
                "--window", "1.0",
                "--quantiles", "0.5,0.8",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "F1" in out

    def test_influencers_command(self, small_corpus_file, tmp_path, capsys):
        model_path = tmp_path / "model.npz"
        EmbeddingModel.random(120, 3, seed=0).save(model_path)
        rc = main(
            [
                "influencers",
                "--model", str(model_path),
                "--corpus", str(small_corpus_file),
                "--top", "5",
                "--min-participation", "1",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "influence" in out

    def test_speedup_command(self, small_corpus_file, capsys):
        rc = main(
            [
                "speedup",
                "--corpus", str(small_corpus_file),
                "--topics", "3",
                "--cores", "1,4,16",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "speedup" in out and "merge tree" in out


class TestServeParser:
    def test_serve_defaults(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["serve", "--model", "m.npz"])
        assert args.command == "serve"
        assert args.ttl is None
        assert not args.stdio

    def test_serve_knobs(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            [
                "serve", "--model", "m.npz", "--predictor", "p.npz",
                "--features", "extended", "--stdio",
                "--capacity", "500", "--ttl", "30",
            ]
        )
        assert args.features == "extended"
        assert args.stdio and args.capacity == 500
        assert args.ttl == pytest.approx(30.0)

    def test_serve_stdio_end_to_end(self, tmp_path, capsys, monkeypatch):
        import io
        import json

        from repro.cli import main

        m = EmbeddingModel.random(10, 2, seed=1)
        mp = tmp_path / "m.npz"
        m.save(mp)
        lines = [
            {"op": "event", "cascade": "c", "node": 1, "t": 0.0},
            {"op": "score", "cascade": "c", "id": 1},
        ]
        monkeypatch.setattr(
            "sys.stdin", io.StringIO("".join(json.dumps(o) + "\n" for o in lines))
        )
        rc = main(["serve", "--model", str(mp), "--stdio"])
        assert rc == 0
        out = capsys.readouterr().out
        responses = [json.loads(x) for x in out.splitlines()]
        assert any(r.get("id") == 1 and r["status"] == "ok" for r in responses)


    @pytest.mark.parametrize(
        "flag",
        ["--max-batch", "--max-delay", "--max-pending", "--overflow", "--shard-backlog"],
    )
    def test_queue_flags_are_gone(self, flag, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--model", "m.npz", flag, "8"])
        assert "unrecognized arguments" in capsys.readouterr().err


def _one_error_line(stderr):
    """The stderr of a typed failure: exactly one ``error:`` line."""
    assert "Traceback" not in stderr
    errors = [line for line in stderr.splitlines() if line.startswith("error:")]
    assert len(errors) == 1, stderr
    return errors[0]


class TestTypedFailures:
    """A typed failure ends a command with one ``error:`` line and exit
    status 1, never a traceback."""

    def test_serve_recover_from_an_empty_journal(self, tmp_path, capsys):
        wal = tmp_path / "wal"
        wal.mkdir()
        rc = main(["serve", "--recover", "--journal-dir", str(wal), "--stdio"])
        assert rc == 1
        line = _one_error_line(capsys.readouterr().err)
        assert "journal holds no model" in line

    @pytest.mark.parametrize("via", ["model", "connect"])
    def test_replay_of_nodes_outside_the_model(self, via, tmp_path, capsys):
        import asyncio
        import threading

        from repro.ingest.recorder import StreamWriter
        from repro.ingest.sources import EventBatch
        from repro.serving.server import ScoringServer, build_service

        mp = tmp_path / "m.npz"
        EmbeddingModel.random(30, 2, seed=1).save(mp)
        recording = tmp_path / "wide.evs"
        with StreamWriter(recording) as writer:
            writer.write_batch(
                EventBatch(["a", "a"], np.array([3, 799]), np.array([0.0, 0.5]))
            )
        argv = ["replay", str(recording), "--speed", "0"]
        if via == "model":
            rc = main(argv + ["--model", str(mp)])
        else:
            ready, stop = threading.Event(), threading.Event()
            port = []

            async def serve():
                server = ScoringServer(build_service(str(mp)))
                await server.start()
                port.append(server.port)
                ready.set()
                while not stop.is_set():
                    await asyncio.sleep(0.01)
                await server.stop()

            thread = threading.Thread(target=asyncio.run, args=(serve(),))
            thread.start()
            try:
                assert ready.wait(10.0)
                rc = main(argv + ["--connect", f"127.0.0.1:{port[0]}"])
            finally:
                stop.set()
                thread.join(10.0)
        assert rc == 1
        line = _one_error_line(capsys.readouterr().err)
        assert "node 799 outside the model universe of 30 nodes" in line


class TestModelPersistence:
    def test_save_load_roundtrip(self, tmp_path):
        m = EmbeddingModel.random(7, 3, seed=5)
        p = tmp_path / "m.npz"
        m.save(p)
        loaded = EmbeddingModel.load(p)
        assert loaded == m

    def test_load_rejects_wrong_archive(self, tmp_path):
        p = tmp_path / "bad.npz"
        np.savez(p, X=np.zeros(3))
        with pytest.raises(ValueError, match="embedding archive"):
            EmbeddingModel.load(p)
