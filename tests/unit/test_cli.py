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


class TestPositiveIntFlags:
    """Counts that must be >= 1 end in argparse's usage line and one
    ``error:`` line with exit 2, before any work starts."""

    @pytest.mark.parametrize(
        "flag,value",
        [
            ("--workers", "0"),
            ("--workers", "-2"),
            ("--topics", "0"),
            ("--train", "0"),
            ("--train", "-5"),
            ("--stop-at", "0"),
            ("--max-iters", "0"),
            ("--workers", "two"),
            ("--max-retries", "-1"),
            ("--task-timeout", "0"),
            ("--task-timeout", "-2"),
            ("--task-timeout", "nan"),
            ("--task-timeout", "inf"),
        ],
    )
    def test_infer_rejects(self, flag, value, small_corpus_file, tmp_path, capsys):
        out = tmp_path / "model.npz"
        with pytest.raises(SystemExit) as exc:
            main(["infer", "--corpus", str(small_corpus_file), "--out", str(out),
                  flag, value])
        assert exc.value.code == 2
        _assert_usage_error(capsys.readouterr().err, flag)
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--topics", "--stop-at", "--cores"])
    def test_speedup_rejects_zero(self, flag, small_corpus_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["speedup", "--corpus", str(small_corpus_file), flag, "0"])
        assert exc.value.code == 2
        _assert_usage_error(capsys.readouterr().err, flag)

    @pytest.mark.parametrize("value", ["-2", "1,4,0"])
    def test_speedup_rejects_core_counts_below_one(
        self, value, small_corpus_file, capsys
    ):
        with pytest.raises(SystemExit) as exc:
            main(["speedup", "--corpus", str(small_corpus_file), "--cores", value])
        assert exc.value.code == 2
        _assert_usage_error(capsys.readouterr().err, "--cores")

    def test_supervision_boundaries_are_accepted(self):
        args = build_parser().parse_args(
            ["infer", "--corpus", "x", "--out", "y",
             "--max-retries", "0", "--task-timeout", "0.5"]
        )
        assert args.max_retries == 0 and args.task_timeout == 0.5
        args = build_parser().parse_args(["speedup", "--corpus", "x", "--cores", "1"])
        assert args.cores == [1]

    def test_one_is_accepted(self):
        flags = ["--workers", "--train", "--topics", "--stop-at", "--max-iters"]
        argv = ["infer", "--corpus", "x", "--out", "y"]
        for flag in flags:
            argv += [flag, "1"]
        args = build_parser().parse_args(argv)
        assert [getattr(args, f[2:].replace("-", "_")) for f in flags] == [1] * 5


class TestReplayServeFlags:
    """Bad values of the flags only ``ReplayConfig``/``StoreConfig``
    (or, for ``record``/``gdelt``, ``batches_from_cascades``) used to check end
    in the usage line and one ``error:`` line with exit 2, like the
    count flags above, not in a traceback or a partial recording."""

    @pytest.mark.parametrize(
        "flag,value",
        [
            ("--max-retries", "-1"),
            ("--max-inflight", "0"),
            ("--window", "0"),
            ("--window", "nan"),
            ("--chunk", "0"),
            ("--score-every", "0"),
            ("--capacity", "0"),
            ("--slo-p99-ms", "0"),
            ("--slo-p99-ms", "nan"),
            ("--speed", "-1"),
            ("--speed", "nan"),
            ("--speed", "inf"),
        ],
    )
    def test_replay_rejects(self, flag, value, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["replay", str(tmp_path / "s.evs"), "--model", "m.npz", flag, value])
        assert exc.value.code == 2
        _assert_usage_error(capsys.readouterr().err, flag)

    @pytest.mark.parametrize(
        "flag,value",
        [
            ("--capacity", "0"),
            ("--ttl", "-1"),
            ("--ttl", "0"),
            ("--ttl", "nan"),
            ("--ttl", "inf"),
        ],
    )
    def test_serve_rejects(self, flag, value, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--model", "m.npz", "--stdio", flag, value])
        assert exc.value.code == 2
        _assert_usage_error(capsys.readouterr().err, flag)

    @pytest.mark.parametrize(
        "flag,value",
        [
            ("--span", "nan"),
            ("--span", "inf"),
            ("--span", "0"),
            ("--span", "-5"),
            ("--chunk", "0"),
        ],
    )
    def test_record_rejects(self, flag, value, tmp_path, capsys):
        out = tmp_path / "s.evs"
        with pytest.raises(SystemExit) as exc:
            main(["record", "--out", str(out), "--events", "5", "--sites", "50",
                  flag, value])
        assert exc.value.code == 2
        _assert_usage_error(capsys.readouterr().err, flag)
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag,value",
        [("--span", "nan"), ("--span", "inf"), ("--span", "0"), ("--chunk", "0")],
    )
    def test_gdelt_stream_rejects(self, flag, value, tmp_path, capsys):
        out = tmp_path / "s.evs"
        with pytest.raises(SystemExit) as exc:
            main(["gdelt", "--sites", "50", "--events", "5", "--stream", str(out),
                  flag, value])
        assert exc.value.code == 2
        _assert_usage_error(capsys.readouterr().err, flag)
        assert not out.exists()

    def test_boundaries_are_accepted(self):
        args = build_parser().parse_args(
            ["replay", "s.evs", "--speed", "0", "--max-retries", "0",
             "--max-inflight", "1", "--chunk", "1", "--score-every", "1",
             "--capacity", "1", "--window", "0.5", "--slo-p99-ms", "0.5"]
        )
        assert args.speed == 0.0 and args.max_retries == 0
        assert args.max_inflight == args.chunk == args.score_every == args.capacity == 1
        assert args.window == args.slo_p99_ms == 0.5
        args = build_parser().parse_args(
            ["serve", "--stdio", "--capacity", "1", "--ttl", "0.5"]
        )
        assert args.capacity == 1 and args.ttl == 0.5
        for cmd in (["record", "--out", "s.evs"], ["gdelt", "--stream", "s.evs"]):
            args = build_parser().parse_args(cmd + ["--span", "0.5", "--chunk", "1"])
            assert args.span == 0.5 and args.chunk == 1


def _assert_usage_error(stderr, flag):
    assert "Traceback" not in stderr
    lines = stderr.strip().splitlines()
    assert lines[0].startswith("usage: ")
    errors = [line for line in lines if "error:" in line]
    assert len(errors) == 1 and f"argument {flag}" in errors[0], stderr


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
