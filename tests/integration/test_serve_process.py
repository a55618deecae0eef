"""SIGTERM to a real ``repro serve`` process: drain, seal, no orphans.

A ``repro serve --journal-dir D --port 0`` process, in process and with
2 shards, ingests a burst and answers ``score_many`` and single
``score`` ops over TCP, then gets SIGTERM.  It must exit 0 within 10 s
after printing ``drained; journal sealed``, leave no shard process
behind, and leave a journal whose in-process recovery scores every
cascade exactly as the replies sent before the shutdown did.
"""

import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.embedding.model import EmbeddingModel
from repro.prediction.pipeline import PredictionDataset, ViralityPredictor
from repro.serving.client import TCPScoringClient
from repro.serving.durability import JournalConfig, recover_service
from repro.serving.server import columns_to_dicts
from repro.serving.sharding import recover_sharded_service

pytestmark = pytest.mark.slow

REPO = Path(__file__).resolve().parents[2]
N = 30
#: a burst over seven cascades, duplicate adopters included
EVENTS = [(f"c{j % 7}", (5 * j + j // 7) % N, 0.01 * j) for j in range(84)]
CASCADES = sorted({c for c, _, _ in EVENTS})


def write_artifacts(tmp_path):
    rng = np.random.default_rng(3)
    EmbeddingModel(rng.uniform(0, 1, (N, 3)), rng.uniform(0, 1, (N, 3))).save(
        tmp_path / "model.npz"
    )
    X = rng.normal(size=(60, 3))
    sizes = np.where(X[:, 0] > 0, 30, 3).astype(np.int64)
    ds = PredictionDataset(X=X, final_sizes=sizes, feature_names=tuple("xyz"))
    ViralityPredictor(threshold=10, seed=3).fit(ds).save(tmp_path / "svm.npz")


def children(pid):
    """Direct children of *pid*, over all of its threads."""
    out = set()
    for task in (Path("/proc") / str(pid) / "task").iterdir():
        try:
            out.update(int(c) for c in (task / "children").read_text().split())
        except FileNotFoundError:  # thread exited while listing
            continue
    return out


def alive(pid):
    try:
        stat = (Path("/proc") / str(pid) / "stat").read_text()
    except FileNotFoundError:
        return False
    return stat[stat.rindex(")") + 2] != "Z"


def start_server(tmp_path, shards):
    log_path = tmp_path / "serve.log"
    cmd = [
        sys.executable, "-m", "repro.cli", "serve",
        "--model", str(tmp_path / "model.npz"),
        "--predictor", str(tmp_path / "svm.npz"),
        "--journal-dir", str(tmp_path / "wal"),
        "--port", "0", "--shards", str(shards),
    ]
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    with log_path.open("wb") as log:
        proc = subprocess.Popen(
            cmd, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=log
        )
    deadline = time.monotonic() + 60.0
    while True:
        match = re.search(r"listening on [^\s:]+:(\d+)", log_path.read_text())
        if match:
            return proc, int(match.group(1)), log_path
        if proc.poll() is not None or time.monotonic() > deadline:
            proc.kill()
            pytest.fail("repro serve did not start:\n" + log_path.read_text())
        time.sleep(0.01)


def without_latency(reply):
    return {k: v for k, v in reply.items() if k not in ("latency_ms", "id")}


def recovered_rows(wal, shards):
    """``score_columns`` rows of the journal recovered in this process."""
    if shards == 1:
        service, _ = recover_service(JournalConfig(directory=wal))
        close = service.drain
    else:
        service, _ = recover_sharded_service(wal, n_shards=shards)
        close = service.close
    try:
        columns = service.score_columns(CASCADES)
    finally:
        close()
    return [without_latency(row) for row in columns_to_dicts(CASCADES, columns)]


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="needs Linux /proc")
@pytest.mark.parametrize("shards", [1, 2])
def test_sigterm_drains_seals_and_recovers(tmp_path, shards):
    write_artifacts(tmp_path)
    proc, port, log_path = start_server(tmp_path, shards)
    try:
        with TCPScoringClient("127.0.0.1", port) as client:
            client.ingest_many(EVENTS)
            grouped = [without_latency(r) for r in client.score_many(CASCADES)]
            singles = [without_latency(client.score(c)) for c in CASCADES]
        workers = children(proc.pid)
        proc.send_signal(signal.SIGTERM)
        rc = proc.wait(timeout=10.0)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    stderr = log_path.read_text()
    assert rc == 0, stderr
    assert "drained; journal sealed" in stderr
    assert "Traceback" not in stderr
    if shards > 1:
        assert workers, "the sharded tier forked no workers"
    deadline = time.monotonic() + 5.0
    while any(alive(pid) for pid in workers) and time.monotonic() < deadline:
        time.sleep(0.01)
    assert not any(alive(pid) for pid in workers), "a worker outlived the server"
    want = recovered_rows(tmp_path / "wal", shards)
    assert grouped == want
    assert singles == want
