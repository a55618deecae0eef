"""stream-inproc and stream-tcp-sharded workload processes.

One process per run, launched fresh by ``run.py``.  Both replay the two
recorded segments through :class:`ReplayEngine`:

- phase A: segment a, closed loop, flat out (``speed=None``), every
  burst's cascades scored → ``events_per_s``;
- phase B: segment b (disjoint cascade ids), open loop at a fixed event
  rate with ``burst_s=0`` → per-burst lag, timed from the burst's due
  time on the schedule (origin: the engine's first clock reading), so a
  stall is charged to every burst it delays.

``inproc`` scores each burst with ``ScoringService.score_columns`` in
this process; ``tcp`` launches ``repro serve --shards 2 --journal-dir``
and scores with ``TCPScoringClient.score_many`` through the server's
micro-batcher.  Afterwards the outputs are checked against a fresh
in-process service fed the same recordings by direct ``ingest_columns``.

Usage: ``python -m perfbench.stream_job CONFIG.json`` (written by run.py).
"""

from __future__ import annotations

import asyncio
import json
import os
import re
import signal
import subprocess
import sys
import time
import traceback
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

import repro.ingest.recorder as recorder
from perfbench.measure import (
    SpanRecorder,
    children,
    cpu_seconds,
    descendants,
    percentile,
    tree_peak_rss_mb,
)
from repro.ingest.replay import ReplayConfig, ReplayEngine, SLOReport
from repro.ingest.sources import RecordedSource
from repro.prediction.metrics import f1_score
from repro.serving.client import RemoteError, TCPScoringClient
from repro.serving.server import build_service

clock = time.monotonic

#: server command-line flags beyond the model files: everything else
#: stays at the CLI defaults (fsync=interval, max_batch 64, max_delay 5 ms)
SERVE_FLAGS = ("--shards", "2", "--port", "0")
SERVER_START_TIMEOUT_S = 60.0
#: a graceful drain takes well under a second; see stop_server
SERVER_DRAIN_TIMEOUT_S = 10.0
CHECK_CHUNK = 256
#: phase-A throughput is the median over blocks of this many bursts
BLOCK_BURSTS = 10


class EngineClock:
    """The replay engine's clock; its first reading is the schedule origin."""

    def __init__(self) -> None:
        self.first: Optional[float] = None

    def __call__(self) -> float:
        now = clock()
        if self.first is None:
            self.first = now
        return now


class BurstLog:
    """Per-burst accounting of one replay phase.

    With a *speed*, burst *i* is due at ``origin + (t_last_i - t_first) /
    speed`` — the token bucket's schedule with ``burst_s=0`` — and its lag
    runs from that due time to the return of its score call.
    """

    def __init__(self, engine_clock: EngineClock, speed: Optional[float] = None) -> None:
        self.engine_clock = engine_clock
        self.speed = speed
        self.bursts = 0
        self.offered = 0
        self.applied = 0
        self.not_ok = 0
        self.lag_ms: List[float] = []
        self.release_late_ms: List[float] = []
        self.released_at: List[float] = []
        self.burst_events: List[int] = []
        self._t_first: Optional[float] = None
        self._due: Optional[float] = None

    def release(self, times: np.ndarray, now: float) -> None:
        """The first call into the target for a new burst."""
        self.bursts += 1
        self.offered += len(times)
        self.released_at.append(now)
        self.burst_events.append(len(times))
        self._due = None
        if self.speed is None:
            return
        if self._t_first is None:
            self._t_first = float(times[0])
        assert self.engine_clock.first is not None
        self._due = self.engine_clock.first + (float(times[-1]) - self._t_first) / self.speed
        self.release_late_ms.append((now - self._due) * 1e3)

    def scored(self, now: float) -> None:
        if self._due is not None:
            self.lag_ms.append((now - self._due) * 1e3)

    def block_rates(self, t_end: float, size: int = BLOCK_BURSTS) -> List[float]:
        """Events ÷ wall time per block of *size* consecutive bursts, each
        block timed from its first burst's release to the next block's
        (the last one to *t_end*); a trailing partial block is dropped."""
        bounds = [*self.released_at, t_end]
        return [
            sum(self.burst_events[lo : lo + size]) / (bounds[lo + size] - bounds[lo])
            for lo in range(0, self.bursts - size + 1, size)
        ]


class _Target:
    """Wraps the scoring target the engine drives: spans + burst log."""

    INGEST = SCORE = ""

    def __init__(self, inner: Any, log: BurstLog, spans: SpanRecorder) -> None:
        self.inner = inner
        self.log = log
        self.spans = spans
        self._open = False  # a burst is released and not yet scored

    def ingest_columns(self, cascade_ids: Sequence[str], nodes: np.ndarray, times: np.ndarray) -> int:
        t0 = clock()
        if not self._open:  # engine retries re-send the same burst
            self._open = True
            self.log.release(times, t0)
        applied = int(self.inner.ingest_columns(cascade_ids, nodes, times))
        self.spans.add(self.INGEST, t0, clock())
        self.log.applied += applied
        return applied

    def _scored(self, t0: float) -> None:
        t1 = clock()
        self.spans.add(self.SCORE, t0, t1)
        self.log.scored(t1)
        self._open = False


class InprocTarget(_Target):
    INGEST, SCORE = "service.ingest", "service.score"

    def score_columns(self, cascade_ids: Sequence[str]) -> Any:
        t0 = clock()
        out = self.inner.score_columns(cascade_ids)
        self._scored(t0)
        return out


class TcpTarget(_Target):
    INGEST, SCORE = "client.ingest", "client.score"
    #: blocking socket I/O leaves the engine's event loop
    wants_executor_offload = True

    def __init__(self, inner: Any, log: BurstLog, spans: SpanRecorder) -> None:
        super().__init__(inner, log, spans)
        self.queued_ms: List[float] = []
        self.batch_sizes: List[float] = []

    def score_many(self, cascade_ids: Sequence[str]) -> List[Dict[str, Any]]:
        t0 = clock()
        try:
            replies = self.inner.score_many(cascade_ids)
        except RemoteError:
            self.log.not_ok += len(cascade_ids)
            raise
        self._scored(t0)
        for reply in replies:
            latency = reply.get("latency_ms") or {}
            self.queued_ms.append(float(latency.get("queued", 0.0)))
            self.batch_sizes.append(float(latency.get("batch_size", 0)))
        return replies


@contextmanager
def timed_decode(spans: SpanRecorder) -> Iterator[None]:
    """Time every frame ``RecordedSource`` pulls through ``iter_batches``.

    ``RecordedSource`` looks ``iter_batches`` up when iteration starts and
    advances it on an executor thread, so each span covers exactly one
    read + crc + decode on that thread.
    """
    original = recorder.iter_batches

    def timed(path: Any) -> Iterator[Any]:
        it = original(path)
        while True:
            t0 = clock()
            batch = next(it, None)
            spans.add("recorder.decode", t0, clock())
            if batch is None:
                return
            yield batch

    recorder.iter_batches = timed  # type: ignore[assignment]
    try:
        yield
    finally:
        recorder.iter_batches = original  # type: ignore[assignment]


def replay(target: _Target, path: str, config: ReplayConfig, engine_clock: EngineClock) -> Tuple[SLOReport, float, float]:
    """Run one phase; returns the SLO report and its wall start/end."""
    spans = target.spans
    with spans.span("replay") as root:
        spans.default_parent = root.id if root is not None else None
        with timed_decode(spans) if spans.enabled else nullcontext():
            t0 = clock()
            report = asyncio.run(
                ReplayEngine(target, config, clock=engine_clock).run(RecordedSource(path))
            )
            t1 = clock()
        spans.default_parent = None
    return report, t0, t1


def reference(cfg: Dict[str, Any]) -> Tuple[Any, List[str], np.ndarray]:
    """A fresh in-process service fed both recordings by direct ingest,
    every cascade id seen, and each one's true virality label (its final
    size in the world against the predictor's threshold)."""
    ref = build_service(cfg["model"], predictor_path=cfg["predictor"])
    seen: Dict[str, None] = {}
    for name in ("a", "b"):
        for batch in recorder.iter_batches(cfg["segments"][name]["path"]):
            ref.ingest_columns(list(batch.cascade_ids), batch.nodes, batch.times)
            seen.update(dict.fromkeys(batch.cascade_ids))
    ids = list(seen)
    sizes = np.array([cfg["final_sizes"][int(c.rsplit("-", 1)[1])] for c in ids])
    return ref, ids, np.where(sizes >= cfg["threshold"], 1, -1)


def run_phases(cfg: Dict[str, Any], inner: Any, target_cls: type, on_phase_a=None) -> Dict[str, Any]:
    """Phase A then phase B against *inner*; the raw measurements."""
    flat_out = ReplayConfig(speed=None, score_every=1)
    paced = ReplayConfig(speed=cfg["speed_b"], burst_s=0.0, score_every=1)
    spans_a = SpanRecorder(enabled=bool(cfg["trace"]), clock=clock)
    clock_a = EngineClock()
    target_a = target_cls(inner, BurstLog(clock_a), spans_a)
    if on_phase_a is not None:
        on_phase_a("start")
    report_a, a0, a1 = replay(target_a, cfg["segments"]["a"]["path"], flat_out, clock_a)
    if on_phase_a is not None:
        on_phase_a("end")
    clock_b = EngineClock()
    target_b = target_cls(inner, BurstLog(clock_b, cfg["speed_b"]), SpanRecorder(enabled=False))
    report_b, _, b1 = replay(target_b, cfg["segments"]["b"]["path"], paced, clock_b)

    root = next((s for s in spans_a.spans if s.name == "replay"), None)
    logs = (target_a.log, target_b.log)
    shed = report_a.dropped_bursts + report_b.dropped_bursts
    not_ok = sum(log.not_ok for log in logs)
    bursts = sum(log.bursts for log in logs)
    return {
        "target_a": target_a,
        "t_end": b1,
        "events_per_s": report_a.events / (a1 - a0),
        "eps_blocks": target_a.log.block_rates(a1),
        "lag_ms": target_b.log.lag_ms,
        "ops": bursts,
        "failed_ops": shed + not_ok,
        "counters": {
            "bursts offered": bursts,
            "bursts applied": bursts - shed,
            "bursts shed": shed,
            "score replies not ok": not_ok,
            "replay retries": report_a.retries + report_b.retries,
        },
        "offered_b": target_b.log.offered,
        "applied_b": target_b.log.applied,
        "shed": shed,
        "sent": sum(log.offered for log in logs),
        "layers": {
            "recorder.decode_s": spans_a.total("recorder.decode"),
            "replay.self_s": spans_a.self_time(root) if root is not None else 0.0,
            "replay.release_late_p90_ms": percentile(target_b.log.release_late_ms, 90).value,
            "replay.stalls": float(report_b.stalls),
        },
        "spans": spans_a.to_records(),
    }


def run_inproc(cfg: Dict[str, Any]) -> Dict[str, Any]:
    service = build_service(cfg["model"], predictor_path=cfg["predictor"])
    t_ready = clock()
    if cfg["setup_only"]:
        return {"t_ready": t_ready}
    raw = run_phases(cfg, service, InprocTarget)
    peak = tree_peak_rss_mb(os.getpid())

    ref, ids, truth = reference(cfg)
    got = service.score_columns(ids, include_features=True)
    want = ref.score_columns(ids, include_features=True)
    same = all(
        np.array_equal(getattr(got, f), getattr(want, f))
        for f in ("ok", "scores", "labels", "n_early", "features")
    )
    spans = raw["target_a"].spans
    layers = dict(raw["layers"])
    layers["service.ingest_s"] = spans.total("service.ingest")
    layers["service.score_s"] = spans.total("service.score")
    return _stream_result(
        raw,
        t_ready=t_ready,
        peak=peak,
        f1=f1_score(truth, got.labels),
        checks={
            "replay = direct: state fingerprint": service.state_fingerprint()
            == ref.state_fingerprint(),
            "replay = direct: scores, labels, features": same,
        },
        layers=layers,
    )


# --------------------------------------------------------------------- #
# TCP + 2 shards
# --------------------------------------------------------------------- #


def launch_server(cfg: Dict[str, Any]) -> Tuple[subprocess.Popen, TCPScoringClient, float]:
    """Start ``repro serve``; returns it, a client and launch → ping seconds."""
    log_path = Path(cfg["server_log"])
    cmd = [
        sys.executable, "-m", "repro.cli", "serve",
        "--model", cfg["model"], "--predictor", cfg["predictor"],
        "--journal-dir", cfg["journal_dir"], *SERVE_FLAGS,
    ]
    t_launch = clock()
    with log_path.open("wb") as log:
        proc = subprocess.Popen(
            cmd, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=log
        )
    try:
        while True:
            match = re.search(r"listening on [^\s:]+:(\d+)", log_path.read_text(errors="replace"))
            if match:
                break
            if proc.poll() is not None or clock() - t_launch > SERVER_START_TIMEOUT_S:
                raise RuntimeError("repro serve did not start:\n" + log_path.read_text(errors="replace"))
            time.sleep(0.002)
        client = TCPScoringClient("127.0.0.1", int(match.group(1)))
        if not client.ping():
            raise RuntimeError("repro serve did not answer ping")
    except BaseException:
        stop_server(proc)
        raise
    return proc, client, clock() - t_launch


def shard_pids(server_pid: int) -> List[int]:
    """Forked shard workers (the server's children but its resource tracker)."""
    out = []
    for pid in children(server_pid):
        try:
            if b"resource_tracker" not in Path(f"/proc/{pid}/cmdline").read_bytes():
                out.append(pid)
        except FileNotFoundError:
            continue
    return out


def _alive(pid: int) -> bool:
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat[stat.rindex(")") + 2] != "Z"


def stop_server(proc: subprocess.Popen) -> bool:
    """SIGTERM (graceful drain), then wait until the server and every
    process under it (shards, resource tracker) have ended.

    Returns False when the drain did not finish within
    ``SERVER_DRAIN_TIMEOUT_S``: the server is then killed alone, so its
    resource tracker still unlinks the shared model segment and the shards
    exit on their closed pipes.
    """
    pids = descendants(proc.pid) if proc.poll() is None else []
    drained = True
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=SERVER_DRAIN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            drained = False
            proc.kill()
            proc.wait()
    deadline = clock() + SERVER_DRAIN_TIMEOUT_S
    while any(_alive(p) for p in pids):
        if clock() > deadline:
            for p in pids:
                if _alive(p):
                    os.kill(p, signal.SIGKILL)
        time.sleep(0.01)
    return drained


def _tree_cpu(pids: Sequence[int]) -> float:
    return float(sum(cpu_seconds(p) for p in pids if _alive(p)))


def run_tcp(cfg: Dict[str, Any]) -> Dict[str, Any]:
    proc, client, setup_s = launch_server(cfg)
    t_ready = clock()
    shards = shard_pids(proc.pid)
    result: Dict[str, Any] = {"setup_s": setup_s, "counters": {}}
    try:
        if cfg["setup_only"]:
            return result
        cpu: Dict[str, Dict[str, float]] = {}

        def sample_cpu(when: str) -> None:
            cpu[when] = {
                "client": cpu_seconds(os.getpid()),
                "server": cpu_seconds(proc.pid),
                "shards": _tree_cpu(shards),
            }

        raw = run_phases(cfg, client, TcpTarget, on_phase_a=sample_cpu)
        stats = client.stats()
        ref, ids, truth = reference(cfg)
        want = ref.score_columns(ids)
        wire: Dict[str, Dict[str, Any]] = {}
        for lo in range(0, len(ids), CHECK_CHUNK):
            for reply in client.score_many(ids[lo : lo + CHECK_CHUNK]):
                wire[reply["cascade"]] = reply
        labels = np.array([wire[c].get("label", 0) for c in ids])
        same = all(
            wire[c].get("score") == float(want.scores[i]) and labels[i] == want.labels[i]
            for i, c in enumerate(ids)
        )
        peak = tree_peak_rss_mb(os.getpid())
        reconnects = client.reconnects
    finally:
        client.close()
        result["counters"]["server drain timeouts"] = int(not stop_server(proc))
    journal_bytes = sum(
        f.stat().st_size for f in Path(cfg["journal_dir"]).rglob("*") if f.is_file()
    )
    target_a = raw["target_a"]
    spans = target_a.spans
    layers = dict(raw["layers"])
    layers.update(
        {
            "client.ingest_rtt_p50_ms": 1e3 * percentile(spans.durations("client.ingest") or [0.0], 50).value,
            "client.score_rtt_p50_ms": 1e3 * percentile(spans.durations("client.score") or [0.0], 50).value,
            "batching.queued_p50_ms": percentile(target_a.queued_ms, 50).value,
            "batching.batch_size_mean": float(np.mean(target_a.batch_sizes)),
            "client.cpu_s": cpu["end"]["client"] - cpu["start"]["client"],
            "server.cpu_s": cpu["end"]["server"] - cpu["start"]["server"],
            "sharding.shard_cpu_s": cpu["end"]["shards"] - cpu["start"]["shards"],
            "durability.bytes_per_event": journal_bytes / raw["sent"],
        }
    )
    counters = dict(result["counters"], **{"client reconnects": reconnects})
    result.update(
        _stream_result(
            raw,
            t_ready=t_ready,
            peak=peak,
            f1=f1_score(truth, labels),
            checks={
                "sharded = single-process: every score over the wire": same,
                "server ingested every event sent": stats["ingested"] == raw["sent"],
                "server rejected, shed, unknown = 0": all(
                    stats[k] == 0 for k in ("rejected", "shed", "unknown")
                ),
            },
            layers=layers,
        )
    )
    result["counters"].update(counters)
    return result


def _stream_result(raw: Dict[str, Any], *, t_ready: float, peak: float, f1: float,
                   checks: Dict[str, bool], layers: Dict[str, float]) -> Dict[str, Any]:
    checks = {
        **checks,
        "phase B applied every event it offered": raw["applied_b"] == raw["offered_b"],
        "no burst shed": raw["shed"] == 0,
    }
    return {
        "t_ready": t_ready,
        "job_s": raw["t_end"] - t_ready,
        "f1": f1,
        "events_per_s": raw["events_per_s"],
        "eps_blocks": raw["eps_blocks"],
        "lag_ms": raw["lag_ms"],
        "peak_rss_mb": peak,
        "ops": raw["ops"],
        "failed_ops": raw["failed_ops"],
        "counters": dict(raw["counters"]),
        "checks": checks,
        "layers": layers,
        "spans": raw["spans"],
    }


def main(config_path: str) -> int:
    cfg = json.loads(Path(config_path).read_text())
    result: Dict[str, Any] = {}
    try:
        result = run_tcp(cfg) if cfg["mode"] == "tcp" else run_inproc(cfg)
    except Exception:
        result["error"] = traceback.format_exc()
    Path(cfg["result"]).write_text(json.dumps(result))
    return 0 if "error" not in result else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
