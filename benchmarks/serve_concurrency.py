"""Concurrent single ``score`` ops against a ``repro serve`` process.

Measures what the server's group commit (DESIGN.md §12.3) does for
clients that each send one ``score`` op at a time.  One asyncio client
opens N connections to ``repro serve --journal-dir D --port 0
[--shards 2]`` (CLI defaults otherwise) and runs a closed loop on each:
send one ``score`` op, wait for its reply, repeat — first for a warm-up,
then for a timed window.  The scored ids are the cascades of perfbench's
stream inputs (seed 1, segment a, first 40 bursts: 211 cascades),
ingested over the wire first.  Every reply, warm-up included, is checked
against a ``score_many`` reference taken after the ingest; only
``latency_ms`` may differ.

The harness speaks nothing but the wire protocol to the server it
launches, so it can measure any checkout: ``--src`` names the ``src``
directory the server runs from (default: this repository's).  The inputs
are always written by this checkout's perfbench.

    python benchmarks/serve_concurrency.py [--src DIR] [--seconds 5] [--warmup 1]

Per tier and N it reports ops/s over the timed window, the client-side
p50/p99 round trip, and the mean group size — the mean
``latency_ms.batch_size`` of the timed replies.  ``make bench-serving``
runs it through ``test_perf_serving.py``, which writes
``BENCH_serving.json["concurrent_score"]``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import re
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Sequence, Tuple

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:  # perfbench writes the inputs
    sys.path.insert(0, str(ROOT))

CONNECTIONS = (1, 8, 32, 64)
#: (tier name, --shards)
TIERS = (("inproc", 1), ("2-shards", 2))
INPUT_SEED = 1
INPUT_BURSTS = 40
INGEST_CHUNK = 1024
START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 10.0


def write_inputs(out: Path) -> Tuple[List[List[Any]], List[str]]:
    """Model and predictor under *out*; returns segment a's events and ids."""
    from perfbench import inputs
    from repro.ingest.recorder import iter_batches

    inputs.write_stream_inputs(INPUT_SEED, INPUT_BURSTS, out)
    events: List[List[Any]] = []
    for batch in iter_batches(out / "segment-a.evs"):
        events.extend(
            [c, int(n), float(t)]
            for c, n, t in zip(batch.cascade_ids, batch.nodes, batch.times)
        )
    ids = list(dict.fromkeys(c for c, _, _ in events))
    return events, ids


def launch(src: Path, work: Path, shards: int) -> Tuple[subprocess.Popen, int]:
    """Start ``repro serve`` from *src*; returns it and its port."""
    log_path = work / f"serve-{shards}.log"
    journal = work / f"wal-{shards}"
    cmd = [
        sys.executable, "-m", "repro.cli", "serve",
        "--model", str(work / "model.npz"),
        "--predictor", str(work / "predictor.npz"),
        "--journal-dir", str(journal), "--port", "0",
    ]
    if shards > 1:
        cmd += ["--shards", str(shards)]
    env = dict(os.environ, PYTHONPATH=str(src))
    with log_path.open("wb") as log:
        proc = subprocess.Popen(
            cmd, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=log
        )
    deadline = time.monotonic() + START_TIMEOUT_S
    while True:
        match = re.search(r"listening on [^\s:]+:(\d+)", log_path.read_text(errors="replace"))
        if match:
            return proc, int(match.group(1))
        if proc.poll() is not None or time.monotonic() > deadline:
            stop(proc)
            raise RuntimeError("repro serve did not start:\n" + log_path.read_text())
        time.sleep(0.01)


def stop(proc: subprocess.Popen) -> None:
    """SIGTERM (graceful drain); kill if the drain does not finish."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


async def _exchange(reader, writer, request: Dict[str, Any]) -> Dict[str, Any]:
    writer.write(json.dumps(request).encode() + b"\n")
    await writer.drain()
    reply: Dict[str, Any] = json.loads(await reader.readline())
    return reply


async def prepare(port: int, events: List[List[Any]], ids: List[str]) -> Dict[str, Any]:
    """Ingest the events; return each id's ``score_many`` row without latency."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        for lo in range(0, len(events), INGEST_CHUNK):
            reply = await _exchange(
                reader, writer, {"op": "events", "events": events[lo : lo + INGEST_CHUNK]}
            )
            if not reply.get("ok"):
                raise RuntimeError(f"ingest failed: {reply}")
        reply = await _exchange(reader, writer, {"op": "score_many", "cascades": ids})
    finally:
        writer.close()
        await writer.wait_closed()
    reference = {}
    for row in reply["results"]:
        row.pop("latency_ms")
        reference[row["cascade"]] = row
    return reference


async def closed_loops(
    port: int,
    ids: Sequence[str],
    reference: Dict[str, Any],
    n_connections: int,
    warmup_s: float,
    seconds: float,
) -> Dict[str, Any]:
    """N connections, one outstanding ``score`` op each, until the window ends."""
    rtts: List[float] = []
    groups: List[int] = []
    tally = {"replies": 0, "mismatches": 0}
    t_start = time.perf_counter()
    t_timed = t_start + warmup_s
    t_end = t_timed + seconds

    async def loop(k: int) -> None:
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        i = k * len(ids) // n_connections
        try:
            while True:
                sent = time.perf_counter()
                if sent >= t_end:
                    return
                cascade = ids[i % len(ids)]
                i += 1
                reply = await _exchange(reader, writer, {"op": "score", "cascade": cascade})
                done = time.perf_counter()
                latency = reply.pop("latency_ms", {})
                tally["replies"] += 1
                tally["mismatches"] += reply != reference[cascade]
                if sent >= t_timed and done <= t_end:
                    rtts.append(done - sent)
                    groups.append(int(latency.get("batch_size", 0)))
        finally:
            writer.close()
            await writer.wait_closed()

    await asyncio.gather(*(loop(k) for k in range(n_connections)))
    rtt_ms = np.asarray(rtts) * 1e3
    return {
        "connections": n_connections,
        "ops_per_s": len(rtts) / seconds,
        "p50_ms": float(np.percentile(rtt_ms, 50)) if len(rtts) else None,
        "p99_ms": float(np.percentile(rtt_ms, 99)) if len(rtts) else None,
        "mean_group_size": float(np.mean(groups)) if groups else None,
        **tally,
    }


def measure(
    work: Path,
    src: Path = ROOT / "src",
    connections: Sequence[int] = CONNECTIONS,
    warmup_s: float = 1.0,
    seconds: float = 5.0,
) -> Dict[str, Any]:
    """Every (tier, N) cell, one server per tier; inputs written under *work*."""
    events, ids = write_inputs(work)
    cells: List[Dict[str, Any]] = []
    for tier, shards in TIERS:
        proc, port = launch(src, work, shards)
        try:
            reference = asyncio.run(prepare(port, events, ids))
            for n in connections:
                cell = asyncio.run(closed_loops(port, ids, reference, n, warmup_s, seconds))
                cells.append({"tier": tier, "shards": shards, **cell})
        finally:
            stop(proc)
    return {
        "workload": {
            "inputs": f"perfbench seed {INPUT_SEED}, segment a, {INPUT_BURSTS} bursts",
            "events": len(events),
            "cascades": len(ids),
            "warmup_s": warmup_s,
            "seconds": seconds,
        },
        "cells": cells,
    }


def format_cells(result: Dict[str, Any]) -> List[str]:
    lines = [
        f"{'tier':>9} {'N':>3} {'ops/s':>9} {'p50 ms':>8} {'p99 ms':>8} "
        f"{'group':>6} {'mismatch':>8}"
    ]
    for c in result["cells"]:
        lines.append(
            f"{c['tier']:>9} {c['connections']:>3} {c['ops_per_s']:>9,.0f} "
            f"{c['p50_ms']:>8.2f} {c['p99_ms']:>8.2f} "
            f"{c['mean_group_size']:>6.1f} {c['mismatches']:>8}"
        )
    return lines


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="src directory the server runs from")
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--warmup", type=float, default=1.0)
    parser.add_argument("--connections", type=int, nargs="+", default=list(CONNECTIONS))
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        result = measure(
            Path(tmp), args.src.resolve(), args.connections,
            warmup_s=args.warmup, seconds=args.seconds,
        )
    print("\n".join(format_cells(result)), file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
