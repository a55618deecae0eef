"""Scoring-service benchmark: grouped vs one-request-at-a-time scoring.

Drives the full serving stack (tracker ingest → feature gather →
vectorized SVM) on a synthetic workload and records:

* sustained ingest throughput (adoption events folded per second, with
  the O(mK) incremental update doing the real work);
* scoring throughput and per-request latency percentiles (p50/p95/p99)
  for the one-at-a-time baseline (``ScoringService.score`` — a group of
  one per request, the cost every naive serving loop pays) and for
  ``score_columns`` groups of several sizes — the call the server's
  group commit makes for concurrent ``score`` ops;
* burst-ingest throughput: ``ingest_columns`` (one kernel call per
  burst) vs the same event stream fed one call at a time;
* the burst fold kernel (``fold_burst``) against the per-cascade fold it
  replaced (kept in ``tests/property/test_prop_fold.py``) on three
  burst shapes — perfbench's stream shape must clear 2×, a
  1,024-cascade burst and one 10,000-adopter cascade 0.9× — with every
  feature and fold-state row bit-identical;
* a steady-state allocation audit of the ``score_columns`` hot path
  (tracemalloc, same methodology as ``test_perf_kernel``): with the
  workspace warm, scoring a group must allocate ~nothing net;
* write-ahead journaling overhead: the same columnar ingest stream with
  no journal, ``fsync="off"``, and ``fsync="interval"`` — durability at
  the default policy must cost at most **15%** of batched ingest
  throughput;
* concurrent single ``score`` ops over TCP (``serve_concurrency.py``):
  N ∈ {1, 8, 32, 64} closed-loop connections against ``repro serve``
  in process and on 2 shards — ops/s, p50/p99 and the mean group size
  the server's group commit forms.  Gated only on correctness (every
  reply equals its ``score_many`` row) and on groups forming (mean
  group size above 1 at N = 32 on both tiers); no timing gate;
* recovery replay rate: rebuild a service from a snapshot + journal
  tail and gate the replayed events/second (the number that bounds
  restart downtime);
* sharded scale-out: the same bulk scoring stream through the
  multi-process router at 1 shard and 4 shards — wall-clock speedup
  (gated ≥3× only on boxes with ≥4 cores; on smaller boxes the
  core-count-independent *ideal overlap speedup* — the per-shard
  compute ratio ``sum/max`` that pipelined fan-out converges to once
  cores exist — carries the gate, as in ``test_perf_dispatch``), router
  fan-out overhead, and zero-copy model publish latency, which must
  stay flat in shard count (one shared segment, N attaches — never N
  serialized copies).

Acceptance gates: the best group size must sustain at least **5×** the
baseline requests/sec, batched ingest at least **10×** one-at-a-time
ingest, and the warm ``score_columns`` path must stay under the
steady-state allocation budget — all at CI scale.  The wins are
amortization (one registry read, one fancy-index feature gather, one
vectorized ``decision_function`` / one vectorized fold per batch
instead of per request) so they hold and grow at paper scale.

Measurement methodology (same reasoning as ``test_perf_kernel``): this
box jitters 30%+ run to run, so baseline and grouped blocks are
interleaved back-to-back and each side keeps its *best* block.  The
maximum throughput converges to the interference-free cost of the work,
where an average would smear scheduler noise into the ratio.  Rounds
repeat adaptively until the ratio clears the gate with margin or the
round cap is hit.

Results land in ``BENCH_serving.json`` at the repo root plus the usual
``benchmarks/results`` text dump.
"""

import copy
import gc
import importlib.util
import json
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import serve_concurrency
from _common import current_scale, save_result

from repro.embedding.model import EmbeddingModel
from repro.prediction.features import (
    PAPER_FEATURES,
    FoldColumns,
    IncrementalFeatures,
    fold_burst,
)
from repro.prediction.pipeline import PredictionDataset, ViralityPredictor
from repro.serving.registry import ModelRegistry
from repro.serving.service import ScoringService

pytestmark = pytest.mark.slow  # sustained-throughput measurement loops

ROOT = Path(__file__).parent.parent

#: acceptance gate: best grouped throughput vs one-at-a-time baseline
MIN_SPEEDUP = 5.0
GROUP_SIZES = (8, 32, 256)
REPEATS = 3  # best-of repeats absorb scheduler jitter (ingest timing)
MIN_ROUNDS = 3  # always interleave at least this many baseline/batched rounds
MAX_ROUNDS = 14  # adaptive cap when jitter keeps the ratio below target
TARGET_RATIO = MIN_SPEEDUP * 1.2  # stop early once the gate clears with margin

#: acceptance gate: ingest_columns vs one-at-a-time ingest over one stream
MIN_INGEST_SPEEDUP = 10.0
INGEST_TARGET_RATIO = MIN_INGEST_SPEEDUP * 1.15
#: net-allocation budget for one warm score_columns call (PR 4 style:
#: python bookkeeping noise is tolerated, pooled-buffer reallocs are not)
SCORE_STEADY_STATE_BYTES = 16 * 1024

#: acceptance gate: fsync="interval" journaling keeps at least this
#: fraction of the no-journal batched ingest throughput (≤15% cost)
MIN_JOURNAL_RETENTION = 0.85
JOURNAL_TARGET_RETENTION = 0.90  # stop the rounds early with margin
#: acceptance gate: recovery replay rate at CI scale
MIN_RECOVERY_EPS = 100_000

#: acceptance gates for the sharded tier: batched req/s at 4 shards vs
#: the 1-shard router (wall-clock where cores allow it, otherwise the
#: ideal overlap speedup), router fan-out overhead vs serialized
#: per-shard compute, and publish-latency flatness in shard count
MIN_SHARD_SPEEDUP = 3.0
SHARD_COUNTS = (1, 4)
SHARD_OVERHEAD_BOUND = 1.35
SHARD_SWAP_FLATNESS = 1.6  # wall gate, needs cores to overlap attaches
SHARD_SWAP_SLOPE_RATIO = 2.0  # zero-copy proof, core-count independent
SHARD_PUBLISH_REPEATS = 20


def _update_bench_json(sections, retired=()):
    """Merge top-level sections into BENCH_serving.json.

    Each test in this file owns a disjoint set of keys, so any subset of
    tests can be (re-)run without clobbering the others' results.
    *retired* names keys a test no longer writes; they are dropped.
    """
    path = ROOT / "BENCH_serving.json"
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (FileNotFoundError, json.JSONDecodeError):
        doc = {}
    for key in retired:
        doc.pop(key, None)
    doc.update(sections)
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def _workload(scale):
    if scale.name == "paper":
        return {"n_nodes": 2000, "cascades": 200, "events_per": 30, "requests": 20000}
    return {"n_nodes": 500, "cascades": 50, "events_per": 20, "requests": 4000}


def _make_parts(seed, n_nodes):
    rng = np.random.default_rng(seed)
    model = EmbeddingModel(
        rng.uniform(0, 1, (n_nodes, 10)), rng.uniform(0, 1, (n_nodes, 10))
    )
    X = rng.normal(size=(200, len(PAPER_FEATURES)))
    sizes = np.where(X[:, 0] + 0.2 * rng.normal(size=200) > 0, 50, 5).astype(np.int64)
    ds = PredictionDataset(X=X, final_sizes=sizes, feature_names=tuple(PAPER_FEATURES))
    predictor = ViralityPredictor(threshold=20, seed=seed).fit(ds)
    return model, predictor


def _events(rng, n_nodes, cascades, events_per):
    out = []
    for c in range(cascades):
        nodes = rng.choice(n_nodes, size=events_per, replace=False)
        times = np.sort(rng.uniform(0, 1, size=events_per))
        out.append((f"c{c}", nodes, times))
    return out


def _ingest_all(service, events):
    t0 = time.perf_counter()
    for cid, nodes, times in events:
        for node, t in zip(nodes, times):
            service.ingest(cid, int(node), float(t))
    return time.perf_counter() - t0


def _percentiles_ms(latencies_s):
    arr = np.asarray(latencies_s) * 1e3
    return {
        "p50_ms": float(np.percentile(arr, 50)),
        "p95_ms": float(np.percentile(arr, 95)),
        "p99_ms": float(np.percentile(arr, 99)),
    }


def _run_baseline(service, cids, n_requests):
    """One-request-at-a-time: every score is its own group of one.

    Request ids are prepared and metrics harvested outside the timed
    window — only serving work is measured.
    """
    ids = [cids[i % len(cids)] for i in range(n_requests)]
    results = []
    t0 = time.perf_counter()
    for cid in ids:
        results.append(service.score(cid))
    elapsed = time.perf_counter() - t0
    assert all(r.ok for r in results)
    return n_requests / elapsed, [r.latency.total_s for r in results]


def _run_grouped(service, cids, n_requests, group):
    """Saturated grouped scoring: one ``score_columns`` call per group.

    The request count scales with *group*: every request in a group
    shares one ``compute_s``, so a group contributes a single distinct
    latency value.  With a fixed 4000-request workload at ``group=256``
    that is ~16 distinct values — p95 and p99 then select the *same*
    order statistic and the tail columns degenerate.  128 groups per
    configuration keep the upper percentiles honest; throughput is a
    rate, so the larger count does not skew the speedup ratio.
    """
    n_requests = max(n_requests, group * 128)
    groups = [
        [cids[(lo + j) % len(cids)] for j in range(min(group, n_requests - lo))]
        for lo in range(0, n_requests, group)
    ]
    t0 = time.perf_counter()
    scored = [service.score_columns(ids) for ids in groups]
    elapsed = time.perf_counter() - t0
    latencies = []
    for ids, columns in zip(groups, scored):
        assert columns.ok.all()
        latencies.extend([columns.compute_s] * len(ids))
    return n_requests / elapsed, latencies


class TestServingThroughput:
    def test_grouped_scoring_speedup(self):
        scale = current_scale()
        wl = _workload(scale)
        rng = np.random.default_rng(7)
        model, predictor = _make_parts(7, wl["n_nodes"])
        registry = ModelRegistry()
        registry.publish(model, predictor=predictor)
        events = _events(rng, wl["n_nodes"], wl["cascades"], wl["events_per"])
        cids = [cid for cid, _, _ in events]
        n_events = wl["cascades"] * wl["events_per"]

        # --- ingest throughput (fresh store, incremental updates) ----- #
        ingest_service = ScoringService(registry)
        ingest_s = min(_ingest_all(ScoringService(registry), events)
                       for _ in range(REPEATS))
        del ingest_service
        events_per_sec = n_events / ingest_s

        # --- interleaved baseline / grouped rounds -------------------- #
        # One warm service per configuration; each round runs baseline
        # then every group size back-to-back so all sides see the same
        # system conditions.  Per side we keep the best block: the max
        # throughput converges to the jitter-free cost of the work.
        base_service = ScoringService(registry)
        _ingest_all(base_service, events)
        base_service.score(cids[0])  # warm caches and code paths
        group_services = {}
        for group in GROUP_SIZES:
            service = ScoringService(registry)
            _ingest_all(service, events)
            service.score(cids[0])
            group_services[group] = service

        base_rps, base_lat = 0.0, []
        best_by_group = {g: (0.0, []) for g in GROUP_SIZES}
        for round_no in range(MAX_ROUNDS):
            rps, lat = _run_baseline(base_service, cids, wl["requests"])
            if rps > base_rps:
                base_rps, base_lat = rps, lat
            for group in GROUP_SIZES:
                rps, lat = _run_grouped(
                    group_services[group], cids, wl["requests"], group
                )
                if rps > best_by_group[group][0]:
                    best_by_group[group] = (rps, lat)
            ratio = max(v[0] for v in best_by_group.values()) / base_rps
            if round_no + 1 >= MIN_ROUNDS and ratio >= TARGET_RATIO:
                break

        batched_rows = [
            {
                "group": group,
                "throughput_rps": best_by_group[group][0],
                **_percentiles_ms(best_by_group[group][1]),
            }
            for group in GROUP_SIZES
        ]
        best = max(batched_rows, key=lambda r: r["throughput_rps"])
        speedup = best["throughput_rps"] / base_rps

        lines = [
            f"scale={scale.name}  nodes={wl['n_nodes']}  "
            f"cascades={wl['cascades']}x{wl['events_per']}ev  "
            f"requests={wl['requests']}",
            f"ingest: {events_per_sec:,.0f} events/s "
            f"({n_events} events in {ingest_s * 1e3:.1f} ms)",
            "",
            f"{'config':>14} {'req/s':>12} {'p50 ms':>9} {'p95 ms':>9} {'p99 ms':>9}",
        ]
        base_pct = _percentiles_ms(base_lat)
        lines.append(
            f"{'baseline(1)':>14} {base_rps:>12,.0f} "
            f"{base_pct['p50_ms']:>9.3f} {base_pct['p95_ms']:>9.3f} "
            f"{base_pct['p99_ms']:>9.3f}"
        )
        for row in batched_rows:
            lines.append(
                f"{'group(' + str(row['group']) + ')':>14} "
                f"{row['throughput_rps']:>12,.0f} {row['p50_ms']:>9.3f} "
                f"{row['p95_ms']:>9.3f} {row['p99_ms']:>9.3f}"
            )
        lines.append("")
        lines.append(
            f"best grouped vs baseline: {speedup:.1f}x (gate: >= {MIN_SPEEDUP}x)"
        )
        save_result("perf_serving", "\n".join(lines))

        payload = {
            "scale": scale.name,
            "workload": wl,
            "ingest": {
                "events": n_events,
                "seconds": ingest_s,
                "events_per_sec": events_per_sec,
            },
            "baseline": {
                "throughput_rps": base_rps,
                **base_pct,
            },
            "batched": batched_rows,
            "best_speedup_vs_baseline": speedup,
            "min_speedup_gate": MIN_SPEEDUP,
        }
        _update_bench_json(payload)

        assert speedup >= MIN_SPEEDUP, (
            f"grouped throughput only {speedup:.1f}x the one-at-a-time "
            f"baseline (gate {MIN_SPEEDUP}x): {best['throughput_rps']:,.0f} vs "
            f"{base_rps:,.0f} req/s"
        )


def _ingest_workload(scale):
    # wide firehose, moderate depth: many concurrent cascades make the
    # one-at-a-time path pay its per-event lock/snapshot/dispatch tax
    # across a cold slot table, while each cascade's ~100-event share
    # of the burst folds as a single vectorized chunk (``_FOLD_CHUNK``).
    # The whole stream goes down as one burst — the firehose case the
    # batched API exists for.
    if scale.name == "paper":
        return {"n_nodes": 4000, "cascades": 1024, "events_per": 96, "burst": 98304}
    return {"n_nodes": 500, "cascades": 1024, "events_per": 64, "burst": 65536}


def _interleaved_stream(rng, n_nodes, cascades, events_per):
    """One firehose stream: all cascades' events interleaved in global
    time order — the arrival order a real feed delivers, which is also
    the in-order fast path on both sides."""
    out = []
    for c in range(cascades):
        nodes = rng.choice(n_nodes, size=events_per, replace=False)
        times = np.sort(rng.uniform(0, 1, size=events_per))
        out.extend(
            (f"c{c}", int(n), float(t)) for n, t in zip(nodes, times)
        )
    out.sort(key=lambda e: e[2])
    return out


class TestIngestBurstThroughput:
    def test_batched_ingest_speedup(self):
        scale = current_scale()
        wl = _ingest_workload(scale)
        model, predictor = _make_parts(11, wl["n_nodes"])
        registry = ModelRegistry()
        registry.publish(model, predictor=predictor)
        stream = _interleaved_stream(
            np.random.default_rng(11), wl["n_nodes"], wl["cascades"], wl["events_per"]
        )
        n_events = len(stream)
        # each side consumes its natural input format, prepared outside
        # the timed region: the one-at-a-time loop walks the row-wise
        # event list; the batched side takes the same events as columnar
        # bursts (the struct-of-arrays layout a firehose consumer — log
        # shard, Arrow batch — already holds)
        bursts = [
            stream[i : i + wl["burst"]] for i in range(0, n_events, wl["burst"])
        ]
        col_bursts = []
        for burst in bursts:
            cids, nodes, times = zip(*burst)
            col_bursts.append(
                (
                    list(cids),
                    np.asarray(nodes, dtype=np.int64),
                    np.asarray(times, dtype=np.float64),
                )
            )

        def run_scalar():
            service = ScoringService(registry)
            t0 = time.perf_counter()
            for cid, node, t in stream:
                service.ingest(cid, node, t)
            elapsed = time.perf_counter() - t0
            assert service.stats()["ingested"] == n_events
            return elapsed, service

        def run_batched():
            service = ScoringService(registry)
            t0 = time.perf_counter()
            for cids, nodes, times in col_bursts:
                service.ingest_columns(cids, nodes, times)
            elapsed = time.perf_counter() - t0
            assert service.stats()["ingested"] == n_events
            return elapsed, service

        # parity spot-check once, outside the timed rounds: the scalar
        # path and the columnar burst path must land on bit-identical
        # feature vectors
        _, svc_a = run_scalar()
        _, svc_b = run_batched()
        snap = registry.current()
        for cid in (f"c{c}" for c in range(0, wl["cascades"], 7)):
            fa = svc_a.store.features(cid, snap)
            assert np.array_equal(fa, svc_b.store.features(cid, snap))
        del svc_a, svc_b

        scalar_s = batched_s = float("inf")
        for round_no in range(MAX_ROUNDS):  # interleaved best-of rounds
            scalar_s = min(scalar_s, run_scalar()[0])
            batched_s = min(batched_s, run_batched()[0])
            ratio = scalar_s / batched_s
            if round_no + 1 >= MIN_ROUNDS and ratio >= INGEST_TARGET_RATIO:
                break
        speedup = scalar_s / batched_s
        scalar_eps = n_events / scalar_s
        batched_eps = n_events / batched_s

        lines = [
            f"scale={scale.name}  nodes={wl['n_nodes']}  "
            f"cascades={wl['cascades']}x{wl['events_per']}ev  "
            f"burst={wl['burst']}",
            f"one-at-a-time ingest: {scalar_eps:>12,.0f} events/s",
            f"batched ingest_columns: {batched_eps:>10,.0f} events/s",
            f"speedup: {speedup:.1f}x (gate: >= {MIN_INGEST_SPEEDUP}x)",
        ]
        save_result("perf_serving_ingest", "\n".join(lines))
        _update_bench_json(
            {
                "ingest_burst": {
                    "scale": scale.name,
                    "workload": wl,
                    "events": n_events,
                    "scalar_events_per_sec": scalar_eps,
                    "batched_events_per_sec": batched_eps,
                    "speedup": speedup,
                    "min_speedup_gate": MIN_INGEST_SPEEDUP,
                }
            }
        )
        assert speedup >= MIN_INGEST_SPEEDUP, (
            f"batched ingest only {speedup:.1f}x one-at-a-time "
            f"(gate {MIN_INGEST_SPEEDUP}x): {batched_eps:,.0f} vs "
            f"{scalar_eps:,.0f} events/s"
        )


# --------------------------------------------------------------------- #
# The fold on three burst shapes: one kernel call vs one fold per cascade
# --------------------------------------------------------------------- #

#: acceptance gates: the burst kernel against the per-cascade fold it
#: replaced, per shape (interleaved best-of, per-burst time)
FOLD_GATES = {"stream": 2.0, "wide": 0.9, "giant": 0.9}
#: node universe per shape: perfbench's 800 GDELT sites, the ingest
#: section's 500, and room for one 10,000-adopter cascade
FOLD_N_NODES = {"stream": 800, "wide": 500, "giant": 12_000}
FOLD_TOPICS = 10
#: the box's speed drifts for tens of seconds at a time, and a short
#: run per side leaves few chances to catch both sides at speed
FOLD_MAX_ROUNDS = 30


def _fold_reference():
    """The per-cascade fold the kernel replaced, kept verbatim in the
    reference-fold property suite: one copy serves both."""
    path = ROOT / "tests" / "property" / "test_prop_fold.py"
    spec = importlib.util.spec_from_file_location("_fold_reference", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _fold_shape(name, rng):
    """``(preload, bursts)`` of one shape, as ``(cascade, nodes, times)``
    rows (preload) and lists of them (bursts), each cascade's nodes
    distinct and every burst time-sorted (the firehose order)."""
    perms = {}

    def take(cid, count):
        perm = perms.setdefault(cid, [rng.permutation(FOLD_N_NODES[name]), 0])
        nodes = perm[0][perm[1] : perm[1] + count]
        perm[1] += count
        return nodes

    def sorted_burst(parts, t0):
        rows = [(cid, int(v), t0 + float(u)) for cid, nodes in parts
                for v, u in zip(nodes, rng.random(len(nodes)))]
        rows.sort(key=lambda r: r[2])
        return rows

    if name == "stream":
        # perfbench's segment a: 256-event bursts over ~65 cascades with
        # ~50-event histories, ~3.9 new events each
        pool = [f"s{c}" for c in range(400)]
        preload = [(cid, take(cid, 50), -1.0 - rng.random(50)) for cid in pool]
        bursts = []
        for b in range(40):
            chosen = rng.choice(len(pool), size=65, replace=False)
            share = rng.multinomial(256 - 65, np.full(65, 1 / 65)) + 1
            bursts.append(sorted_burst(
                [(pool[c], take(pool[c], k)) for c, k in zip(chosen, share)], b))
        return preload, bursts
    if name == "wide":
        # the ingest section's firehose: 1,024 fresh cascades × 64 events
        # in one burst
        return [], [sorted_burst([(f"w{c}", take(f"w{c}", 64)) for c in range(1024)], 0)]
    # one giant cascade: 10,000 adopters, then 128-event bursts beside
    # 64 small cascades taking 2 events each
    preload = [("g", take("g", 10_000), -1.0 - rng.random(10_000))]
    bursts = [
        sorted_burst([("g", take("g", 128))] + [(f"m{c}", take(f"m{c}", 2)) for c in range(64)], b)
        for b in range(8)
    ]
    return preload, bursts


def _fold_sides(ref, model, preload, bursts):
    """Both sides' engines with the preload folded in, and each burst in
    the input shape each side takes: per-cascade arrays for the
    reference, one grouped column triple for the kernel."""
    cids = list(dict.fromkeys(
        [cid for cid, _, _ in preload] + [cid for burst in bursts for cid, _, _ in burst]))
    row = {cid: i for i, cid in enumerate(cids)}
    state = FoldColumns(PAPER_FEATURES, capacity=len(cids))
    engines = [IncrementalFeatures(model, PAPER_FEATURES, state=state, row=i)
               for i in range(len(cids))]
    ref_engines = [ref.ReferenceFeatures(model, PAPER_FEATURES) for _ in cids]
    for cid, nodes, times in preload:
        order = np.argsort(times, kind="stable")
        engines[row[cid]].update_many(nodes[order], times[order])
        ref_engines[row[cid]].update_many(nodes[order], times[order])
    per_cascade, grouped = [], []
    for burst in bursts:
        first = list(dict.fromkeys(cid for cid, _, _ in burst))
        index = {cid: g for g, cid in enumerate(first)}
        nodes = np.array([v for _, v, _ in burst], dtype=np.int64)
        times = np.array([t for _, _, t in burst])
        group_of = np.array([index[cid] for cid, _, _ in burst], dtype=np.intp)
        per_cascade.append((
            [(row[cid], [i for i, x in enumerate(group_of) if x == g])
             for g, cid in enumerate(first)],
            nodes,
            times,
        ))
        grouped.append(([row[cid] for cid in first], group_of, nodes, times))
    return engines, ref_engines, per_cascade, grouped


class TestFoldShapes:
    def test_burst_kernel_against_per_cascade_fold(self):
        ref = _fold_reference()
        rng = np.random.default_rng(23)
        rows, lines = {}, []
        for name, gate in FOLD_GATES.items():
            shape = (FOLD_N_NODES[name], FOLD_TOPICS)
            model = EmbeddingModel(rng.uniform(0, 1, shape), rng.uniform(0, 1, shape))
            preload, bursts = _fold_shape(name, rng)
            engines0, ref_engines0, per_cascade, grouped = _fold_sides(
                ref, model, preload, bursts
            )
            # each run folds into its own copy of the preloaded engines
            # (the model is shared, read-only)
            memo = {id(model): model}

            # the timed loops run with the collector off (as timeit
            # does): a collection of the copied engines inside one run
            # costs milliseconds and would land on whichever side it hits
            def run_reference():
                ref_engines = copy.deepcopy(ref_engines0, dict(memo))
                gc.collect()
                gc.disable()
                t0 = time.perf_counter()
                for shares, nodes, times in per_cascade:
                    # the per-cascade loop of the store before the kernel:
                    # gather each cascade's share, fold it in its engine
                    for c, idx_list in shares:
                        idx = np.asarray(idx_list, dtype=np.intp)
                        ref.reference_update_many(
                            ref_engines[c], nodes[idx], times[idx],
                            validate=False, assume_sorted=True,
                        )
                elapsed = time.perf_counter() - t0
                gc.enable()
                return elapsed, ref_engines

            def run_kernel():
                engines = copy.deepcopy(engines0, dict(memo))
                gc.collect()
                gc.disable()
                t0 = time.perf_counter()
                for touched, group_of, nodes, times in grouped:
                    fold_burst([engines[c] for c in touched], group_of, nodes, times, True)
                elapsed = time.perf_counter() - t0
                gc.enable()
                return elapsed, engines

            # bit-identity first: every feature row and fold-state row
            _, ref_engines = run_reference()
            _, engines = run_kernel()
            for engine, ref_engine in zip(engines, ref_engines):
                assert engine.features().tobytes() == ref_engine.features().tobytes()
                state, r = engine._state, engine._row
                side = ref_engine._side_a
                assert np.float64(state.d2max[0][r]).tobytes() == np.float64(side.d2max).tobytes()
                assert state.sums[0][r].tobytes() == side.vec_sum.tobytes()

            ref_s = kernel_s = float("inf")
            for round_no in range(FOLD_MAX_ROUNDS):  # interleaved best-of rounds
                ref_s = min(ref_s, run_reference()[0])
                kernel_s = min(kernel_s, run_kernel()[0])
                if round_no + 1 >= MIN_ROUNDS and ref_s / kernel_s >= gate * 1.15:
                    break
            n_events = sum(len(b) for b in bursts)
            n_cascades = np.mean([len({cid for cid, _, _ in b}) for b in bursts])
            rows[name] = {
                "n_nodes": FOLD_N_NODES[name],
                "bursts": len(bursts),
                "events_per_burst": n_events / len(bursts),
                "cascades_per_burst": float(n_cascades),
                "reference_ms_per_burst": ref_s * 1e3 / len(bursts),
                "kernel_ms_per_burst": kernel_s * 1e3 / len(bursts),
                "speedup": ref_s / kernel_s,
                "min_speedup_gate": gate,
            }
            lines.append(
                f"{name:>7}: {len(bursts):>3} bursts × {n_events / len(bursts):>7,.0f} ev "
                f"over {n_cascades:>6,.0f} cascades: per-cascade fold "
                f"{ref_s * 1e3 / len(bursts):8.2f} ms, kernel {kernel_s * 1e3 / len(bursts):8.2f} "
                f"ms per burst = {ref_s / kernel_s:.2f}x (gate >= {gate}x)"
            )
        save_result("perf_serving_fold", "\n".join(lines))
        _update_bench_json({"fold_shapes": {"topics": FOLD_TOPICS, **rows}})
        for name, row in rows.items():
            assert row["speedup"] >= row["min_speedup_gate"], (
                f"{name}: burst kernel only {row['speedup']:.2f}x the per-cascade "
                f"fold (gate {row['min_speedup_gate']}x)"
            )


def _journal_workload(scale):
    # moderate bursts so the per-append framing/flush cost is actually
    # exercised (one giant burst would amortize the journal to nothing)
    if scale.name == "paper":
        return {"n_nodes": 2000, "cascades": 2048, "events_per": 96, "burst": 1024}
    return {"n_nodes": 500, "cascades": 1024, "events_per": 64, "burst": 512}


class TestJournalDurability:
    def _col_bursts(self, wl):
        stream = _interleaved_stream(
            np.random.default_rng(17), wl["n_nodes"], wl["cascades"], wl["events_per"]
        )
        bursts = [
            stream[i : i + wl["burst"]] for i in range(0, len(stream), wl["burst"])
        ]
        out = []
        for burst in bursts:
            cids, nodes, times = zip(*burst)
            out.append(
                (
                    list(cids),
                    np.asarray(nodes, dtype=np.int64),
                    np.asarray(times, dtype=np.float64),
                )
            )
        return len(stream), out

    def test_journaling_overhead(self, tmp_path):
        from repro.serving.durability import EventJournal, JournalConfig

        scale = current_scale()
        wl = _journal_workload(scale)
        model, predictor = _make_parts(17, wl["n_nodes"])
        registry = ModelRegistry()
        registry.publish(model, predictor=predictor)
        n_events, col_bursts = self._col_bursts(wl)
        run_no = [0]

        def run(fsync):
            service = ScoringService(registry)
            if fsync is not None:
                run_no[0] += 1
                service.attach_journal(
                    EventJournal(
                        JournalConfig(
                            directory=tmp_path / f"wal-{run_no[0]:03d}",
                            fsync=fsync,
                        )
                    )
                )
            t0 = time.perf_counter()
            for cids, nodes, times in col_bursts:
                service.ingest_columns(cids, nodes, times)
            elapsed = time.perf_counter() - t0
            assert service.stats()["ingested"] == n_events
            if fsync is not None:
                assert service.journal.stats.event_records == len(col_bursts)
                service.seal_journal()
            return elapsed

        run(None), run("off"), run("interval")  # warm every path once
        none_s = off_s = interval_s = float("inf")
        for round_no in range(MAX_ROUNDS):  # interleaved best-of rounds
            none_s = min(none_s, run(None))
            off_s = min(off_s, run("off"))
            interval_s = min(interval_s, run("interval"))
            retention = none_s / interval_s
            if round_no + 1 >= MIN_ROUNDS and retention >= JOURNAL_TARGET_RETENTION:
                break
        rows = {
            "no_journal": n_events / none_s,
            "fsync_off": n_events / off_s,
            "fsync_interval": n_events / interval_s,
        }
        retention = none_s / interval_s
        cost_pct = (1.0 - retention) * 100.0

        lines = [
            f"scale={scale.name}  events={n_events}  burst={wl['burst']}",
        ]
        lines += [f"{name:>16}: {eps:>12,.0f} events/s" for name, eps in rows.items()]
        lines.append(
            f"fsync=interval cost: {cost_pct:.1f}% of batched ingest "
            f"(gate: <= {(1 - MIN_JOURNAL_RETENTION) * 100:.0f}%)"
        )
        save_result("perf_serving_journal", "\n".join(lines))
        _update_bench_json(
            {
                "journal_overhead": {
                    "scale": scale.name,
                    "workload": wl,
                    "events": n_events,
                    "events_per_sec": rows,
                    "interval_cost_pct": cost_pct,
                    "max_cost_pct_gate": (1 - MIN_JOURNAL_RETENTION) * 100,
                }
            }
        )
        assert retention >= MIN_JOURNAL_RETENTION, (
            f"journaling at fsync=interval costs {cost_pct:.1f}% of batched "
            f"ingest throughput (gate {(1 - MIN_JOURNAL_RETENTION) * 100:.0f}%): "
            f"{rows['fsync_interval']:,.0f} vs {rows['no_journal']:,.0f} events/s"
        )

    def test_recovery_replay_rate(self, tmp_path):
        from repro.serving.durability import (
            EventJournal,
            JournalConfig,
            recover_service,
        )

        scale = current_scale()
        wl = _journal_workload(scale)
        model, predictor = _make_parts(19, wl["n_nodes"])
        registry = ModelRegistry()
        registry.publish(model, predictor=predictor)
        n_events, col_bursts = self._col_bursts(wl)

        # build the journal once: half the stream compacted into a
        # snapshot, half left as replayable tail — the shape a crashed
        # steady-state service actually leaves behind
        config = JournalConfig(directory=tmp_path / "wal", fsync="off")
        service = ScoringService(registry)
        service.attach_journal(EventJournal(config))
        service.publish(model, predictor=predictor, source="seed")
        half = len(col_bursts) // 2
        for cids, nodes, times in col_bursts[:half]:
            service.ingest_columns(cids, nodes, times)
        assert service.compact()
        for cids, nodes, times in col_bursts[half:]:
            service.ingest_columns(cids, nodes, times)
        service.seal_journal()

        best_eps, best_report = 0.0, None
        for _ in range(REPEATS):
            recovered, report = recover_service(config, compact=False)
            recovered.seal_journal()
            replayed = report.snapshot_events + report.events_replayed
            eps = replayed / report.elapsed_s
            if eps > best_eps:
                best_eps, best_report = eps, report
        assert best_report is not None
        assert best_report.snapshot_loaded

        save_result(
            "perf_serving_recovery",
            f"scale={scale.name}  snapshot={best_report.snapshot_events} ev  "
            f"tail={best_report.events_replayed} ev  "
            f"recovery: {best_eps:,.0f} events/s "
            f"(gate: >= {MIN_RECOVERY_EPS:,.0f} at CI scale)",
        )
        _update_bench_json(
            {
                "recovery_replay": {
                    "scale": scale.name,
                    "workload": wl,
                    "snapshot_events": best_report.snapshot_events,
                    "tail_events": best_report.events_replayed,
                    "tail_records": best_report.records_replayed,
                    "elapsed_s": best_report.elapsed_s,
                    "events_per_sec": best_eps,
                    "min_events_per_sec_gate": MIN_RECOVERY_EPS,
                }
            }
        )
        if scale.name != "paper":
            assert best_eps >= MIN_RECOVERY_EPS, (
                f"recovery replayed only {best_eps:,.0f} events/s "
                f"(gate {MIN_RECOVERY_EPS:,.0f})"
            )


def _sharded_workload(scale):
    if scale.name == "paper":
        return {"n_nodes": 2000, "cascades": 512, "events_per": 30, "requests": 16384}
    return {"n_nodes": 500, "cascades": 256, "events_per": 20, "requests": 8192}


class TestShardedScaling:
    """The multi-process router: scale-out ratio + zero-copy swap cost.

    Both router configurations ride :meth:`score_columns` — the
    columnar wire shape the shards speak — so 1-shard and 4-shard
    differ *only* in fan-out width.  On a box with fewer than 4 cores
    the wall-clock ratio is physically capped near 1×, so the gate
    follows the ``test_perf_dispatch`` precedent: measure wall-clock
    always, gate it only when ``os.cpu_count() >= 4``, and otherwise
    gate the core-count-independent decomposition — per-shard compute
    must overlap ≥3× ideally (``sum/max``) and the router's fan-out
    must not eat the headroom (bounded overhead vs the serialized
    per-shard sum).
    """

    def test_shard_scaling_and_swap_cost(self):
        import os

        from repro.serving.sharding import ShardedScoringService, shard_of

        scale = current_scale()
        wl = _sharded_workload(scale)
        model, predictor = _make_parts(23, wl["n_nodes"])
        events = _events(
            np.random.default_rng(23), wl["n_nodes"], wl["cascades"], wl["events_per"]
        )
        cids = [cid for cid, _, _ in events]
        stream = []
        for cid, nodes, times in events:
            stream.extend((cid, int(n), float(t)) for n, t in zip(nodes, times))
        stream.sort(key=lambda e: e[2])
        col_cids, col_nodes, col_times = zip(*stream)
        col_cids = list(col_cids)
        col_nodes = np.asarray(col_nodes, dtype=np.int64)
        col_times = np.asarray(col_times, dtype=np.float64)
        blocks = []
        done = 0
        while done < wl["requests"]:
            n = min(256, wl["requests"] - done)
            blocks.append([cids[(done + j) % len(cids)] for j in range(n)])
            done += n

        services = {}
        try:
            for n_shards in SHARD_COUNTS:
                svc = ShardedScoringService(n_shards=n_shards)
                svc.publish(model, predictor=predictor)
                svc.ingest_columns(col_cids, col_nodes, col_times)
                cols = svc.score_columns(blocks[0])  # warm every path
                assert bool(np.all(cols.ok))
                services[n_shards] = svc

            # --- batched scoring throughput, interleaved best-of ------ #
            def run(svc):
                t0 = time.perf_counter()
                for block in blocks:
                    svc.score_columns(block)
                return time.perf_counter() - t0

            best = {n: float("inf") for n in SHARD_COUNTS}
            for _ in range(max(MIN_ROUNDS, REPEATS)):
                for n_shards, svc in services.items():
                    best[n_shards] = min(best[n_shards], run(svc))
            wall_speedup = best[1] / best[SHARD_COUNTS[-1]]
            rps = {n: wl["requests"] / s for n, s in best.items()}

            # --- per-shard decomposition (core-count independent) ----- #
            # Serialize each shard's share of the same request stream
            # through the 4-shard router: sum/max is the speedup the
            # fan-out converges to once a core exists per shard, and
            # the full-fan-out wall time must stay within
            # SHARD_OVERHEAD_BOUND of the serialized sum.  The shards
            # are timed interleaved, round by round, like the
            # throughput above: timed one after another, a slow phase
            # of the box during one shard's turn lowers sum/max.
            wide = services[SHARD_COUNTS[-1]]
            shard_blocks = {s: [] for s in range(SHARD_COUNTS[-1])}
            for block in blocks:
                by = {s: [] for s in range(SHARD_COUNTS[-1])}
                for cid in block:
                    by[shard_of(cid, SHARD_COUNTS[-1])].append(cid)
                for s, sub in by.items():
                    if sub:
                        shard_blocks[s].append(sub)
            per_shard_s = [float("inf")] * SHARD_COUNTS[-1]
            for _ in range(REPEATS):
                for s in range(SHARD_COUNTS[-1]):
                    t0 = time.perf_counter()
                    for sub in shard_blocks[s]:
                        wide.score_columns(sub)
                    per_shard_s[s] = min(per_shard_s[s], time.perf_counter() - t0)
            ideal_overlap = sum(per_shard_s) / max(per_shard_s)
            overhead_ratio = best[SHARD_COUNTS[-1]] / sum(per_shard_s)

            # --- zero-copy publish latency vs shard count ------------- #
            # Two probes.  (1) wall flatness: publish at 4 shards vs 1
            # shard — each worker's O(1) attach overlaps given cores, so
            # this is gated (like wall speedup) only with >= 4 cores.
            # (2) the core-count-independent zero-copy proof: the
            # *model-size slope* of publish latency.  Publishing an 80x
            # bigger model costs one extra O(plane-bytes) encode at the
            # router; each shard's attach stays O(1).  A copying swap
            # pays the plane bytes per shard, so its slope grows with
            # shard count — the ratio of slopes is the gate.
            big_rng = np.random.default_rng(29)
            big_model = EmbeddingModel(
                big_rng.uniform(0, 1, (40_000, 10)),
                big_rng.uniform(0, 1, (40_000, 10)),
            )
            publish_s = {}
            publish_big_s = {}
            for n_shards, svc in services.items():
                t_small = t_big = float("inf")
                for _ in range(SHARD_PUBLISH_REPEATS):
                    t0 = time.perf_counter()
                    svc.publish(model, predictor=predictor)
                    t_small = min(t_small, time.perf_counter() - t0)
                    t0 = time.perf_counter()
                    svc.publish(big_model, predictor=predictor)
                    t_big = min(t_big, time.perf_counter() - t0)
                publish_s[n_shards] = t_small
                publish_big_s[n_shards] = t_big
            swap_flatness = publish_s[SHARD_COUNTS[-1]] / publish_s[1]
            slope = {
                n: max(publish_big_s[n] - publish_s[n], 1e-9)
                for n in SHARD_COUNTS
            }
            slope_ratio = slope[SHARD_COUNTS[-1]] / slope[1]
        finally:
            for svc in services.values():
                svc.close()

        cores = os.cpu_count() or 1
        lines = [
            f"scale={scale.name}  cores={cores}  requests={wl['requests']}  "
            f"cascades={wl['cascades']}x{wl['events_per']}ev",
        ]
        for n_shards in SHARD_COUNTS:
            lines.append(
                f"shards={n_shards}: {rps[n_shards]:>12,.0f} req/s   "
                f"publish {publish_s[n_shards] * 1e3:.2f} ms "
                f"(80x model: {publish_big_s[n_shards] * 1e3:.2f} ms)"
            )
        lines += [
            f"wall-clock speedup: {wall_speedup:.2f}x "
            f"(gated >= {MIN_SHARD_SPEEDUP}x only with >= 4 cores)",
            f"ideal overlap speedup: {ideal_overlap:.2f}x "
            f"(gate: >= {MIN_SHARD_SPEEDUP}x)",
            f"router overhead: {overhead_ratio:.2f}x serialized shard sum "
            f"(gate: <= {SHARD_OVERHEAD_BOUND}x)",
            f"publish flatness: {swap_flatness:.2f}x the 1-shard publish "
            f"(gated <= {SHARD_SWAP_FLATNESS}x only with >= 4 cores)",
            f"publish size-slope ratio: {slope_ratio:.2f}x "
            f"(gate: <= {SHARD_SWAP_SLOPE_RATIO}x — plane bytes cross "
            "once, not per shard)",
        ]
        save_result("perf_serving_sharded", "\n".join(lines))
        _update_bench_json(
            {
                "sharded": {
                    "scale": scale.name,
                    "cores": cores,
                    "workload": wl,
                    "throughput_rps": {str(n): rps[n] for n in SHARD_COUNTS},
                    "publish_s": {str(n): publish_s[n] for n in SHARD_COUNTS},
                    "publish_big_s": {
                        str(n): publish_big_s[n] for n in SHARD_COUNTS
                    },
                    "wall_speedup": wall_speedup,
                    "ideal_overlap_speedup": ideal_overlap,
                    "router_overhead_ratio": overhead_ratio,
                    "publish_flatness": swap_flatness,
                    "publish_size_slope_ratio": slope_ratio,
                    "min_speedup_gate": MIN_SHARD_SPEEDUP,
                    "overhead_bound_gate": SHARD_OVERHEAD_BOUND,
                    "publish_flatness_gate": SHARD_SWAP_FLATNESS,
                    "publish_slope_ratio_gate": SHARD_SWAP_SLOPE_RATIO,
                    "wall_clock_gated": cores >= 4,
                }
            }
        )

        if cores >= 4:
            assert wall_speedup >= MIN_SHARD_SPEEDUP, (
                f"4-shard router only {wall_speedup:.2f}x the 1-shard router "
                f"(gate {MIN_SHARD_SPEEDUP}x on a {cores}-core box)"
            )
            assert swap_flatness <= SHARD_SWAP_FLATNESS, (
                f"publish at 4 shards costs {swap_flatness:.2f}x the 1-shard "
                f"publish (bound {SHARD_SWAP_FLATNESS}x on a {cores}-core "
                "box) — the per-shard attaches are not overlapping"
            )
        assert ideal_overlap >= MIN_SHARD_SPEEDUP, (
            f"per-shard compute overlaps only {ideal_overlap:.2f}x ideally "
            f"(gate {MIN_SHARD_SPEEDUP}x) — the hash ranges are unbalanced"
        )
        assert overhead_ratio <= SHARD_OVERHEAD_BOUND, (
            f"router fan-out costs {overhead_ratio:.2f}x the serialized "
            f"per-shard sum (bound {SHARD_OVERHEAD_BOUND}x)"
        )
        assert slope_ratio <= SHARD_SWAP_SLOPE_RATIO, (
            f"publish latency grows {slope_ratio:.2f}x faster with model "
            f"size at 4 shards than at 1 (bound {SHARD_SWAP_SLOPE_RATIO}x) "
            "— plane bytes are crossing the wire per shard instead of "
            "through one shared segment"
        )


def _traced_bytes(fn):
    """(net, peak) bytes allocated across one call of *fn*."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        fn()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return max(0, current - base), max(0, peak - base)


class TestScoreAllocations:
    def test_steady_state_score_columns_is_allocation_free(self):
        """With the workspace warm, scoring a group of 256 ids must not
        grow the heap: the gather vectors and group matrix all live in
        pooled buffers.  Transient python objects (the output columns)
        are freed within the call and so do not count against the net
        budget — exactly the PR 4 gate."""
        scale = current_scale()
        wl = _workload(scale)
        model, predictor = _make_parts(13, wl["n_nodes"])
        registry = ModelRegistry()
        registry.publish(model, predictor=predictor)
        service = ScoringService(registry)
        events = _events(
            np.random.default_rng(13), wl["n_nodes"], wl["cascades"], wl["events_per"]
        )
        _ingest_all(service, events)
        cids = [cid for cid, _, _ in events]
        group = [cids[i % len(cids)] for i in range(256)]

        def cycle():
            assert len(service.score_columns(group)) == len(group)

        for _ in range(5):  # warm the workspace and every code path
            cycle()
        net, peak = _traced_bytes(cycle)
        save_result(
            "perf_serving_alloc",
            f"steady-state score_columns (group=256): net={net} B  peak={peak} B  "
            f"budget={SCORE_STEADY_STATE_BYTES} B",
        )
        _update_bench_json(
            {
                "score_columns_alloc": {
                    "scale": scale.name,
                    "group": 256,
                    "net_bytes": net,
                    "peak_bytes": peak,
                    "budget_bytes": SCORE_STEADY_STATE_BYTES,
                }
            },
            retired=("flush_alloc",),
        )
        assert net < SCORE_STEADY_STATE_BYTES, (
            f"warm score_columns allocated {net} B net "
            f"(budget {SCORE_STEADY_STATE_BYTES} B) — a pooled buffer is "
            "being reallocated per call"
        )


class TestConcurrentScore:
    def test_group_commit_answers_concurrent_score_ops(self, tmp_path):
        """Single ``score`` ops from N connections: every reply equals
        its ``score_many`` row, and concurrent ops share scoring calls."""
        result = serve_concurrency.measure(tmp_path)
        save_result("perf_serving_concurrency", "\n".join(serve_concurrency.format_cells(result)))
        _update_bench_json({"concurrent_score": result})
        cells = result["cells"]
        assert cells and all(c["replies"] > 0 and c["mismatches"] == 0 for c in cells)
        for tier, _ in serve_concurrency.TIERS:
            (at32,) = [c for c in cells if c["tier"] == tier and c["connections"] == 32]
            assert at32["mean_group_size"] > 1.0, (
                f"{tier}: 32 concurrent connections formed no groups "
                f"(mean group size {at32['mean_group_size']:.2f})"
            )
