"""Command-line interface: the paper's pipeline as composable commands.

Install the package and run ``repro <command> --help``.  Every command
reads/writes plain files (JSON-lines corpora, ``.npz`` embeddings) so the
stages compose through the filesystem:

.. code-block:: bash

    repro simulate-sbm --nodes 400 --cascades 450 --out corpus.jsonl
    repro infer        --corpus corpus.jsonl --train 300 --topics 10 \\
                       --out model.npz
    repro predict      --corpus corpus.jsonl --skip 300 --model model.npz \\
                       --quantiles 0.5,0.8,0.9
    repro influencers  --model model.npz --corpus corpus.jsonl --top 10
    repro gdelt        --sites 800 --events 500 --out events.jsonl
    repro speedup      --corpus corpus.jsonl --cores 1,2,4,8,16,32,64
    repro serve        --model model.npz --predictor svm.npz --port 7569
    repro record       --sites 800 --events 500 --out stream.evs
    repro replay       stream.evs --model model.npz --speed 10 --shards 4 \\
                       --slo-p99-ms 50
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path
from typing import List, Optional, Sequence

import numpy as np

__all__ = ["main", "build_parser"]


def _parse_int_list(text: str) -> List[int]:
    try:
        return [int(x) for x in text.split(",") if x.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad integer list {text!r}") from exc


def _int_at_least(text: str, low: int) -> int:
    try:
        value = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad integer {text!r}") from exc
    if value < low:
        raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
    return value


def _positive_int(text: str) -> int:
    return _int_at_least(text, 1)


def _non_negative_int(text: str) -> int:
    return _int_at_least(text, 0)


def _positive_int_list(text: str) -> List[int]:
    return [_positive_int(x) for x in text.split(",") if x.strip()]


def _finite_float(text: str, low: float, strict: bool) -> float:
    try:
        value = float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad number {text!r}") from exc
    if not (math.isfinite(value) and (value > low if strict else value >= low)):
        bound = f"> {low:g}" if strict else f">= {low:g}"
        raise argparse.ArgumentTypeError(f"must be finite and {bound}, got {text}")
    return value


def _positive_seconds(text: str) -> float:
    return _finite_float(text, 0.0, strict=True)


def _non_negative_float(text: str) -> float:
    return _finite_float(text, 0.0, strict=False)


def _parse_float_list(text: str) -> List[float]:
    try:
        return [float(x) for x in text.split(",") if x.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad float list {text!r}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Predicting Viral News Events in "
        "Online Media' (Lu & Szymanski, 2017)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate-sbm", help="generate an SBM cascade corpus")
    p.add_argument("--nodes", type=int, default=400)
    p.add_argument("--community-size", type=int, default=40)
    p.add_argument("--cascades", type=int, default=450)
    p.add_argument("--window", type=float, default=1.0)
    p.add_argument("--rate-scale", type=float, default=0.9)
    p.add_argument("--uniform", action="store_true",
                   help="disable hub communities (the scaling-benchmark corpus)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("gdelt", help="generate a synthetic GDELT event corpus")
    p.add_argument("--sites", type=int, default=800)
    p.add_argument("--events", type=int, default=500)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None,
                   help="write the corpus as cascade JSONL here")
    p.add_argument("--stream", default=None,
                   help="also/instead export a timestamped event stream "
                   "consumable by 'repro replay'")
    p.add_argument("--span", type=_positive_seconds, default=60.0,
                   help="stream seconds the corpus is spread over "
                   "(--stream only)")
    p.add_argument("--chunk", type=_positive_int, default=256,
                   help="events per recorded burst (--stream only)")

    p = sub.add_parser(
        "record", help="record an event source into a replayable stream file"
    )
    p.add_argument("--out", required=True,
                   help="recording path (crc-framed, versioned)")
    p.add_argument("--corpus", default=None,
                   help="cascade JSONL to stream (default: sample a "
                   "synthetic GDELT corpus)")
    p.add_argument("--sites", type=int, default=800,
                   help="synthetic world size (without --corpus)")
    p.add_argument("--events", type=int, default=500,
                   help="synthetic events to sample (without --corpus)")
    p.add_argument("--span", type=_positive_seconds, default=60.0,
                   help="stream seconds the corpus is spread over")
    p.add_argument("--start-fraction", type=float, default=0.75,
                   help="fraction of --span in which cascades may start")
    p.add_argument("--chunk", type=_positive_int, default=256,
                   help="events per recorded burst")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser(
        "replay",
        help="replay a recorded stream against a scoring tier at Nx "
        "real-time, emitting a structured SLO report",
    )
    p.add_argument("recording", help="stream file written by 'repro record'")
    p.add_argument("--connect", default=None, metavar="HOST:PORT",
                   help="feed a running 'repro serve' over TCP "
                   "(default: build an in-process tier from --model)")
    p.add_argument("--model", default=None,
                   help="embedding .npz for the in-process tier")
    p.add_argument("--predictor", default=None)
    p.add_argument("--features", choices=("paper", "extended"), default="paper")
    p.add_argument("--shards", type=int, default=1,
                   help="shard the in-process tier across N worker processes")
    p.add_argument("--capacity", type=_positive_int, default=100_000)
    p.add_argument("--speed", type=_non_negative_float, default=1.0,
                   help="real-time multiple (10 = ten recorded seconds per "
                   "wall second); 0 = flat out, no pacing")
    p.add_argument("--chunk", type=_positive_int, default=None,
                   help="re-chunk recorded bursts to at most N events")
    p.add_argument("--max-inflight", type=_positive_int, default=4,
                   help="bursts in flight between pacer and folder "
                   "(the backpressure window)")
    p.add_argument("--max-retries", type=_non_negative_int, default=8,
                   help="backoff ladder depth on a backpressure reject")
    p.add_argument("--overload", choices=("block", "shed"), default="block",
                   help="past the retry budget: fail the run or drop "
                   "the burst")
    p.add_argument("--score-every", type=_positive_int, default=None,
                   help="score each burst's cascades every Nth burst")
    p.add_argument("--window", type=_positive_seconds, default=1.0,
                   help="SLO meter window seconds")
    p.add_argument("--slo-p99-ms", type=_positive_seconds, default=None,
                   help="gate: fail (exit 1) if p99 ingest+score latency "
                   "exceeds this many milliseconds")

    p = sub.add_parser("infer", help="infer influence/selectivity embeddings")
    p.add_argument("--corpus", required=True)
    p.add_argument("--train", type=_positive_int, default=None,
                   help="use only the first N cascades (default: all)")
    p.add_argument("--topics", type=_positive_int, default=10)
    p.add_argument("--stop-at", type=_positive_int, default=1)
    p.add_argument("--strategy", choices=("tree", "graph"), default="tree")
    p.add_argument("--max-iters", type=_positive_int, default=200)
    p.add_argument("--l2", type=float, default=0.0)
    p.add_argument("--workers", type=_positive_int, default=1,
                   help=">1 runs the multiprocess backend")
    p.add_argument("--max-retries", type=_non_negative_int, default=3,
                   help="extra attempts per block task under worker "
                   "supervision; the last permitted attempt runs in the "
                   "parent, earlier ones in the pool (default 3: up to three "
                   "pool attempts, then the parent; 0: every task in the parent)")
    p.add_argument("--task-timeout", type=_positive_seconds, default=None,
                   help="fixed per-task deadline in seconds (default: "
                   "adaptive from the dispatch cost model)")
    p.add_argument("--checkpoint-dir", default=None,
                   help="persist state after each merge-tree level here")
    p.add_argument("--resume", action="store_true",
                   help="resume from the checkpoint in --checkpoint-dir")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("predict", help="threshold-sweep virality prediction")
    p.add_argument("--corpus", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--skip", type=int, default=0,
                   help="skip the first N cascades (the training prefix)")
    p.add_argument("--thresholds", type=_parse_int_list, default=None)
    p.add_argument("--quantiles", type=_parse_float_list,
                   default=[0.5, 0.8, 0.9])
    p.add_argument("--early-fraction", type=float, default=2 / 7)
    p.add_argument("--window", type=float, default=None)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("influencers", help="rank nodes by inferred influence")
    p.add_argument("--model", required=True)
    p.add_argument("--corpus", default=None,
                   help="optional corpus for participation filtering")
    p.add_argument("--top", type=int, default=10)
    p.add_argument("--topic", type=int, default=None)
    p.add_argument("--min-participation", type=int, default=10)

    p = sub.add_parser("speedup", help="measured schedule + simulated scaling")
    p.add_argument("--corpus", required=True)
    p.add_argument("--topics", type=_positive_int, default=10)
    p.add_argument("--stop-at", type=_positive_int, default=4)
    p.add_argument("--cores", type=_positive_int_list, default=[1, 2, 4, 8, 16, 32, 64])
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser(
        "serve", help="real-time scoring service (newline-JSON over TCP or stdio)"
    )
    p.add_argument("--model", default=None,
                   help="embedding .npz, checkpoint dir, or checkpoint .npz "
                   "(required unless --recover)")
    p.add_argument("--predictor", default=None,
                   help=".npz written by ViralityPredictor.save (scores need it)")
    p.add_argument("--features", choices=("paper", "extended"), default="paper")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=7569)
    p.add_argument("--stdio", action="store_true",
                   help="speak the protocol on stdin/stdout instead of TCP")
    p.add_argument("--capacity", type=_positive_int, default=100_000,
                   help="max cascades tracked before LRU eviction")
    p.add_argument("--ttl", type=_positive_seconds, default=None,
                   help="expire cascades idle this many seconds (default: never)")
    p.add_argument("--journal-dir", default=None,
                   help="write-ahead journal directory (enables durability)")
    p.add_argument("--fsync", choices=("always", "interval", "off"),
                   default="interval",
                   help="journal fsync policy (default: interval)")
    p.add_argument("--fsync-interval", type=float, default=0.05,
                   help="seconds between fsyncs under --fsync interval")
    p.add_argument("--recover", action="store_true",
                   help="rebuild state from --journal-dir before serving "
                   "(--model/--predictor not needed; the journal holds them)")
    p.add_argument("--read-timeout", type=float, default=None,
                   help="close a TCP connection idle this many seconds")
    p.add_argument("--shards", type=int, default=1,
                   help="shard cascade state across N worker processes "
                   "(1 = in-process, the default); model hot-swaps are "
                   "broadcast zero-copy through one shared-memory segment")

    return parser


# --------------------------------------------------------------------- #
# Command implementations
# --------------------------------------------------------------------- #


def _cmd_simulate_sbm(args) -> int:
    from repro.cascades.io import save_cascades_jsonl
    from repro.datasets.sbm_corpus import make_sbm_experiment

    exp = make_sbm_experiment(
        n_nodes=args.nodes,
        community_size=args.community_size,
        n_train=args.cascades,
        n_test=0,
        window=args.window,
        rate_scale=args.rate_scale,
        hub_communities=not args.uniform,
        seed=args.seed,
    )
    save_cascades_jsonl(exp.cascades, args.out)
    sizes = exp.cascades.sizes()
    print(
        f"wrote {len(exp.cascades)} cascades over {args.nodes} nodes to "
        f"{args.out} (sizes: median {np.median(sizes):.0f}, max {sizes.max()})"
    )
    return 0


def _cmd_gdelt(args) -> int:
    from repro.cascades.io import save_cascades_jsonl
    from repro.datasets.gdelt import GDELTConfig, SyntheticGDELT

    if args.out is None and args.stream is None:
        print("nothing to do: pass --out and/or --stream", file=sys.stderr)
        return 2
    world = SyntheticGDELT(GDELTConfig(n_sites=args.sites), seed=args.seed)
    events = world.sample_events(args.events, seed=args.seed + 1)
    sizes = events.sizes()
    if args.out is not None:
        save_cascades_jsonl(events, args.out)
        print(
            f"wrote {len(events)} events over {args.sites} sites to {args.out} "
            f"(sizes: median {np.median(sizes):.0f}, max {sizes.max()}; "
            f"window {world.config.window_hours:.0f}h)"
        )
    if args.stream is not None:
        from repro.ingest import StreamWriter, batches_from_cascades

        batches = batches_from_cascades(
            list(events), span_s=args.span, chunk=args.chunk, seed=args.seed
        )
        with StreamWriter(args.stream) as writer:
            for batch in batches:
                writer.write_batch(batch)
        print(
            f"recorded {writer.n_events} adoption events in "
            f"{writer.n_records} bursts over {args.span:.0f}s of stream "
            f"time to {args.stream}"
        )
    return 0


def _cmd_record(args) -> int:
    from repro.ingest import CascadeFileSource, SyntheticGDELTSource, record_source

    if args.corpus is not None:
        source = CascadeFileSource(
            args.corpus,
            span_s=args.span,
            start_fraction=args.start_fraction,
            chunk=args.chunk,
            seed=args.seed,
        )
        origin = args.corpus
    else:
        from repro.datasets.gdelt import GDELTConfig

        source = SyntheticGDELTSource(
            args.events,
            config=GDELTConfig(n_sites=args.sites),
            seed=args.seed,
            span_s=args.span,
            start_fraction=args.start_fraction,
            chunk=args.chunk,
        )
        origin = f"synthetic GDELT ({args.sites} sites, {args.events} events)"
    try:
        info = record_source(source, args.out)
    except (OSError, ValueError) as exc:
        # a bad corpus must not leave a header-only .evs behind
        Path(args.out).unlink(missing_ok=True)
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(
        f"recorded {info.n_events} adoption events across "
        f"{info.n_cascades} cascades ({info.n_records} bursts, "
        f"{info.duration_s:.1f}s of stream time) from {origin} to {info.path}"
    )
    return 0


def _cmd_replay(args) -> int:
    import json as _json

    from repro.ingest import ReplayConfig, ReplayOverloadError, replay_recording
    from repro.ingest.recorder import RecordingError, stream_info
    from repro.serving.client import (
        RemoteError,
        ServerUnreachableError,
        TCPScoringClient,
    )

    try:
        info = stream_info(args.recording)
    except (OSError, RecordingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    speed = None if args.speed == 0 else args.speed
    pacing = f"{speed:g}x real-time" if speed is not None else "flat out"
    print(
        f"replaying {info.n_events} events / {info.n_cascades} cascades "
        f"({info.duration_s:.1f}s recorded) at {pacing}",
        file=sys.stderr,
    )
    config = ReplayConfig(
        speed=speed,
        chunk_events=args.chunk,
        max_inflight=args.max_inflight,
        max_retries=args.max_retries,
        overload=args.overload,
        score_every=args.score_every,
        window_s=args.window,
        slo_p99_ms=args.slo_p99_ms,
    )

    target = None
    service = None
    try:
        if args.connect is not None:
            host, _, port_text = args.connect.rpartition(":")
            if not host or not port_text.isdigit():
                print(
                    f"error: --connect expects HOST:PORT, got {args.connect!r}",
                    file=sys.stderr,
                )
                return 2
            target = TCPScoringClient(host, int(port_text))
        else:
            if args.model is None:
                print("--model is required (or use --connect)", file=sys.stderr)
                return 2
            from repro.prediction.features import (
                EXTENDED_FEATURES,
                PAPER_FEATURES,
            )

            feature_set = (
                EXTENDED_FEATURES if args.features == "extended" else PAPER_FEATURES
            )
            if args.shards > 1:
                from repro.serving.sharding import build_sharded_service

                service = build_sharded_service(
                    args.model,
                    n_shards=args.shards,
                    predictor_path=args.predictor,
                    feature_set=feature_set,
                    capacity=args.capacity,
                )
            else:
                from repro.serving.server import build_service

                service = build_service(
                    args.model,
                    predictor_path=args.predictor,
                    feature_set=feature_set,
                    capacity=args.capacity,
                )
            target = service
        try:
            report = replay_recording(args.recording, target, config)
        except (ServerUnreachableError, RemoteError, ValueError) as exc:
            # a stream the model cannot take (a node outside its universe)
            # raises ValueError in process and RemoteError over TCP
            print(f"error: {exc}", file=sys.stderr)
            return 1
        except ReplayOverloadError as exc:
            print(f"error: {exc} (try --overload shed or a lower --speed)",
                  file=sys.stderr)
            return 1
    finally:
        if isinstance(target, TCPScoringClient):
            target.close()
        if service is not None:
            closer = getattr(service, "close", None)
            if closer is not None:
                closer()
    for line in report.format_lines():
        print(f"  {line}", file=sys.stderr)
    print(_json.dumps(report.to_dict(), indent=2))
    return 0 if report.ok else 1


def _cmd_infer(args) -> int:
    from repro.cascades.io import load_cascades_jsonl
    from repro.embedding.optimizer import OptimizerConfig
    from repro.parallel.backends import MultiprocessBackend, SerialBackend
    from repro.parallel.hierarchical import infer_embeddings

    corpus = load_cascades_jsonl(args.corpus)
    if args.train is not None:
        corpus, _ = corpus.split(min(args.train, len(corpus)))
    backend = (
        MultiprocessBackend(
            n_workers=args.workers,
            max_retries=args.max_retries,
            task_timeout=args.task_timeout,
        )
        if args.workers > 1
        else SerialBackend()
    )
    try:
        model, result, tree = infer_embeddings(
            corpus,
            n_topics=args.topics,
            config=OptimizerConfig(max_iters=args.max_iters, l2=args.l2),
            backend=backend,
            stop_at=args.stop_at,
            strategy=args.strategy,
            seed=args.seed,
            checkpoint_dir=args.checkpoint_dir,
            resume=args.resume,
        )
    finally:
        backend.close()
    model.save(args.out)
    loglik = (
        f"final block log-likelihood {result.final_loglik:.1f}"
        if result.levels
        else "all levels already checkpointed"
    )
    print(f"trained on {len(corpus)} cascades; merge tree {tree.widths()}; {loglik}")
    if result.resumed_from_level is not None:
        print(
            f"resumed from checkpoint at level {result.resumed_from_level} "
            f"(levels 0-{result.resumed_from_level - 1} already complete)"
        )
    if result.fault_log:
        print(
            f"supervision: {len(result.fault_log)} fault(s), "
            f"{result.total_retries} retr{'y' if result.total_retries == 1 else 'ies'}"
        )
    print(f"wrote embeddings ({model.n_nodes} x {model.n_topics} x 2) to {args.out}")
    return 0


def _cmd_predict(args) -> int:
    from repro.bench.tables import format_table
    from repro.cascades.io import load_cascades_jsonl
    from repro.embedding.model import EmbeddingModel
    from repro.prediction.pipeline import threshold_sweep

    corpus = load_cascades_jsonl(args.corpus)
    if args.skip:
        _, corpus = corpus.split(min(args.skip, len(corpus)))
    model = EmbeddingModel.load(args.model)
    sizes = corpus.sizes()
    if args.thresholds:
        thresholds = args.thresholds
    else:
        thresholds = sorted({int(np.quantile(sizes, q)) for q in args.quantiles})
    sweep = threshold_sweep(
        model,
        corpus,
        thresholds=thresholds,
        early_fraction=args.early_fraction,
        window=args.window,
        seed=args.seed,
    )
    print(format_table(["size threshold", "F1", "positive fraction"], sweep.rows()))
    print(f"F1 at top-20%: {sweep.f1_at_top_fraction(0.2):.3f}")
    return 0


def _cmd_influencers(args) -> int:
    from repro.analysis.influencers import rank_influencers
    from repro.bench.tables import format_table
    from repro.embedding.model import EmbeddingModel

    model = EmbeddingModel.load(args.model)
    participation = None
    min_part = 0
    if args.corpus:
        from repro.cascades.io import load_cascades_jsonl
        from repro.cascades.stats import node_participation_counts

        corpus = load_cascades_jsonl(args.corpus)
        participation = node_participation_counts(corpus)
        min_part = args.min_participation
    top = rank_influencers(
        model,
        topic=args.topic,
        top_k=args.top,
        participation=participation,
        min_participation=min_part,
    )
    print(format_table(["node", "influence"], top))
    return 0


def _cmd_speedup(args) -> int:
    from repro.bench.tables import format_table
    from repro.cascades.io import load_cascades_jsonl
    from repro.community.mergetree import MergeTree
    from repro.community.slpa import slpa
    from repro.cooccurrence.build import build_cooccurrence_graph
    from repro.embedding.model import EmbeddingModel
    from repro.embedding.optimizer import OptimizerConfig
    from repro.parallel.backends import SerialBackend
    from repro.parallel.costmodel import ParallelCostModel
    from repro.parallel.hierarchical import HierarchicalInference

    corpus = load_cascades_jsonl(args.corpus)
    graph = build_cooccurrence_graph(corpus).filter_edges(0.1)
    partition = slpa(graph, seed=args.seed)
    tree = MergeTree(partition, stop_at=args.stop_at)
    model = EmbeddingModel.random(corpus.n_nodes, args.topics, seed=args.seed)
    engine = HierarchicalInference(
        tree, OptimizerConfig(), SerialBackend()
    )
    result = engine.fit(model, corpus)
    cm = ParallelCostModel.calibrated(result)
    curves = cm.curves(args.cores)
    rows = list(
        zip(curves["cores"], curves["time"], curves["speedup"], curves["efficiency"])
    )
    print(f"merge tree widths: {tree.widths()}")
    print(format_table(["cores", "time (s)", "speedup", "efficiency"], rows))
    return 0


def _cmd_serve(args) -> int:
    import asyncio

    from repro.prediction.features import EXTENDED_FEATURES, PAPER_FEATURES
    from repro.serving.durability import JournalConfig, JournalError, recover_service
    from repro.serving.server import ScoringServer, build_service, serve_stdio
    from repro.serving.tracker import StoreConfig

    feature_set = (
        EXTENDED_FEATURES if args.features == "extended" else PAPER_FEATURES
    )
    if args.shards < 1:
        print("--shards must be >= 1", file=sys.stderr)
        return 2
    sharded = args.shards > 1
    if args.recover:
        if args.journal_dir is None:
            print("--recover requires --journal-dir", file=sys.stderr)
            return 2
        if sharded:
            from repro.serving.sharding import (
                ShardStartupError,
                recover_sharded_service,
            )

            try:
                service, report = recover_sharded_service(
                    args.journal_dir,
                    n_shards=args.shards,
                    feature_set=feature_set,
                    capacity=args.capacity,
                    ttl=args.ttl,
                    fsync=args.fsync,
                    fsync_interval=args.fsync_interval,
                )
            except ShardStartupError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 1
        else:
            try:
                service, report = recover_service(
                    JournalConfig(
                        directory=args.journal_dir,
                        fsync=args.fsync,
                        fsync_interval=args.fsync_interval,
                    ),
                    feature_set=feature_set,
                    store_config=StoreConfig(capacity=args.capacity, ttl=args.ttl),
                )
            except JournalError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 1
        print(
            f"recovered {report.snapshot_cascades} cascades from snapshot "
            f"(+{report.events_replayed} events, {report.swaps_replayed} swaps "
            f"replayed from {report.segments_replayed} segments) in "
            f"{report.elapsed_s:.2f}s"
            + ("; torn tail repaired" if report.torn_tail_repaired else ""),
            file=sys.stderr,
        )
    else:
        if args.model is None:
            print("--model is required (or use --recover)", file=sys.stderr)
            return 2
        if sharded:
            from repro.serving.sharding import (
                ShardStartupError,
                build_sharded_service,
            )

            try:
                service = build_sharded_service(
                    args.model,
                    n_shards=args.shards,
                    predictor_path=args.predictor,
                    feature_set=feature_set,
                    capacity=args.capacity,
                    ttl=args.ttl,
                    journal_dir=args.journal_dir,
                    fsync=args.fsync,
                    fsync_interval=args.fsync_interval,
                )
            except ShardStartupError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 1
        else:
            service = build_service(
                args.model,
                predictor_path=args.predictor,
                feature_set=feature_set,
                capacity=args.capacity,
                ttl=args.ttl,
                journal_dir=args.journal_dir,
                fsync=args.fsync,
                fsync_interval=args.fsync_interval,
            )
    snap = service.registry.current()
    scorer = "with fitted predictor" if snap.predictor is not None else "features only"
    durable = (
        f"journal {args.journal_dir} (fsync={args.fsync})"
        if args.journal_dir
        else "no journal"
    )
    tier = f"{args.shards} shard processes" if sharded else "in-process"
    print(
        f"serving model v{snap.version} ({snap.source}; {scorer}); {tier}; {durable}",
        file=sys.stderr,
    )

    async def _run_tcp() -> None:
        server = ScoringServer(
            service,
            host=args.host,
            port=args.port,
            read_timeout=args.read_timeout,
        )
        await server.start()
        print(f"listening on {args.host}:{server.port}", file=sys.stderr)
        # run() returns after a SIGTERM-triggered graceful drain: waiting
        # score ops are answered, the journal seals, and we exit 0.
        await server.run()
        print("drained; journal sealed", file=sys.stderr)

    try:
        asyncio.run(serve_stdio(service) if args.stdio else _run_tcp())
    except KeyboardInterrupt:
        pass
    return 0


_COMMANDS = {
    "simulate-sbm": _cmd_simulate_sbm,
    "gdelt": _cmd_gdelt,
    "record": _cmd_record,
    "replay": _cmd_replay,
    "infer": _cmd_infer,
    "predict": _cmd_predict,
    "influencers": _cmd_influencers,
    "speedup": _cmd_speedup,
    "serve": _cmd_serve,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
