"""Real-time scoring: train → checkpoint → serve → hot-swap → crash →
recover → scale out (DESIGN.md §12, §14, §16).

The paper's predictor is an offline artifact; this example runs the
deployment half.  It trains embeddings and a virality SVM, saves both as
the ``.npz`` artifacts ``repro serve`` consumes, assembles the scoring
service from them — with a write-ahead journal armed — replays held-out
cascades' early adopters as a live event stream, scores them all in one
batched call, hot-swaps in a refit model mid-stream without
dropping a request, then kills the service without ceremony and rebuilds
it from the journal: the recovered scores are bit-identical.  It then
stands the same artifacts up behind a sharded multi-process tier and
shows the scores don't change — sharding is a deployment knob, not a
semantics knob.  Finally it records the event stream to a crc-framed
``.evs`` file and replays it 50× real time against the sharded tier
(DESIGN.md §17), grading the run with an SLO report and checking the
replayed store fingerprint against a direct ingest.

The same service speaks newline-JSON over TCP or stdio::

    repro serve --model model.npz --predictor svm.npz --port 7569 \
        --journal-dir wal/
    repro serve --journal-dir wal/ --recover --port 7569   # after a crash
    repro serve --model model.npz --predictor svm.npz --port 7569 \
        --shards 4                                         # sharded tier

Usage::

    python examples/scoring_service.py
"""

import tempfile
from pathlib import Path

import numpy as np

from repro import infer_embeddings, make_sbm_experiment
from repro.bench import format_table
from repro.ingest import (
    ReplayConfig,
    StreamWriter,
    batches_from_cascades,
    replay_recording,
    stream_info,
)
from repro.prediction.pipeline import ViralityPredictor, build_dataset
from repro.serving import (
    JournalConfig,
    ScoringClient,
    build_service,
    build_sharded_service,
    recover_service,
)


def main() -> None:
    # every artifact, journal and recording lives in one directory that
    # is removed when the run ends, however it ends
    with tempfile.TemporaryDirectory(prefix="repro-serving-") as workdir:
        run(Path(workdir))


def run(workdir: Path) -> None:
    print("=== 1. Train: embeddings + virality SVM on the training corpus")
    exp = make_sbm_experiment(
        n_nodes=300,
        community_size=30,
        n_train=150,
        n_test=100,
        seed=33,
    )
    model, result, _ = infer_embeddings(exp.train, n_topics=8, seed=33)
    threshold = int(np.quantile(exp.train.sizes(), 0.8))
    dataset = build_dataset(model, exp.train, window=exp.window)
    predictor = ViralityPredictor(threshold=threshold, seed=33).fit(dataset)
    print(
        f"  {len(exp.train)} training cascades, final block "
        f"log-likelihood {result.final_loglik:.1f}; "
        f"'viral' = final size >= {threshold} (top 20%)"
    )

    print("\n=== 2. Checkpoint the artifacts and assemble the service (journaled)")
    model.save(workdir / "model.npz")
    predictor.save(workdir / "svm.npz")
    # journal_dir arms the write-ahead log (DESIGN.md §14): every
    # admitted ingest burst and model swap is journaled, so the service
    # can be rebuilt bit-identically after a crash (step 5).
    service = build_service(
        str(workdir / "model.npz"),
        predictor_path=str(workdir / "svm.npz"),
        journal_dir=workdir / "wal",
    )
    client = ScoringClient(service)
    print(
        f"  artifacts in {workdir}; model version "
        f"{service.stats()['model_version']}; journaling to {workdir / 'wal'}"
    )

    print("\n=== 3. Stream each held-out cascade's early adopters, then score")
    # The service sees exactly what an online monitor would: the events
    # inside the early window, in arrival order.  Each cascade's prefix
    # is already struct-of-arrays (node column + time column), so it
    # goes down the columnar burst path — one vectorized fold per
    # cascade, no per-event tuple boxing.
    cascade_ids = []
    for i, cascade in enumerate(exp.test):
        cid = f"event-{i}"
        cascade_ids.append(cid)
        cutoff = cascade.times[0] + exp.early_fraction * exp.window
        prefix = cascade.prefix_by_time(cutoff)
        client.ingest_columns(
            [cid] * len(prefix.nodes),
            np.asarray(prefix.nodes),
            np.asarray(prefix.times),
        )
    # score_many is one score_columns call: one snapshot read and one
    # vectorized SVM evaluation for the whole group
    results = client.score_many(cascade_ids)
    stats = service.stats()
    print(
        f"  {stats['ingested']} events folded in; {stats['scored']} cascades "
        f"scored; batched SVM evaluations: {stats['batches']}"
    )

    final_sizes = exp.test.sizes()
    order = np.argsort([-r.score for r in results])[:5]
    rows = [
        (
            results[i].cascade_id,
            results[i].n_early,
            f"{results[i].score:+.2f}",
            "viral" if results[i].label > 0 else "-",
            int(final_sizes[i]),
            "viral" if final_sizes[i] >= threshold else "-",
        )
        for i in order
    ]
    print("  top 5 by score:")
    table = format_table(
        ("cascade", "early", "score", "predicted", "final size", "actual"), rows
    )
    print("\n".join("    " + line for line in table.splitlines()))
    predicted = np.array([r.label for r in results])
    actual = np.where(final_sizes >= threshold, 1, -1)
    agree = float(np.mean(predicted == actual))
    print(f"  prediction/outcome agreement: {agree:.0%}")

    print("\n=== 4. Hot-swap a refit model mid-stream")
    # A refit on the full corpus finishes; publish it.  In-flight
    # trackers rebind lazily (replaying their observed events under the
    # new embeddings), so the same cascades re-score under version 2.
    model2, _, _ = infer_embeddings(exp.cascades, n_topics=8, seed=33)
    dataset2 = build_dataset(model2, exp.train, window=exp.window)
    predictor2 = ViralityPredictor(threshold=threshold, seed=33).fit(dataset2)
    # service.publish is the journaled twin of registry.publish: the new
    # snapshot also goes down as a swap record, so recovery re-swaps it.
    service.publish(model2, predictor=predictor2, source="refit")
    results2 = client.score_many(cascade_ids)
    stats = service.stats()
    sample = results[int(order[0])], results2[int(order[0])]
    print(
        f"  model version {sample[0].model_version} -> "
        f"{sample[1].model_version}; {stats['rebuilds']} trackers rebuilt; "
        f"top cascade rescored {sample[0].score:+.2f} -> {sample[1].score:+.2f}"
    )
    predicted2 = np.array([r.label for r in results2])
    agree2 = float(np.mean(predicted2 == actual))
    print(f"  agreement after swap: {agree2:.0%}")

    print("\n=== 5. Crash, then recover from the journal")
    # Simulate a hard crash: walk away from the service without drain()
    # or seal — no goodbye flush.  Every appended record already reached
    # the OS (the journal flushes per frame; the fsync policy decides
    # when it hits the platter), so recovery sees the full stream.
    reference = {r.cascade_id: r.score for r in results2}
    del service, client
    recovered, report = recover_service(JournalConfig(directory=workdir / "wal"))
    results3 = ScoringClient(recovered).score_many(cascade_ids)
    identical = all(reference[r.cascade_id] == r.score for r in results3)
    print(
        f"  replayed {report.snapshot_events + report.events_replayed} events "
        f"+ {report.swaps_replayed} model swaps across "
        f"{report.segments_replayed} segments in {report.elapsed_s * 1e3:.0f} ms"
    )
    print(f"  recovered scores bit-identical to pre-crash: {identical}")
    assert identical
    recovered.drain()  # graceful this time: seal, stop

    print("\n=== 6. Scale out: the same artifacts behind a sharded tier")
    # DESIGN.md §16: ``--shards N`` splits tracker state across N worker
    # processes by cascade-id hash.  The router fans each burst out over
    # per-shard pipes and merges replies in request order; a model
    # publish crosses the plane bytes once, through a shared-memory
    # segment every shard attaches read-only.  Same client, same wire
    # protocol, same scores.
    sharded = build_sharded_service(
        str(workdir / "model.npz"),
        n_shards=2,
        predictor_path=str(workdir / "svm.npz"),
    )
    try:
        sh_client = ScoringClient(sharded)
        for i, cascade in enumerate(exp.test):
            cutoff = cascade.times[0] + exp.early_fraction * exp.window
            prefix = cascade.prefix_by_time(cutoff)
            sh_client.ingest_columns(
                [cascade_ids[i]] * len(prefix.nodes),
                np.asarray(prefix.nodes),
                np.asarray(prefix.times),
            )
        sh_results = sh_client.score_many(cascade_ids)
        same_v1 = all(a.score == b.score for a, b in zip(sh_results, results))
        # One zero-copy publish swaps every shard to the refit model.
        sharded.publish(model2, predictor=predictor2, source="refit")
        sh_results2 = sh_client.score_many(cascade_ids)
        same_v2 = all(r.score == reference[r.cascade_id] for r in sh_results2)
        sh_stats = sharded.stats()
        per_shard = "+".join(
            str(s["tracked_cascades"]) for s in sh_stats["shards"]
        )
        print(
            f"  {sh_stats['n_shards']} shard processes tracking "
            f"{per_shard} cascades; scores bit-identical to the "
            f"in-process tier (v1: {same_v1}, after swap: {same_v2})"
        )
        assert same_v1 and same_v2
    finally:
        sharded.close()

    print("\n=== 7. Record the event stream, replay it 50x real-time")
    # DESIGN.md §17: capture the test corpus as a crc-framed recording
    # (cascade starts laid onto a 30-second wall-clock timeline), then
    # replay it paced against a fresh sharded tier and grade the run —
    # pacing is a latency knob, never a semantics knob, so the replayed
    # store must fingerprint-match a direct columnar ingest.
    stream_path = workdir / "test.evs"
    batches = batches_from_cascades(list(exp.test), span_s=30.0, seed=7)
    with StreamWriter(stream_path) as writer:
        for batch in batches:
            writer.write_batch(batch)
    info = stream_info(stream_path)
    print(
        f"  recorded {info.n_events} events / {info.n_cascades} cascades "
        f"spanning {info.duration_s:.1f}s -> {stream_path.name}"
    )
    replayed = build_sharded_service(
        str(workdir / "model.npz"),
        n_shards=2,
        predictor_path=str(workdir / "svm.npz"),
    )
    try:
        report = replay_recording(
            stream_path,
            replayed,
            ReplayConfig(speed=50.0, score_every=8, slo_p99_ms=250.0),
        )
        direct = build_service(
            str(workdir / "model.npz"),
            predictor_path=str(workdir / "svm.npz"),
        )
        for batch in batches:
            direct.ingest_columns(list(batch.cascade_ids), batch.nodes, batch.times)
        # fingerprints are per-tier (the sharded one folds per-shard
        # state), so cross-tier parity is judged on what the tiers
        # serve: the scores
        stream_cids = sorted({c for b in batches for c in b.cascade_ids})
        got = replayed.score_columns(stream_cids)
        want = direct.score_columns(stream_cids)
        identical = bool(np.array_equal(got.scores, want.scores))
        for line in report.format_lines():
            print("  " + line)
        print(f"  replayed scores bit-identical to direct ingest: {identical}")
        assert report.ok and identical
    finally:
        replayed.close()


if __name__ == "__main__":
    main()
