"""Seeded inputs for the three workloads (written before any timing starts).

The same ``--seed`` always produces byte-identical files.  What the seed
varies, and what it deliberately does not, is set out in README.md
("Inputs and seeds"): the training experiment, the GDELT world and the
stream's scorer are fixed instances; the seed draws the cross-validation
split and the live stream.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Sequence

import numpy as np

from repro.cascades.io import save_cascades_jsonl
from repro.datasets import GDELTConfig, SyntheticGDELT, make_sbm_experiment
from repro.embedding.model import EmbeddingModel
from repro.ingest.recorder import StreamWriter
from repro.ingest.sources import EventBatch, batches_from_cascades, chunk_columns
from repro.prediction.features import PAPER_FEATURES, FeatureExtractor
from repro.prediction.pipeline import PredictionDataset, ViralityPredictor

# ---- train-sbm: the CI-scale planted-SBM experiment (benchmarks/_common.py) ----
SBM_NODES = 800
SBM_COMMUNITY_SIZE = 40
SBM_TRAIN = 700
SBM_TEST = 350
N_TOPICS = 10
#: the experiment benchmarks/conftest.py fits for Fig. 9
SBM_INSTANCE_SEED = 104

# ---- stream-*: synthetic-GDELT recordings ----
GDELT_SITES = 800
#: the world benchmarks/conftest.py uses for the GDELT figures
GDELT_WORLD_SEED = 101
STREAM_CASCADES = 1400
HISTORY_CASCADES = 400
#: seed of the stream's scorer: its K=10 model, its history sample and
#: the predictor fitted on that history are the same for every run
SCORER_SEED = 7
BURST_EVENTS = 256
#: cascade starts spread over the first 38% of the stream, which gives
#: about 65 distinct cascades per 256-event burst (README.md)
START_FRACTION = 0.38
#: recorded events per stream second; event times are evenly spaced at
#: this rate so an open loop at speed s releases a burst every
#: BURST_EVENTS / (RECORDED_RATE * s) wall seconds
RECORDED_RATE = 1000.0
SEGMENTS = ("a", "b")


def write_train_corpus(seed: int, path: Path) -> Dict[str, object]:
    """The fixed CI-scale experiment; *seed* draws the CV split."""
    exp = make_sbm_experiment(
        n_nodes=SBM_NODES,
        community_size=SBM_COMMUNITY_SIZE,
        n_train=SBM_TRAIN,
        n_test=SBM_TEST,
        n_topics=N_TOPICS,
        seed=SBM_INSTANCE_SEED,
    )
    save_cascades_jsonl(exp.cascades, path)
    return {
        "n_train": SBM_TRAIN,
        "window": exp.window,
        "train_events": int(sum(len(c) for c in exp.train)),
        "cv_seed": seed,
    }


def _respaced(batches: Sequence[EventBatch], n_bursts: int) -> List[EventBatch]:
    """The first *n_bursts* full bursts, event times re-spaced evenly."""
    n = n_bursts * BURST_EVENTS
    cids: List[str] = []
    for b in batches:
        cids.extend(b.cascade_ids)
    if len(cids) < n:
        raise ValueError(f"stream has {len(cids)} events, {n} needed")
    nodes = np.concatenate([b.nodes for b in batches])[:n]
    times = np.arange(n, dtype=np.float64) / RECORDED_RATE
    return list(chunk_columns(cids[:n], nodes, times, BURST_EVENTS))


def write_stream_inputs(seed: int, n_bursts: int, out: Path) -> Dict[str, object]:
    """Model, predictor and one recording per segment under *out*.

    Both segments replay the same sampled cascades in different
    interleavings under disjoint cascade ids (``a-*``, ``b-*``), so the
    second segment folds into the first one's service with no duplicate.
    """
    world = SyntheticGDELT(GDELTConfig(n_sites=GDELT_SITES), seed=GDELT_WORLD_SEED)
    fixed = np.random.default_rng(SCORER_SEED)
    model = EmbeddingModel(
        fixed.uniform(0.0, 1.0, (GDELT_SITES, N_TOPICS)),
        fixed.uniform(0.0, 1.0, (GDELT_SITES, N_TOPICS)),
    )
    model.save(out / "model.npz")
    history = list(world.sample_events(HISTORY_CASCADES, seed=fixed))
    sizes = np.array([len(c) for c in history], dtype=np.int64)
    threshold = int(np.quantile(sizes, 0.8))
    predictor = ViralityPredictor(threshold, seed=SCORER_SEED).fit(
        PredictionDataset(
            X=FeatureExtractor(model, PAPER_FEATURES).transform(history),
            final_sizes=sizes,
            feature_names=PAPER_FEATURES,
        )
    )
    predictor.save(out / "predictor.npz")

    rng = np.random.default_rng([seed, 2])
    cascades = list(world.sample_events(STREAM_CASCADES, seed=rng))

    # segment cascade "<segment>-<i>" is cascades[i]; its size in the world
    # is the truth the served virality labels are scored against
    info: Dict[str, object] = {
        "threshold": threshold,
        "final_sizes": [len(c) for c in cascades],
        "segments": {},
    }
    for name in SEGMENTS:
        batches = _respaced(
            batches_from_cascades(
                cascades,
                span_s=60.0,
                start_fraction=START_FRACTION,
                chunk=BURST_EVENTS,
                seed=rng,
                id_prefix=name,
            ),
            n_bursts,
        )
        path = out / f"segment-{name}.evs"
        with StreamWriter(path) as writer:
            for b in batches:
                writer.write_batch(b)
        info["segments"][name] = {  # type: ignore[index]
            "path": str(path),
            "bursts": len(batches),
            "events": writer.n_events,
            "cascades": len({c for b in batches for c in b.cascade_ids}),
            "distinct_per_burst": float(
                np.mean([len(set(b.cascade_ids)) for b in batches])
            ),
            "t_first": batches[0].t_first,
        }
    (out / "stream.json").write_text(json.dumps(info, indent=1))
    return info
