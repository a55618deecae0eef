"""train-sbm workload process: one job of the paper's training pipeline.

Launched fresh by ``run.py`` for every job, so set-up is timed from
process launch (the parent stamps the launch, this process stamps
"ready").  Ready means the corpus file is loaded and the 2-worker pool
is up; the job then runs co-occurrence + ``filter_edges(0.1)`` → SLPA →
``MergeTree(stop_at=1)`` → ``HierarchicalInference.fit`` →
``build_dataset`` → 10-fold ``cross_val_f1`` at the top-20% final-size
threshold.

Usage: ``python -m perfbench.train_job CONFIG.json`` (written by run.py).
"""

from __future__ import annotations

import json
import os
import sys
import time
import traceback
from pathlib import Path
from typing import Any, Dict, List, Tuple

import numpy as np

from perfbench.measure import SpanRecorder, tree_peak_rss_mb
from repro.cascades.io import load_cascades_jsonl
from repro.community import MergeTree, slpa
from repro.cooccurrence import build_cooccurrence_graph
from repro.embedding import EmbeddingModel, OptimizerConfig
from repro.parallel import HierarchicalInference, MultiprocessBackend
from repro.prediction import build_dataset
from repro.prediction.crossval import cross_val_f1
from repro.prediction.svm import LinearSVM

N_WORKERS = 2
N_TOPICS = 10
K_FOLDS = 10
TOP_FRACTION = 0.2
EARLY_FRACTION = 2.0 / 7.0
#: the fit's seed (benchmarks/conftest.py's sbm_model), fixed so every run
#: fits the same model; README.md explains why the seed does not vary it
PIPELINE_SEED = 105

clock = time.monotonic


class _TimedSVM:
    """A fold's classifier; logs when its held-out predictions exist."""

    def __init__(self, svm: LinearSVM, log: List[Tuple[float, int]]) -> None:
        self._svm = svm
        self._log = log

    def fit(self, X: np.ndarray, y: np.ndarray) -> "_TimedSVM":
        self._svm.fit(X, y)
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        out = self._svm.predict(X)
        self._log.append((clock(), len(X)))
        return out


def run_job(cfg: Dict[str, Any], train, test, backend, t_ready: float) -> Dict[str, Any]:
    spans = SpanRecorder(enabled=bool(cfg["trace"]), clock=clock)
    rng = np.random.default_rng(PIPELINE_SEED)
    cv_rng = np.random.default_rng(cfg["cv_seed"])
    predictions: List[Tuple[float, int]] = []

    with spans.span("train"):
        with spans.span("cooccurrence.build"):
            graph = build_cooccurrence_graph(train).filter_edges(0.1)
        with spans.span("community.slpa"):
            partition = slpa(graph, seed=rng)
        tree = MergeTree(partition, stop_at=1)
        model = EmbeddingModel.random(train.n_nodes, N_TOPICS, scale=0.5, seed=rng)
        with spans.span("parallel.fit"):
            fit = HierarchicalInference(tree, OptimizerConfig(), backend).fit(model, train)
        with spans.span("prediction.features"):
            dataset = build_dataset(
                model, test, early_fraction=EARLY_FRACTION, window=cfg["window"]
            )
        threshold = int(np.quantile(dataset.final_sizes, 1.0 - TOP_FRACTION))
        y = dataset.labels(threshold)
        with spans.span("prediction.cv"):
            f1 = cross_val_f1(
                lambda: _TimedSVM(LinearSVM(seed=cv_rng), predictions),
                dataset.X,
                y,
                k=K_FOLDS,
                seed=cv_rng,
            )
    t_done = clock()

    lag_ms: List[float] = []
    for t, n in predictions:
        lag_ms.extend([(t - t_ready) * 1e3] * n)
    profiles = backend.level_profiles
    total_work = fit.total_work_units
    critical = sum(max(level.work_units, default=0) for level in fit.levels)
    finite = all(np.all(np.isfinite(m)) for m in (model.A, model.B))
    nonneg = all(np.all(m >= 0) for m in (model.A, model.B))
    return {
        "job_s": t_done - t_ready,
        "f1": f1,
        "threshold": threshold,
        "positive_fraction": float(np.mean(y == 1)),
        "lag_ms": lag_ms,
        "events_per_s": cfg["train_events"] / (t_done - t_ready),
        "ops": 1,
        "failed_ops": 0,
        "counters": {"jobs": 1},
        "checks": {
            "model finite and non-negative": bool(finite and nonneg),
            f"f1 over all {K_FOLDS} folds": len(predictions) == K_FOLDS
            and len(lag_ms) == len(test),
        },
        "layers": {
            "cooccurrence.build_s": spans.total("cooccurrence.build"),
            "community.slpa_s": spans.total("community.slpa"),
            "parallel.fit_s": spans.total("parallel.fit"),
            "parallel.dispatch_overhead_s": float(sum(p.overhead_seconds for p in profiles)),
            "embedding.kernel_s": float(sum(p.kernel_seconds or 0.0 for p in profiles)),
            "parallel.work_units": float(total_work),
            "parallel.critical_work_share": critical / total_work if total_work else 0.0,
            "prediction.features_s": spans.total("prediction.features"),
            "prediction.cv_s": spans.total("prediction.cv"),
        },
        "spans": spans.to_records(),
    }


def main(config_path: str) -> int:
    cfg = json.loads(Path(config_path).read_text())
    result: Dict[str, Any] = {}
    try:
        corpus = load_cascades_jsonl(cfg["corpus"])
        train, test = corpus.split(cfg["n_train"])
        backend = MultiprocessBackend(n_workers=N_WORKERS)
        try:
            result["t_ready"] = clock()
            if not cfg["setup_only"]:
                result.update(run_job(cfg, train, test, backend, result["t_ready"]))
            result["peak_rss_mb"] = tree_peak_rss_mb(os.getpid())
        finally:
            backend.close()
    except Exception:
        result["error"] = traceback.format_exc()
    Path(cfg["result"]).write_text(json.dumps(result))
    return 0 if "error" not in result else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
