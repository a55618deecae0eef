"""Early-stage virality prediction (§V, Figs. 5–9, 12).

Given inferred embeddings and the *early adopters* of a new cascade (the
infections observed in the first fraction of the observation window), three
features are extracted from the adopters' influence vectors —

* ``diverA`` (Eq. 17): max pairwise Euclidean distance,
* ``normA``  (Eq. 18): norm of the summed influence,
* ``maxA``   (Eq. 19): largest component of the summed influence —

and fed to a linear SVM that classifies whether the final cascade size will
exceed a threshold.  Evaluation is F1 under 10-fold cross-validation,
swept over thresholds (the red curves of Figs. 9 and 12).
"""

from typing import TYPE_CHECKING

from repro import _lazy_exports

if TYPE_CHECKING:
    from repro.prediction.features import FeatureExtractor, extract_features
    from repro.prediction.svm import LinearSVM
    from repro.prediction.metrics import (
        accuracy,
        confusion_counts,
        f1_score,
        precision,
        recall,
    )
    from repro.prediction.crossval import cross_val_f1, kfold_indices
    from repro.prediction.pipeline import (
        PredictionDataset,
        ThresholdSweepResult,
        ViralityPredictor,
        build_dataset,
        threshold_sweep,
    )
    from repro.prediction.curves import (
        average_precision,
        best_informedness,
        precision_recall_curve,
        roc_auc,
        roc_curve,
    )
    from repro.prediction.pointprocess import SelfExcitingSizePredictor
    from repro.prediction.regression import (
        RidgeRegression,
        mean_absolute_error,
        r2_score,
    )

__all__ = [
    "FeatureExtractor",
    "extract_features",
    "LinearSVM",
    "confusion_counts",
    "precision",
    "recall",
    "f1_score",
    "accuracy",
    "kfold_indices",
    "cross_val_f1",
    "ViralityPredictor",
    "PredictionDataset",
    "build_dataset",
    "threshold_sweep",
    "ThresholdSweepResult",
    "SelfExcitingSizePredictor",
    "roc_curve",
    "roc_auc",
    "precision_recall_curve",
    "average_precision",
    "best_informedness",
    "RidgeRegression",
    "r2_score",
    "mean_absolute_error",
]

__getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        "repro.prediction.features": ("FeatureExtractor", "extract_features"),
        "repro.prediction.svm": ("LinearSVM",),
        "repro.prediction.metrics": (
            "accuracy", "confusion_counts", "f1_score", "precision", "recall",
        ),
        "repro.prediction.crossval": ("cross_val_f1", "kfold_indices"),
        "repro.prediction.pipeline": (
            "PredictionDataset", "ThresholdSweepResult", "ViralityPredictor", "build_dataset",
            "threshold_sweep",
        ),
        "repro.prediction.curves": (
            "average_precision", "best_informedness", "precision_recall_curve", "roc_auc",
            "roc_curve",
        ),
        "repro.prediction.pointprocess": ("SelfExcitingSizePredictor",),
        "repro.prediction.regression": ("RidgeRegression", "mean_absolute_error", "r2_score"),
    },
)
