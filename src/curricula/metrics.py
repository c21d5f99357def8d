"""Evaluation metrics for the three-class task and its binary coarsening.

Five metrics are reported per evaluation: three-class accuracy, balanced
accuracy (mean per-class recall), macro one-vs-rest average AUC, and the
accuracy and AUC of the binary "class 0 vs. rest" task scored by
``1 - p[0]``. AUCs are Mann-Whitney statistics: the probability that a
random positive outranks a random negative, ties counted as one half.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .data import CLASSES, class_onehot


@dataclass(frozen=True)
class MetricsReport:
    accuracy: float
    balanced_accuracy: float
    average_auc: float
    binary_accuracy: float
    binary_auc: float

    def __post_init__(self) -> None:
        for name in METRIC_NAMES:
            v = getattr(self, name)
            if not (0.0 <= v <= 1.0):
                raise ValueError(f"{name} must lie in [0, 1], got {v}")


#: Column order used in reports and CSV files: the report's fields, in order.
METRIC_NAMES = tuple(f.name for f in fields(MetricsReport))


def _check_inputs(probs, labels, every_class: bool = False) -> tuple[np.ndarray, np.ndarray]:
    p = np.asarray(probs, dtype=np.float64)
    y = np.asarray(labels)
    if p.ndim != 2 or p.shape[1] != 3:
        raise ValueError(f"probs must have shape (n, 3), got {p.shape}")
    if y.shape != (p.shape[0],):
        raise ValueError(f"probs and labels lengths differ: {p.shape[0]} vs {y.shape}")
    if p.shape[0] == 0:
        raise ValueError("need at least one sample")
    if not np.all(np.isfinite(p)):
        raise ValueError("probabilities must be finite")
    if not np.all((p >= 0.0) & (p <= 1.0)):
        raise ValueError("probabilities must lie in [0, 1]")
    # The raw labels, before any cast: as int64, 1.5 would pass as 1.
    present = class_onehot(y).any(axis=0)
    if every_class and not present.all():
        raise ValueError(f"class {int(np.argmin(present))} is absent from labels")
    return p, y.astype(np.int64, copy=False)


def accuracy(probs, labels) -> float:
    """Fraction of samples whose argmax class (lowest index on ties) is correct."""
    p, y = _check_inputs(probs, labels)
    return float(np.mean(np.argmax(p, axis=1) == y))


def mean_recall(pred_labels: np.ndarray, true_labels: np.ndarray) -> float:
    """Mean per-class recall over the classes present in ``true_labels``.

    Model selection scores validation sets with this directly, so a class
    missing from a small validation set is skipped rather than fatal. The
    labels are non-negative integers, at least one, of the predictions' shape.
    """
    if np.shape(pred_labels) != np.shape(true_labels):
        raise ValueError(f"expected predictions of shape {np.shape(true_labels)}, got {np.shape(pred_labels)}")
    if len(true_labels) == 0:
        raise ValueError("need at least one sample")
    counts = np.bincount(true_labels)
    hits = np.bincount(true_labels, weights=pred_labels == true_labels)
    present = counts > 0
    # Exact whole-number hits over counts: each recall is the per-class mean.
    return float(np.mean(hits[present] / counts[present]))


def balanced_accuracy(probs, labels) -> float:
    """Unweighted mean of the three per-class recalls; every class must be present."""
    p, y = _check_inputs(probs, labels, every_class=True)
    return mean_recall(np.argmax(p, axis=1), y)


def auc_binary(scores, targets) -> float:
    """Mann-Whitney AUC of ``scores`` against binary ``targets``.

    Computed from average ranks, which matches the all-pairs definition
    (win = 1, tie = 1/2) exactly, ties included. ±inf scores rank like
    any other value; NaN scores have no order and are rejected.
    """
    s = np.asarray(scores, dtype=np.float64)
    t = np.asarray(targets)
    if s.ndim != 1 or s.shape != t.shape:
        raise ValueError(f"scores and targets must be equal-length 1-D, got {s.shape} vs {t.shape}")
    if not np.isin(t, (0, 1)).all():
        raise ValueError("targets must be 0 or 1")
    t = t.astype(bool)
    n_pos = int(t.sum())
    n_neg = int(t.size - n_pos)
    if n_pos == 0 or n_neg == 0:
        raise ValueError("need at least one positive and one negative target")
    if np.isnan(s).any():
        raise ValueError("scores must not be NaN")
    # 1-based average rank of each tie group: its last rank minus half its extra members
    _, group, sizes = np.unique(s, return_inverse=True, return_counts=True)
    ranks = (np.cumsum(sizes) - (sizes - 1) / 2.0)[group]
    u = ranks[t].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


def average_auc(probs, labels) -> float:
    """Macro one-vs-rest AUC: mean over classes of AUC(p[:, c], y == c)."""
    p, y = _check_inputs(probs, labels, every_class=True)
    return float(np.mean([auc_binary(p[:, c], (y == c).astype(np.int64)) for c in CLASSES]))


def binary_task_metrics(probs, labels) -> tuple[float, float]:
    """Accuracy and AUC of the coarse task, scored by ``1 - p[0]``.

    The coarse target is 0 for fine class 0 and 1 otherwise. Accuracy
    thresholds the score at 0.5, an exact 0.5 predicting the positive
    class (equivalently: predict 0 only when p[0] > 0.5).
    """
    p, y = _check_inputs(probs, labels)
    z = (y != 0).astype(np.int64)
    if z.sum() == 0 or z.sum() == z.size:
        raise ValueError("both coarse classes must be present")
    score = 1.0 - p[:, 0]
    pred = (score >= 0.5).astype(np.int64)
    return float(np.mean(pred == z)), auc_binary(score, z)


def evaluate(probs, labels) -> MetricsReport:
    """All five metrics in one report; each metric function checks the inputs."""
    binary_acc, binary_auc_value = binary_task_metrics(probs, labels)
    return MetricsReport(
        accuracy=accuracy(probs, labels),
        balanced_accuracy=balanced_accuracy(probs, labels),
        average_auc=average_auc(probs, labels),
        binary_accuracy=binary_acc,
        binary_auc=binary_auc_value,
    )
