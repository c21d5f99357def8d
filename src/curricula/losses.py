"""Hard, easy, and blended classification losses with analytic gradients.

The hard task is the original three-class problem; the easy task is the
binary coarsening "class 0 vs. everything else". A sample's coarse label
is ``z = 0`` iff its fine label is 0, and the model's coarse probability
for ``z = 0`` is its class-0 probability, so

    hard(p, y)  = -log p[y]
    easy(p, z)  = -log p[0]        if z == 0
                  -log (1 - p[0])  if z == 1
    blended     = lam * easy + (1 - lam) * hard

Probabilities are clamped to ``[PROB_FLOOR, 1 - PROB_FLOOR]`` inside the
log so the losses stay finite at degenerate inputs.
"""

from __future__ import annotations

import math

import numpy as np

from .data import CLASSES

#: Probabilities are clamped to this floor (and 1 minus it) inside log terms.
PROB_FLOOR = 1e-12


def _check_fine_label(y: int) -> int:
    if isinstance(y, bool) or int(y) != y or int(y) not in CLASSES:
        raise ValueError(f"fine label must be 0, 1, or 2, got {y!r}")
    return int(y)


def _check_weight(lam: float) -> float:
    lam = float(lam)
    if not (0.0 <= lam <= 1.0) or math.isnan(lam):
        raise ValueError(f"curriculum weight must lie in [0, 1], got {lam}")
    return lam


def coarsen(y: int) -> int:
    """Coarse binary label: 0 for fine class 0, 1 for fine classes 1 and 2."""
    return 0 if _check_fine_label(y) == 0 else 1


def _clamp(p: float) -> float:
    return min(max(p, PROB_FLOOR), 1.0 - PROB_FLOOR)


def _neg_log(p: float) -> float:
    """``-log`` of the clamped probability.

    Uses ``np.log`` rather than ``math.log``: numpy's SIMD log can differ
    from the C library's by an ulp, and these scalar losses must stay
    bit-equal to ``batch_combined_loss_grad``, which logs whole arrays.
    """
    return -float(np.log(_clamp(p)))


def hard_loss(p, y: int) -> float:
    """Three-class cross entropy: ``-log p[y]``."""
    y = _check_fine_label(y)
    return _neg_log(float(p[y]))


def easy_loss(p, z: int) -> float:
    """Binary cross entropy on the coarse task, driven by ``p[0]`` only."""
    if isinstance(z, bool) or int(z) != z or int(z) not in (0, 1):
        raise ValueError(f"coarse label must be 0 or 1, got {z!r}")
    p0 = float(p[0])
    if int(z) == 0:
        return _neg_log(p0)
    return _neg_log(1.0 - p0)


def combined_loss(p, y: int, lam: float) -> float:
    """``lam * easy + (1 - lam) * hard``; the coarse label is derived from ``y``."""
    lam = _check_weight(lam)
    return lam * easy_loss(p, coarsen(y)) + (1.0 - lam) * hard_loss(p, y)


def softmax(scores: np.ndarray) -> np.ndarray:
    """Row-wise softmax, stabilised by subtracting the row maximum."""
    scores = np.asarray(scores, dtype=np.float64)
    shifted = scores - scores.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def combined_loss_grad(scores, y: int, lam: float) -> np.ndarray:
    """Gradient of ``combined_loss(softmax(scores), y, lam)`` w.r.t. ``scores``.

    With ``p = softmax(scores)`` the hard part is ``p - onehot(y)``. The easy
    part is ``p - onehot(0)`` when the coarse label is 0, and
    ``p0 / (1 - p0) * (onehot(0) - p)`` when it is 1. Components always sum
    to zero (softmax is shift invariant).
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.shape != (3,):
        raise ValueError(f"expected 3 scores, got shape {scores.shape}")
    if not np.all(np.isfinite(scores)):
        raise ValueError("scores must be finite")
    y = _check_fine_label(y)
    lam = _check_weight(lam)

    p = softmax(scores)
    onehot_y = np.zeros(3)
    onehot_y[y] = 1.0
    grad_hard = p - onehot_y

    onehot_0 = np.array([1.0, 0.0, 0.0])
    if coarsen(y) == 0:
        grad_easy = p - onehot_0
    else:
        # Clamp the denominator like the loss does; at the floor the loss is
        # flat but we keep the unclamped direction.
        grad_easy = p[0] / max(1.0 - p[0], PROB_FLOOR) * (onehot_0 - p)

    return lam * grad_easy + (1.0 - lam) * grad_hard


def _clamp_array(p: np.ndarray) -> np.ndarray:
    # minimum(maximum(...)) is what _clamp does, without np.clip's overhead.
    return np.minimum(np.maximum(p, PROB_FLOOR), 1.0 - PROB_FLOOR)


def _check_fine_labels(labels: np.ndarray) -> np.ndarray:
    """Fine labels as int64 indices; raises unless each is 0, 1 or 2."""
    if labels.dtype.kind in "iu":
        # Integers need only a range check, which min/max do in one pass each.
        ok = labels.size == 0 or (labels.min() >= 0 and labels.max() <= 2)
    else:
        # Floats (1.5 must fail) and bools keep the exact membership test.
        ok = np.isin(labels, CLASSES).all()
    if not ok:
        raise ValueError("labels must be 0, 1, or 2")
    return labels.astype(np.int64, copy=False)


def batch_combined_loss_grad(scores: np.ndarray, labels: np.ndarray, lam: float) -> tuple[np.ndarray, np.ndarray]:
    """Vectorised per-sample losses and score gradients for a batch.

    ``scores`` has shape (n, 3) and ``labels`` shape (n,). Returns the
    per-sample blended losses (n,) and the per-sample gradients (n, 3).
    Every call validates its inputs and raises ``ValueError`` unless
    ``lam`` lies in [0, 1], ``labels`` is one-dimensional with every
    entry 0, 1 or 2 (integer, float or bool dtype), and ``scores`` is a
    finite (n, 3) array. Both outputs are bit-equal, sample by sample, to
    ``combined_loss(softmax(scores[i]), labels[i], lam)`` and
    ``combined_loss_grad(scores[i], labels[i], lam)``: each element goes
    through the same floating-point operations in the same order.
    """
    lam = _check_weight(lam)
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if labels.ndim != 1:
        raise ValueError(f"labels must be one-dimensional, got shape {labels.shape}")
    n = labels.shape[0]
    if scores.shape != (n, 3):
        raise ValueError(f"expected scores of shape ({n}, 3), got {scores.shape}")
    if not np.isfinite(scores).all():
        raise ValueError("scores must be finite")
    labels = _check_fine_labels(labels)
    rows = np.arange(n)
    coarse = labels != 0

    p = softmax(scores)
    p0 = p[:, 0]
    hard = -np.log(_clamp_array(p[rows, labels]))
    easy = -np.log(_clamp_array(np.where(coarse, 1.0 - p0, p0)))
    losses = lam * easy + (1.0 - lam) * hard

    # p - onehot(y), written as a copy of p with 1 taken off at y.
    grad_hard = p.copy()
    grad_hard[rows, labels] -= 1.0
    # onehot(0) - p; 0.0 - p keeps +0.0 where p is 0, as the scalar op does.
    to_class_0 = 0.0 - p
    to_class_0[:, 0] = 1.0 - p0
    ratio = p0 / np.maximum(1.0 - p0, PROB_FLOOR)
    # For label 0 the easy gradient p - onehot(0) is grad_hard itself.
    grad_easy = np.where(coarse[:, None], ratio[:, None] * to_class_0, grad_hard)

    grads = lam * grad_easy + (1.0 - lam) * grad_hard
    return losses, grads
