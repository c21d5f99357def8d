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

import numpy as np

from ._checks import real
from .data import CLASSES

#: Probabilities are clamped to this floor (and 1 minus it) inside log terms.
PROB_FLOOR = 1e-12


def _label(y, rule: str = "fine label must be 0, 1, or 2", classes: tuple = CLASSES) -> int:
    """``int(y)``, if ``y`` is an int, float or numpy number (not a bool) equal to one of ``classes``."""
    if type(y) is bool or not isinstance(y, (int, float, np.integer, np.floating)) or y not in classes:
        raise ValueError(f"{rule}, got {y!r}")
    return int(y)


def _check_weight(lam: float) -> float:
    lam = real(lam, "curriculum weight")
    if not (0.0 <= lam <= 1.0):
        raise ValueError(f"curriculum weight must lie in [0, 1], got {lam}")
    return lam


def coarsen(y: int) -> int:
    """Coarse binary label: 0 for fine class 0, 1 for fine classes 1 and 2."""
    return 0 if _label(y) == 0 else 1


def _clamp(p: float) -> float:
    return min(max(p, PROB_FLOOR), 1.0 - PROB_FLOOR)


def _neg_log(p: float) -> float:
    """``-log`` of the clamped probability.

    Uses ``np.log`` rather than ``math.log``: numpy's SIMD log can differ
    from the C library's by an ulp, and these scalar losses must stay
    bit-equal to ``batch_combined_loss_grad``, which logs whole arrays.
    """
    return -float(np.log(_clamp(p)))


def _probabilities(p) -> np.ndarray:
    """``p`` as an array, if it holds three real numbers in [0, 1] (NaN is not one)."""
    a = np.asarray(p)
    if a.shape != (3,) or a.dtype.kind not in "iuf" or not ((a >= 0) & (a <= 1)).all():
        raise ValueError(f"p must be three probabilities in [0, 1], got {p!r}")
    return a


def hard_loss(p, y: int) -> float:
    """Three-class cross entropy: ``-log p[y]``."""
    y = _label(y)
    return _neg_log(float(_probabilities(p)[y]))


def easy_loss(p, z: int) -> float:
    """Binary cross entropy on the coarse task, driven by ``p[0]`` only."""
    z = _label(z, "coarse label must be 0 or 1", (0, 1))
    p0 = float(_probabilities(p)[0])
    return _neg_log(p0 if z == 0 else 1.0 - p0)


def combined_loss(p, y: int, lam: float) -> float:
    """``lam * easy + (1 - lam) * hard``; the coarse label is derived from ``y``."""
    lam = _check_weight(lam)
    return lam * easy_loss(p, coarsen(y)) + (1.0 - lam) * hard_loss(p, y)


def softmax(scores: np.ndarray) -> np.ndarray:
    """Softmax over the last axis of a (3,) or (n, 3) array, stabilised by the
    maximum. Written for three columns without reduction calls, so the sum is
    ``(e0 + e1) + e2``; any other shape raises ``ValueError``."""
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim not in (1, 2) or scores.shape[-1] != 3:
        raise ValueError(f"expected scores of shape (3,) or (n, 3), got shape {scores.shape}")
    e = scores - np.maximum(np.maximum(scores[..., 0], scores[..., 1]), scores[..., 2])[..., None]
    np.exp(e, out=e)
    total = e[..., 0] + e[..., 1]
    total += e[..., 2]
    e /= total[..., None]
    return e


#: onehot(0) as a row: ``_CLASS_0 - p`` is ``onehot(0) - p`` for every row.
_CLASS_0 = np.array([1.0, 0.0, 0.0])


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
    y = _label(y)
    lam = _check_weight(lam)

    p = softmax(scores)
    onehot_y = np.zeros(3)
    onehot_y[y] = 1.0
    grad_hard = p - onehot_y

    if coarsen(y) == 0:
        grad_easy = p - _CLASS_0
    else:
        # Clamp the denominator like the loss does; at the floor the loss is
        # flat but we keep the unclamped direction.
        grad_easy = p[0] / max(1.0 - p[0], PROB_FLOOR) * (_CLASS_0 - p)

    return lam * grad_easy + (1.0 - lam) * grad_hard


def batch_combined_loss_grad(scores: np.ndarray, onehot: np.ndarray, lam: float) -> tuple[np.ndarray, np.ndarray]:
    """Vectorised per-sample losses and score gradients for a batch.

    ``scores`` has shape (n, 3) and ``onehot`` is the bool (n, 3) one-hot
    from ``data.class_onehot``, whose contract is one mark per row (a check
    here would cost a reduction per batch). Returns the per-sample blended
    losses (n,) and gradients (n, 3); every step computes the hard ones, and
    ``lam == 0`` returns them. A call raises ``ValueError`` unless ``lam``
    lies in [0, 1], ``scores`` is a finite array of the one-hot's (n, 3)
    shape and the one-hot is bool with ``n`` marks. Sample i's outputs are
    bit-equal to ``combined_loss(softmax(scores[i]), labels[i], lam)`` and
    ``combined_loss_grad(scores[i], labels[i], lam)``: each element goes
    through the same floating-point operations in the same order.
    """
    lam = _check_weight(lam)
    scores = np.asarray(scores, dtype=np.float64)
    n = len(onehot)
    if scores.shape != (n, 3) or onehot.shape != (n, 3) or onehot.dtype != bool:
        got = f"got {scores.shape} and {onehot.shape} {onehot.dtype}"
        raise ValueError(f"expected scores and one-hot of shape ({n}, 3), the one-hot bool, {got}")
    if not np.logical_and.reduce(np.isfinite(scores), axis=None):
        raise ValueError("scores must be finite")

    p = softmax(scores)
    p0 = p[:, 0]
    # The hard terms: -log p[y] clamped, and p - onehot (bool casts to 1.0 and 0.0).
    hard = p[onehot]
    if len(hard) != n:
        raise ValueError(f"the one-hot must mark {n} classes, got {len(hard)}")
    np.minimum(np.maximum(hard, PROB_FLOOR, out=hard), 1.0 - PROB_FLOOR, out=hard)
    np.negative(np.log(hard, out=hard), out=hard)
    grads = p - onehot
    if lam == 0.0:
        # The blended form's bits: its easy half adds +0.0 to each loss (a negative
        # log at weight -0.0) and ±0.0 to each gradient (p - onehot is never -0.0).
        return hard, grads

    # The coarse probability is 1 - p0, or p0 at label 0. The ratio's denominator is
    # clamped as in the loss; at the floor the loss is flat, but the direction is kept.
    losses = 1.0 - p0
    ratio = p0 / np.maximum(losses, PROB_FLOOR)
    np.copyto(losses, p0, where=onehot[:, 0])
    np.minimum(np.maximum(losses, PROB_FLOOR, out=losses), 1.0 - PROB_FLOOR, out=losses)
    np.log(losses, out=losses)
    # log * -lam and (1 - lam) * -log are the scalar products: negation is exact.
    losses *= -lam
    hard *= 1.0 - lam
    losses += hard

    # onehot(0) - p, over p; the 0.0 - p it takes keeps +0.0 where p is 0, as
    # the scalar op does.
    grad_easy = np.subtract(_CLASS_0, p, out=p)
    grad_easy *= ratio[:, None]
    # For label 0 the easy gradient p - onehot(0) is the hard one itself.
    np.copyto(grad_easy, grads, where=onehot[:, :1])
    grad_easy *= lam
    grads *= 1.0 - lam
    grads += grad_easy
    return losses, grads
