"""Curriculum weight schedulers.

A scheduler maps the current epoch ``e`` to a weight ``lambda`` in [0, 1]
that blends the easy (binary) loss against the hard (three-class) loss.
Every kind starts at ``lambda = 1`` (pure easy task) and is identically 0
from the switch epoch onward (pure hard task). Closed forms on
``0 <= e < switch_epoch``, with ``t = e / switch_epoch``:

    cosine             (cos(pi * t) + 1) / 2
    linear             1 - t
    concave_quadratic  1 - t^2
    convex_quadratic   (1 - t)^2
    exponential        floor^t            (floor defaults to 1e-3)
    logarithm          log(1 + switch_epoch - e) / log(1 + switch_epoch)
    step               1

``constant_zero`` returns 0 at every epoch; it exists so a plain
hard-task baseline runs through the same training path as the
scheduled arms.

No weight depends on the total epoch count: a spec does not hold it, and
``schedule(spec, epochs)`` takes it from the caller.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ._checks import real, whole

# Each kind's weight on 0 <= e < L, in the closed forms above; every kind is
# 0 from the switch epoch L on. The baseline is listed last.
_FORMS = {
    "cosine": lambda e, L, floor: (math.cos(e / L * math.pi) + 1.0) / 2.0,
    "linear": lambda e, L, floor: 1.0 - e / L,
    "concave_quadratic": lambda e, L, floor: 1.0 - (e / L) * (e / L),
    "convex_quadratic": lambda e, L, floor: (e - L) ** 2 / L**2,
    "exponential": lambda e, L, floor: floor ** (e / L),
    "logarithm": lambda e, L, floor: math.log(1.0 + L - e) / math.log(1.0 + L),
    "step": lambda e, L, floor: 1.0,
    "constant_zero": lambda e, L, floor: 0.0,
}

KINDS = tuple(_FORMS)

#: Kinds that actually schedule a curriculum (everything but the baseline).
CURRICULUM_KINDS = KINDS[:-1]

DEFAULT_EXP_FLOOR = 1e-3


@dataclass(frozen=True)
class SchedulerSpec:
    """A scheduler kind plus its hyperparameters.

    ``switch_epoch`` is the first epoch with weight 0; ``exp_floor``, which only
    the exponential kind takes, is the terminal value it decays toward (1e-3
    if unset). The epoch count is not part of a spec (see ``schedule``).
    """

    kind: str
    switch_epoch: int
    exp_floor: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {', '.join(KINDS)}, got {self.kind!r}")
        whole(self.switch_epoch, "switch_epoch", 1)
        if self.exp_floor is None:
            object.__setattr__(self, "exp_floor", DEFAULT_EXP_FLOOR if self.kind == "exponential" else None)
            return
        object.__setattr__(self, "exp_floor", real(self.exp_floor, "exp_floor"))
        if not (0.0 < self.exp_floor < 1.0):
            raise ValueError(f"exp_floor must lie in (0, 1), got {self.exp_floor}")
        if self.kind != "exponential":  # no other kind reads it
            raise ValueError(f"exp_floor applies only to the exponential kind, got kind {self.kind!r}")


def default_switch_epoch(epochs: int) -> int:
    """Half the training budget, rounded down (used when a config omits it)."""
    return max(1, epochs // 2)


def lambda_at(spec: SchedulerSpec, epoch: int) -> float:
    """Curriculum weight at ``epoch`` for the given spec.

    The weight is held fixed for all batches within an epoch. Raises
    ``ValueError`` unless ``epoch`` is a non-negative integer.
    """
    whole(epoch, "epoch", 0)
    if epoch >= spec.switch_epoch:
        return 0.0
    return _FORMS[spec.kind](epoch, spec.switch_epoch, spec.exp_floor)


def schedule(spec: SchedulerSpec, epochs: int) -> list[float]:
    """The per-epoch weights ``[lambda(0), ..., lambda(epochs - 1)]`` for an int ``epochs >= 0``."""
    whole(epochs, "epochs", 0)
    return [lambda_at(spec, e) for e in range(epochs)]
