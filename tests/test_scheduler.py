import csv
import dataclasses
import math
from pathlib import Path

import pytest

from curricula.scheduler import (
    CURRICULUM_KINDS,
    DEFAULT_EXP_FLOOR,
    KINDS,
    SchedulerSpec,
    default_switch_epoch,
    lambda_at,
    schedule,
)

# Reference closed forms on 0 <= e < L, written out independently of the
# implementation. t = e / L.
REFERENCE_FORMS = {
    "cosine": lambda e, L, eps: (math.cos(e * math.pi / L) + 1.0) / 2.0,
    "linear": lambda e, L, eps: 1.0 - e / L,
    "concave_quadratic": lambda e, L, eps: -((e / L) ** 2) + 1.0,
    "convex_quadratic": lambda e, L, eps: (e - L) ** 2 / L**2,
    "exponential": lambda e, L, eps: eps ** (e / L),
    "logarithm": lambda e, L, eps: math.log(1.0 + L - e) / math.log(1.0 + L),
    "step": lambda e, L, eps: 1.0,
}


def spec(kind, L=10, eps=1e-3):
    return SchedulerSpec(kind=kind, switch_epoch=L, exp_floor=eps if kind == "exponential" else None)


@pytest.mark.parametrize("kind", CURRICULUM_KINDS)
def test_starts_at_one(kind):
    assert lambda_at(spec(kind), 0) == 1.0


def test_constant_zero_is_zero_everywhere():
    s = spec("constant_zero")
    assert all(lambda_at(s, e) == 0.0 for e in range(21))


@pytest.mark.parametrize(
    "kind,e,expected",
    [
        ("linear", 10, 0.0),
        ("linear", 5, 0.5),
        ("cosine", 5, 0.5),
        ("exponential", 5, (1e-3) ** 0.5),
        ("convex_quadratic", 5, 0.25),
        ("step", 9, 1.0),
    ],
)
def test_pinned_values(kind, e, expected):
    assert lambda_at(spec(kind), e) == pytest.approx(expected, abs=1e-15)


@pytest.mark.parametrize("kind", KINDS)
def test_zero_from_switch_epoch_onward(kind):
    s = spec(kind, L=7)
    for e in range(7, 20):
        assert lambda_at(s, e) == 0.0
    if kind != "constant_zero":
        for e in range(0, 7):
            assert lambda_at(s, e) > 0.0


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("L,E", [(1, 1), (1, 5), (10, 10), (10, 20), (37, 100), (100, 100)])
def test_range_and_monotonicity(kind, L, E):
    s = spec(kind, L=L)
    values = [lambda_at(s, e) for e in range(E + 1)]
    assert all(0.0 <= v <= 1.0 for v in values)
    assert all(a >= b for a, b in zip(values, values[1:]))


@pytest.mark.parametrize("kind", [k for k in CURRICULUM_KINDS if k != "step"])
def test_strictly_decreasing_before_switch(kind):
    s = spec(kind, L=50)
    values = [lambda_at(s, e) for e in range(0, 51)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_pointwise_ordering_between_kinds():
    L = 100
    for e in (L // 4, L // 2, 3 * L // 4):
        concave = lambda_at(spec("concave_quadratic", L), e)
        linear = lambda_at(spec("linear", L), e)
        convex = lambda_at(spec("convex_quadratic", L), e)
        logarithm = lambda_at(spec("logarithm", L), e)
        exponential = lambda_at(spec("exponential", L), e)
        assert concave >= linear >= convex
        assert logarithm >= linear
        assert exponential <= linear


@pytest.mark.parametrize("kind", CURRICULUM_KINDS)
@pytest.mark.parametrize("L,E,eps", [(333, 1000, 1e-3), (100, 250, 1e-2), (7, 1000, 1e-3)])
def test_closed_form_agreement(kind, L, E, eps):
    s = spec(kind, L=L, eps=eps)
    form = REFERENCE_FORMS[kind]
    for e in range(0, E + 1, max(1, E // 1000)):
        expected = form(e, L, eps) if e < L else 0.0
        assert abs(lambda_at(s, e) - expected) <= 1e-12


def test_schedule_covers_training_epochs():
    s = spec("linear", L=4)
    values = schedule(s, 8)
    assert len(values) == 8
    assert values == [lambda_at(s, e) for e in range(8)]


def test_schedule_rejects_an_epoch_count_that_is_not_a_whole_number():
    s = spec("linear", L=4)
    assert schedule(s, 0) == []
    with pytest.raises(ValueError, match=r"^epochs must be at least 0, got -1$"):
        schedule(s, -1)
    for bad in (True, 2.0, "3"):
        with pytest.raises(ValueError, match=r"^epochs must be an integer, got "):
            schedule(s, bad)


def test_default_switch_epoch_is_half_the_budget():
    assert default_switch_epoch(100) == 50
    assert default_switch_epoch(101) == 50
    assert default_switch_epoch(1) == 1


def test_epoch_out_of_range_rejected():
    s = spec("linear", L=10)
    with pytest.raises(ValueError, match="^epoch must be at least 0, got -1$"):
        lambda_at(s, -1)
    for bad in (1.5, 2.0, True):
        with pytest.raises(ValueError) as excinfo:
            lambda_at(s, bad)
        assert str(excinfo.value) == f"epoch must be an integer, got {bad!r}"
    # no upper bound: the epoch count is the caller's, and every epoch past L weighs 0
    assert lambda_at(s, 21) == 0.0


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(kind="sawtooth", switch_epoch=10),
        dict(kind="linear", switch_epoch=0),
        dict(kind="linear", switch_epoch=True),
        dict(kind="exponential", switch_epoch=10, exp_floor=0.0),
        dict(kind="exponential", switch_epoch=10, exp_floor=1.0),
        dict(kind="exponential", switch_epoch=10, exp_floor="x"),
    ],
)
def test_invalid_specs_rejected(kwargs):
    with pytest.raises(ValueError):
        SchedulerSpec(**kwargs)


@pytest.mark.parametrize("kind", [kind for kind in KINDS if kind != "exponential"])
def test_only_the_exponential_kind_takes_a_floor(kind):
    with pytest.raises(ValueError) as excinfo:
        SchedulerSpec(kind, 4, exp_floor=0.5)
    assert str(excinfo.value) == f"exp_floor applies only to the exponential kind, got kind {kind!r}"


def test_the_floor_defaults_for_the_exponential_kind_only():
    assert SchedulerSpec("exponential", 4).exp_floor == DEFAULT_EXP_FLOOR == 1e-3
    assert SchedulerSpec("exponential", 4, exp_floor=None).exp_floor == 1e-3
    for kind in KINDS:
        if kind != "exponential":
            assert SchedulerSpec(kind, 4).exp_floor is None, kind
    # so a spec of another kind can be replaced field by field
    assert dataclasses.replace(SchedulerSpec("linear", 4), switch_epoch=2) == SchedulerSpec("linear", 2)


def test_every_kind_matches_its_golden_weights_bit_for_bit():
    """``tests/golden/schedules.csv`` holds ``schedule(spec, epochs)`` for every
    kind at (epochs 10, L 6) and (epochs 100, L 50), each weight as ``float.hex``.

    The comparison is exact: a rewrite that moves one weight by one ulp (say
    ``math.log1p(L - e)`` for ``logarithm``) fails here, though it passes every
    tolerance above. The weights depend on the host's libm: ``math.cos``,
    ``math.log`` and ``**`` (``pow``) call the C library, which IEEE 754 does
    not require to round correctly. If the file differs on another libm,
    report that; the comparison stays exact.
    """
    golden: dict[tuple[str, int], list[str]] = {}
    with open(Path(__file__).parent / "golden" / "schedules.csv", newline="") as fh:
        for row in csv.DictReader(fh):
            weights = golden.setdefault((row["kind"], int(row["L"])), [])
            assert int(row["epoch"]) == len(weights)
            weights.append(row["lambda"])
    assert sorted(golden) == sorted((kind, L) for kind in KINDS for L in (6, 50))
    for (kind, L), weights in golden.items():
        assert [w.hex() for w in schedule(spec(kind, L=L), len(weights))] == weights, (kind, L)
