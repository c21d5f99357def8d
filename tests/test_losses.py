import math
import re

import numpy as np
import pytest

from curricula.data import class_onehot
from curricula.losses import (
    PROB_FLOOR,
    batch_combined_loss_grad,
    coarsen,
    combined_loss,
    combined_loss_grad,
    easy_loss,
    hard_loss,
    softmax,
)


def random_prob(rng):
    p = rng.dirichlet(np.ones(3))
    return np.clip(p, 1e-6, None) / np.clip(p, 1e-6, None).sum()


def fd_gradient(scores, y, lam, step=1e-6):
    """Central finite differences of combined_loss(softmax(scores))."""
    grad = np.zeros(3)
    for c in range(3):
        up = scores.copy()
        up[c] += step
        down = scores.copy()
        down[c] -= step
        grad[c] = (combined_loss(softmax(up), y, lam) - combined_loss(softmax(down), y, lam)) / (
            2 * step
        )
    return grad


def relative_error(a, b):
    denom = max(np.linalg.norm(a), np.linalg.norm(b), 1e-8)
    return np.linalg.norm(a - b) / denom


def test_coarsen():
    assert coarsen(0) == 0
    assert coarsen(1) == 1
    assert coarsen(2) == 1
    with pytest.raises(ValueError):
        coarsen(3)


def test_hard_loss_values():
    third = np.array([1 / 3, 1 / 3, 1 / 3])
    assert hard_loss(third, 1) == pytest.approx(-math.log(1 / 3), abs=1e-15)
    assert hard_loss(np.array([0.7, 0.2, 0.1]), 2) == pytest.approx(-math.log(0.1), abs=1e-15)
    # Clamp-ceiling confidence: loss is -log(1 - floor), i.e. zero up to the floor.
    assert hard_loss(np.array([0.0, 1.0, 0.0]), 1) == pytest.approx(0.0, abs=1e-11)
    assert hard_loss(np.array([1.0, 0.0, 0.0]), 1) == pytest.approx(-math.log(PROB_FLOOR))


def test_easy_loss_values():
    p = np.array([0.5, 0.3, 0.2])
    assert easy_loss(p, 0) == pytest.approx(math.log(2), abs=1e-15)
    assert easy_loss(p, 1) == pytest.approx(math.log(2), abs=1e-15)
    assert easy_loss(np.array([1.0, 0.0, 0.0]), 0) == pytest.approx(0.0, abs=1e-11)


def test_easy_loss_depends_only_on_p0():
    p = np.array([0.4, 0.35, 0.25])
    shifted = np.array([0.4, 0.1, 0.5])
    for z in (0, 1):
        assert easy_loss(p, z) == easy_loss(shifted, z)


def test_combined_endpoints_are_bit_exact():
    rng = np.random.default_rng(0)
    for _ in range(500):
        p = random_prob(rng)
        y = int(rng.integers(3))
        assert combined_loss(p, y, 0.0) == hard_loss(p, y)
        assert combined_loss(p, y, 1.0) == easy_loss(p, coarsen(y))


def test_combined_is_linear_in_weight():
    rng = np.random.default_rng(1)
    for _ in range(200):
        p = random_prob(rng)
        y = int(rng.integers(3))
        lam1, lam2, t = rng.uniform(size=3)
        blended = combined_loss(p, y, t * lam1 + (1 - t) * lam2)
        expected = t * combined_loss(p, y, lam1) + (1 - t) * combined_loss(p, y, lam2)
        assert blended == pytest.approx(expected, abs=1e-12)


def test_combined_hand_value():
    third = np.array([1 / 3, 1 / 3, 1 / 3])
    # With p0 = 1/3 and y = 0 the easy and hard terms coincide.
    assert combined_loss(third, 0, 0.5) == pytest.approx(-math.log(1 / 3), abs=1e-12)


def test_losses_nonnegative():
    rng = np.random.default_rng(2)
    for _ in range(300):
        p = random_prob(rng)
        y = int(rng.integers(3))
        lam = float(rng.uniform())
        assert hard_loss(p, y) >= 0.0
        assert easy_loss(p, coarsen(y)) >= 0.0
        assert combined_loss(p, y, lam) >= 0.0


def test_weight_out_of_range_rejected():
    p = np.array([0.5, 0.3, 0.2])
    for lam in (-0.1, 1.1, float("nan")):
        with pytest.raises(ValueError):
            combined_loss(p, 0, lam)
        with pytest.raises(ValueError):
            combined_loss_grad(np.zeros(3), 0, lam)


P = np.array([0.2, 0.3, 0.5])


@pytest.mark.parametrize(
    "function, args, message",
    [
        (hard_loss, (P, None), "fine label must be 0, 1, or 2, got None"),
        (hard_loss, (P, math.inf), "fine label must be 0, 1, or 2, got inf"),
        (hard_loss, (P, math.nan), "fine label must be 0, 1, or 2, got nan"),
        (hard_loss, (P, np.float64(1.5)), "fine label must be 0, 1, or 2, got np.float64(1.5)"),
        (hard_loss, (P, np.True_), "fine label must be 0, 1, or 2, got np.True_"),
        (hard_loss, (P, "1"), "fine label must be 0, 1, or 2, got '1'"),
        (coarsen, (True,), "fine label must be 0, 1, or 2, got True"),
        (coarsen, (3,), "fine label must be 0, 1, or 2, got 3"),
        (easy_loss, (P, None), "coarse label must be 0 or 1, got None"),
        (easy_loss, (P, 2), "coarse label must be 0 or 1, got 2"),
        (easy_loss, (P, False), "coarse label must be 0 or 1, got False"),
        (combined_loss, (P, 0, "0.5"), "curriculum weight must be a number, got '0.5'"),
        (combined_loss, (P, 0, True), "curriculum weight must be a number, got True"),
        (combined_loss, (P, 0, None), "curriculum weight must be a number, got None"),
        (combined_loss, (P, 0, np.float32(0.5)), "curriculum weight must be a number, got np.float32(0.5)"),
        (combined_loss, (P, 0, math.inf), "curriculum weight must be finite, got inf"),
        (combined_loss, (P, 0, 1.5), "curriculum weight must lie in [0, 1], got 1.5"),
        (combined_loss_grad, (np.zeros(3), 0, "0.5"), "curriculum weight must be a number, got '0.5'"),
        (combined_loss_grad, (np.zeros(3), None, 0.5), "fine label must be 0, 1, or 2, got None"),
        (combined_loss_grad, (np.zeros(2), 0, 0.5), "expected 3 scores, got shape (2,)"),
        (combined_loss_grad, (np.zeros((1, 3)), 0, 0.5), "expected 3 scores, got shape (1, 3)"),
    ],
    ids=lambda v: v.__name__ if callable(v) else None,
)
def test_scalar_references_name_a_bad_label_weight_or_score_shape(function, args, message):
    with pytest.raises(ValueError) as excinfo:
        function(*args)
    assert str(excinfo.value) == message


@pytest.mark.parametrize("function", [hard_loss, easy_loss, combined_loss])
@pytest.mark.parametrize(
    "p",
    [[0.2, 0.3], [], [0.2, 0.3, 0.5, 0.0], [[0.2, 0.3, 0.5]], [math.nan, 0.5, 0.5], [0.2, math.inf, 0.3],
     [2.0, 0.5, 0.5], [-0.1, 0.6, 0.5], ["0.2", "0.3", "0.5"], [True, False, False], None],
)
def test_scalar_references_take_only_three_probabilities(function, p):
    # Unchecked, these would raise IndexError or TypeError, or return NaN or a clamped loss.
    args = (p, 0) if function is not combined_loss else (p, 0, 0.5)
    with pytest.raises(ValueError) as excinfo:
        function(*args)
    assert str(excinfo.value) == f"p must be three probabilities in [0, 1], got {p!r}"


@pytest.mark.parametrize("p", [P, [0.2, 0.3, 0.5], (1, 0, 0), P.astype(np.float32), np.array([0.0, 1.0, 0.0])])
def test_every_kind_of_valid_argument_gives_the_bits_of_plain_floats(p):
    plain = [float(v) for v in p]
    for y in (0, 1, 2):
        expected = hard_loss(plain, y)
        for same in (np.int64(y), float(y), np.float32(y), np.uint8(y)):
            assert hard_loss(p, same) == expected
            assert coarsen(same) == coarsen(y)
        for lam in (0.0, 0.3, 1.0):
            expected = combined_loss(plain, y, lam)
            assert combined_loss(p, np.int64(y), np.float64(lam)) == expected
            scores = np.log(np.maximum(plain, PROB_FLOOR))
            expected = combined_loss_grad(scores, y, lam)
            np.testing.assert_array_equal(combined_loss_grad(scores, np.float32(y), np.float64(lam)), expected)
        assert combined_loss(p, y, -0.0) == combined_loss(plain, y, 0.0)


def test_grad_hand_values():
    zero = np.zeros(3)
    np.testing.assert_allclose(
        combined_loss_grad(zero, 1, 0.0), [1 / 3, -2 / 3, 1 / 3], atol=1e-15
    )
    np.testing.assert_allclose(
        combined_loss_grad(zero, 0, 1.0), [-2 / 3, 1 / 3, 1 / 3], atol=1e-15
    )


def test_grad_rejects_nonfinite_scores():
    with pytest.raises(ValueError):
        combined_loss_grad(np.array([0.0, np.inf, 0.0]), 0, 0.5)
    with pytest.raises(ValueError):
        combined_loss_grad(np.array([0.0, np.nan, 0.0]), 0, 0.5)


def test_grad_matches_finite_differences():
    rng = np.random.default_rng(3)
    for _ in range(1000):
        scores = rng.normal(scale=2.0, size=3)
        y = int(rng.integers(3))
        lam = float(rng.uniform())
        analytic = combined_loss_grad(scores, y, lam)
        assert relative_error(analytic, fd_gradient(scores, y, lam)) < 1e-4


def test_grad_components_sum_to_zero():
    rng = np.random.default_rng(4)
    for _ in range(300):
        scores = rng.normal(scale=3.0, size=3)
        y = int(rng.integers(3))
        lam = float(rng.uniform())
        assert abs(combined_loss_grad(scores, y, lam).sum()) < 1e-12


def test_batch_matches_scalar_ops():
    rng = np.random.default_rng(5)
    scores = rng.normal(scale=2.0, size=(64, 3))
    labels = rng.integers(3, size=64)
    lam = 0.37
    losses, grads = batch_combined_loss_grad(scores, class_onehot(labels), lam)
    for i in range(64):
        assert losses[i] == combined_loss(softmax(scores[i]), int(labels[i]), lam)
        np.testing.assert_array_equal(grads[i], combined_loss_grad(scores[i], int(labels[i]), lam))


def test_batch_input_validation():
    onehot = class_onehot(np.array([0, 1]))
    for lam in (-0.1, 1.1):
        with pytest.raises(ValueError, match=rf"^curriculum weight must lie in \[0, 1\], got {lam}$"):
            batch_combined_loss_grad(np.zeros((2, 3)), onehot, lam)
    with pytest.raises(ValueError, match="^curriculum weight must be finite, got nan$"):
        batch_combined_loss_grad(np.zeros((2, 3)), onehot, float("nan"))
    # The labels themselves are not a one-hot: class_onehot checks and builds it.
    with pytest.raises(ValueError, match=r"^expected scores and one-hot of shape \(2, 3\)"):
        batch_combined_loss_grad(np.zeros((2, 3)), np.array([0, 1]), 0.5)
    with pytest.raises(ValueError, match=r"^expected scores and one-hot of shape \(2, 3\)"):
        batch_combined_loss_grad(np.zeros((2, 2)), onehot, 0.5)
    with pytest.raises(ValueError, match=r"^expected scores and one-hot of shape \(2, 3\)"):
        batch_combined_loss_grad(np.zeros((3, 3)), onehot, 0.5)
    with pytest.raises(ValueError):
        batch_combined_loss_grad(np.full((2, 3), np.nan), onehot, 0.5)
    # One non-finite score anywhere fails. A row like [-inf, 0.3, 1.2] has a
    # finite softmax, so only a check on the scores themselves catches it.
    for bad in (np.nan, np.inf, -np.inf):
        for row in range(3):
            for col in range(3):
                scores = np.random.default_rng(3 * row + col).normal(size=(3, 3))
                scores[row, col] = bad
                with pytest.raises(ValueError, match="^scores must be finite$"):
                    batch_combined_loss_grad(scores, class_onehot(np.array([0, 1, 2])), 0.5)
    losses, grads = batch_combined_loss_grad(np.zeros((3, 3)), class_onehot(np.array([True, False, True])), 0.5)
    assert losses.shape == (3,) and grads.shape == (3, 3)


@pytest.mark.parametrize("lam", [0.0, 0.5])
@pytest.mark.parametrize("dtype", [np.int64, np.float64])
def test_batch_rejects_a_one_hot_that_is_not_bool(dtype, lam):
    # An int one-hot would gather whole rows as indices, and a float one
    # cannot index at all.
    onehot = np.eye(3, dtype=dtype)[[0, 1, 2, 1]]
    message = rf"^expected scores and one-hot of shape \(4, 3\), the one-hot bool, got \(4, 3\) and \(4, 3\) {dtype.__name__}$"
    with pytest.raises(ValueError, match=message):
        batch_combined_loss_grad(np.zeros((4, 3)), onehot, lam)


@pytest.mark.parametrize("lam", [0.0, 0.5])
def test_batch_rejects_a_one_hot_row_that_marks_no_class(lam):
    onehot = np.eye(3, dtype=bool)[[0, 1, 2, 1]]
    onehot[2] = False
    with pytest.raises(ValueError, match=r"^the one-hot must mark 4 classes, got 3$"):
        batch_combined_loss_grad(np.zeros((4, 3)), onehot, lam)


@pytest.mark.parametrize("shape", [(), (1,), (2,), (4,), (5, 1), (5, 2), (5, 4), (2, 2, 3)])
def test_softmax_rejects_any_shape_but_three_columns(shape):
    with pytest.raises(ValueError, match=rf"^expected scores of shape \(3,\) or \(n, 3\), got shape {re.escape(str(shape))}$"):
        softmax(np.zeros(shape))

