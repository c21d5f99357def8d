import dataclasses

import numpy as np
import pytest

from curricula.metrics import (
    METRIC_NAMES,
    MetricsReport,
    accuracy,
    auc_binary,
    average_auc,
    balanced_accuracy,
    binary_task_metrics,
    evaluate,
    mean_recall,
)
from curricula.model import ModelParams, predict_proba_batch


def pairwise_auc(scores, targets):
    """O(n^2) oracle: mean over positive-negative pairs of win/tie credit."""
    scores = np.asarray(scores, dtype=np.float64)
    targets = np.asarray(targets).astype(bool)
    pos = scores[targets]
    neg = scores[~targets]
    credit = (pos[:, None] > neg[None, :]) + 0.5 * (pos[:, None] == neg[None, :])
    return float(credit.sum() / (len(pos) * len(neg)))


def random_probs(rng, n):
    return rng.dirichlet(np.ones(3), size=n)


class TestAccuracy:
    def test_perfect(self):
        probs = np.tile([1.0, 0.0, 0.0], (4, 1))
        assert accuracy(probs, [0, 0, 0, 0]) == 1.0

    def test_half_right(self):
        probs = np.array([[0.2, 0.5, 0.3], [0.6, 0.2, 0.2]])
        assert accuracy(probs, [1, 2]) == 0.5

    def test_argmax_ties_break_to_lowest_index(self):
        probs = np.tile([1 / 3, 1 / 3, 1 / 3], (5, 1))
        assert accuracy(probs, [2] * 5) == 0.0
        assert accuracy(probs, [0] * 5) == 1.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            accuracy(np.ones((2, 3)) / 3, [0])


class TestBalancedAccuracy:
    def test_perfect(self):
        probs = np.eye(3)
        assert balanced_accuracy(probs, [0, 1, 2]) == 1.0

    def test_always_class_zero(self):
        probs = np.tile([0.8, 0.1, 0.1], (6, 1))
        assert balanced_accuracy(probs, [0, 0, 1, 1, 2, 2]) == pytest.approx(1 / 3)

    def test_equals_accuracy_on_balanced_labels(self):
        rng = np.random.default_rng(0)
        labels = np.repeat([0, 1, 2], 40)
        probs = random_probs(rng, len(labels))
        assert balanced_accuracy(probs, labels) == pytest.approx(
            accuracy(probs, labels), abs=1e-12
        )

    def test_absent_class_named_in_error(self):
        probs = np.ones((4, 3)) / 3
        with pytest.raises(ValueError, match="class 2"):
            balanced_accuracy(probs, [0, 0, 1, 1])


class TestMeanRecall:
    def test_absent_class_averages_present_classes(self):
        # validation labels without class 2: recalls 1 (class 0) and 1/2 (class 1)
        true = np.array([0, 0, 1, 1])
        pred = np.array([0, 0, 1, 2])
        assert mean_recall(pred, true) == 0.75
        with pytest.raises(ValueError, match="class 2"):
            balanced_accuracy(np.eye(3)[pred], true)

    def test_bit_equal_to_balanced_accuracy_when_all_classes_present(self):
        rng = np.random.default_rng(3)
        for n in (3, 10, 97):
            labels = rng.integers(3, size=n)
            labels[:3] = [0, 1, 2]
            probs = random_probs(rng, n)
            assert mean_recall(np.argmax(probs, axis=1), labels) == balanced_accuracy(probs, labels)

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError, match="^need at least one sample$"):
            mean_recall(np.array([], dtype=np.int64), np.array([], dtype=np.int64))

    def test_predictions_of_another_shape_rejected(self):
        # numpy would broadcast a single prediction against every label
        with pytest.raises(ValueError, match=r"^expected predictions of shape \(4,\), got \(1,\)$"):
            mean_recall(np.array([0]), np.array([0, 0, 1, 1]))
        with pytest.raises(ValueError, match=r"^expected predictions of shape \(2,\), got \(2, 1\)$"):
            mean_recall(np.array([[0], [1]]), np.array([0, 1]))

    def test_model_selection_uses_the_same_definition(self):
        import curricula.metrics
        import curricula.model

        assert curricula.model.mean_recall is curricula.metrics.mean_recall


class TestAucBinary:
    def test_perfect_ranking(self):
        assert auc_binary([0.9, 0.1], [1, 0]) == 1.0

    def test_all_ties(self):
        assert auc_binary([0.5, 0.5, 0.5, 0.5], [1, 0, 1, 0]) == 0.5

    def test_hand_value(self):
        assert auc_binary([0.8, 0.6, 0.4, 0.2], [1, 0, 1, 0]) == 0.75

    def test_matches_pairwise_oracle_exactly(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            n = int(rng.integers(2, 200))
            # integer grids force plenty of ties
            scores = rng.integers(0, max(2, n // 4), size=n).astype(float)
            targets = rng.integers(0, 2, size=n)
            if targets.sum() in (0, n):
                targets[0] = 1 - targets[0]
            assert auc_binary(scores, targets) == pairwise_auc(scores, targets)
            # the same inputs with some scores at +-inf, which rank like any other value
            scores[::7], scores[3::7] = np.inf, -np.inf
            assert auc_binary(scores, targets) == pairwise_auc(scores, targets)

    def test_invariant_under_increasing_transforms(self):
        rng = np.random.default_rng(2)
        scores = rng.normal(size=100)
        targets = rng.integers(0, 2, size=100)
        targets[0], targets[1] = 0, 1
        base = auc_binary(scores, targets)
        assert auc_binary(3.0 * scores + 7.0, targets) == base
        assert auc_binary(scores**3, targets) == base

    def test_nan_score_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            auc_binary([np.nan, 0.2, 0.7], [0, 1, 1])

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            auc_binary([0.1, 0.2], [1, 1])
        with pytest.raises(ValueError):
            auc_binary([0.1, 0.2], [0, 0])


class TestAverageAuc:
    def test_perfectly_separated(self):
        probs = np.array([[0.8, 0.1, 0.1], [0.1, 0.8, 0.1], [0.1, 0.1, 0.8]])
        assert average_auc(probs, [0, 1, 2]) == 1.0

    def test_matches_per_class_oracle(self):
        rng = np.random.default_rng(3)
        labels = rng.integers(0, 3, size=150)
        labels[:3] = [0, 1, 2]
        probs = random_probs(rng, 150)
        expected = np.mean(
            [pairwise_auc(probs[:, c], (labels == c).astype(int)) for c in range(3)]
        )
        assert average_auc(probs, labels) == pytest.approx(expected, abs=0)

    def test_absent_class_named_in_error(self):
        # the first absent class, found before any one-vs-rest AUC is taken
        probs = np.ones((4, 3)) / 3
        for labels, absent in (([0, 0, 1, 1], 2), ([0, 0, 0, 0], 1), ([2, 1, 2, 1], 0)):
            with pytest.raises(ValueError, match=f"^class {absent} is absent from labels$"):
                average_auc(probs, labels)
            with pytest.raises(ValueError, match=f"^class {absent} is absent from labels$"):
                balanced_accuracy(probs, labels)

    def test_random_labels_near_half(self):
        rng = np.random.default_rng(4)
        probs = random_probs(rng, 1000)
        labels = rng.integers(0, 3, size=1000)
        assert average_auc(probs, labels) == pytest.approx(0.5, abs=0.05)


class TestBinaryTask:
    def test_threshold_decisions(self):
        # score 0.4 < 0.5 predicts coarse 0; correct for y = 0
        acc, _ = binary_task_metrics(np.array([[0.6, 0.2, 0.2], [0.2, 0.4, 0.4]]), [0, 2])
        assert acc == 1.0
        # an exact 0.5 score predicts coarse 1
        acc, _ = binary_task_metrics(np.array([[0.5, 0.25, 0.25], [0.1, 0.4, 0.5]]), [0, 1])
        assert acc == 0.5

    def test_perfect_ranking_via_p0(self):
        probs = np.array([[0.9, 0.05, 0.05], [0.8, 0.1, 0.1], [0.3, 0.4, 0.3], [0.2, 0.1, 0.7]])
        _, auc = binary_task_metrics(probs, [0, 0, 1, 2])
        assert auc == 1.0

    def test_single_coarse_class_rejected(self):
        with pytest.raises(ValueError):
            binary_task_metrics(np.ones((3, 3)) / 3, [1, 2, 1])
        with pytest.raises(ValueError):
            binary_task_metrics(np.ones((3, 3)) / 3, [0, 0, 0])


def swap_classes_1_2(probs, labels):
    swapped_probs = probs[:, [0, 2, 1]]
    swapped_labels = np.where(labels == 1, 2, np.where(labels == 2, 1, labels))
    return swapped_probs, swapped_labels


def test_label_permutation_symmetry():
    rng = np.random.default_rng(5)
    labels = rng.integers(0, 3, size=200)
    labels[:3] = [0, 1, 2]
    probs = random_probs(rng, 200)  # continuous, so argmax ties have measure zero
    swapped_probs, swapped_labels = swap_classes_1_2(probs, labels)

    assert accuracy(swapped_probs, swapped_labels) == accuracy(probs, labels)
    assert balanced_accuracy(swapped_probs, swapped_labels) == pytest.approx(
        balanced_accuracy(probs, labels), abs=1e-12
    )
    assert average_auc(swapped_probs, swapped_labels) == pytest.approx(
        average_auc(probs, labels), abs=1e-12
    )
    assert binary_task_metrics(swapped_probs, swapped_labels) == binary_task_metrics(probs, labels)


def test_fine_correctness_implies_binary_correctness_when_sides_agree():
    rng = np.random.default_rng(6)
    labels = rng.integers(0, 3, size=500)
    probs = random_probs(rng, 500)
    pred = np.argmax(probs, axis=1)
    coarse_pred_from_fine = (pred != 0).astype(int)
    coarse_pred_from_threshold = (1.0 - probs[:, 0] >= 0.5).astype(int)
    z = (labels != 0).astype(int)
    agree = coarse_pred_from_fine == coarse_pred_from_threshold
    fine_correct = pred == labels
    binary_correct = coarse_pred_from_threshold == z
    assert np.all(binary_correct[agree & fine_correct])


def test_all_metrics_in_unit_interval():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(10, 60))
        labels = rng.integers(0, 3, size=n)
        labels[:3] = [0, 1, 2]
        report = evaluate(random_probs(rng, n), labels)
        for name in METRIC_NAMES:
            assert 0.0 <= getattr(report, name) <= 1.0


@pytest.mark.parametrize("metric", [accuracy, balanced_accuracy, average_auc, binary_task_metrics, evaluate])
@pytest.mark.parametrize("bad", [1.5, np.nan, -1, 3])
def test_labels_outside_the_classes_rejected_before_any_cast(metric, bad):
    # As int64, 1.5 would pass as 1 and NaN would warn in the cast.
    labels = np.array([0, bad, 2, 1, 0, 2])
    with pytest.raises(ValueError, match="^labels must be 0, 1, or 2$"):
        metric(np.full((6, 3), 1 / 3), labels)


@pytest.mark.parametrize(
    "metric, args, message",
    [
        (accuracy, (np.ones((2, 2)) / 2, [0, 1]), "probs must have shape (n, 3), got (2, 2)"),
        (accuracy, (np.ones(3) / 3, [0]), "probs must have shape (n, 3), got (3,)"),
        (evaluate, (np.ones((0, 3)), []), "need at least one sample"),
        (balanced_accuracy, (np.ones((0, 3)), []), "need at least one sample"),
        (evaluate, (np.array([[np.nan, 0.5, 0.5], [0.2, 0.3, 0.5], [0.2, 0.3, 0.5]]), [0, 1, 2]), "probabilities must be finite"),
        (average_auc, (np.array([[0.2, np.inf, 0.3], [0.2, 0.3, 0.5], [0.2, 0.3, 0.5]]), [0, 1, 2]), "probabilities must be finite"),
        (accuracy, ([[2.0, -1.0, 0.0]], [0]), "probabilities must lie in [0, 1]"),
        (evaluate, ([[5.0, -3.0, 0.0], [-3.0, 5.0, 0.0], [0.0, -3.0, 5.0]], [0, 1, 2]), "probabilities must lie in [0, 1]"),
        (auc_binary, ([0.1, 0.2], [1]), "scores and targets must be equal-length 1-D, got (2,) vs (1,)"),
        (auc_binary, ([[0.1, 0.2]], [[0, 1]]), "scores and targets must be equal-length 1-D, got (1, 2) vs (1, 2)"),
        (auc_binary, ([0.1, 0.2, 0.3], [0, 2, 1]), "targets must be 0 or 1"),
        (auc_binary, ([0.1, 0.2], [0.5, 1]), "targets must be 0 or 1"),
    ],
    ids=lambda v: v.__name__ if callable(v) else None,
)
def test_bad_inputs_fail_with_exact_message(metric, args, message):
    with pytest.raises(ValueError) as excinfo:
        metric(*args)
    assert str(excinfo.value) == message


@pytest.mark.parametrize("metric", [accuracy, balanced_accuracy, average_auc, binary_task_metrics, evaluate])
@pytest.mark.parametrize("entry", [-5e-324, -0.5, 1.0 + 2**-52, 2.0])
def test_an_entry_outside_the_unit_interval_is_not_a_probability(metric, entry):
    # the nearest floats beyond 0 and 1 are refused: the rule has no tolerance
    probs = np.array([[0.2, 0.3, 0.5], [0.2, entry, 0.5], [0.2, 0.3, 0.5]])
    with pytest.raises(ValueError) as excinfo:
        metric(probs, [0, 1, 2])
    assert str(excinfo.value) == "probabilities must lie in [0, 1]"


def test_entries_of_exactly_zero_and_one_are_probabilities():
    # no row-sum rule: softmax rows miss 1 by rounding, so only the entries are checked
    probs = np.array([[1.0, 0.0, -0.0], [-0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    assert evaluate(probs, [0, 1, 2]) == MetricsReport(1.0, 1.0, 1.0, 1.0, 1.0)


def test_predictions_from_extreme_scores_are_probabilities():
    # Scores 1400 apart: softmax rounds the winner to exactly 1.0 and the loser to 0.0.
    weights = np.array([[700.0, 0.0], [0.0, 700.0], [-700.0, -700.0]])
    params = ModelParams((2, 3), np.concatenate([weights.ravel(), np.zeros(3)]))
    probs = predict_proba_batch(params, np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]]))
    assert (probs == 1.0).sum() == 3 and (probs == 0.0).any()
    assert evaluate(probs, [0, 1, 2]) == MetricsReport(1.0, 1.0, 1.0, 1.0, 1.0)


def test_metric_names_are_the_report_fields_in_order():
    assert METRIC_NAMES == tuple(f.name for f in dataclasses.fields(MetricsReport))
    assert METRIC_NAMES == ("accuracy", "balanced_accuracy", "average_auc", "binary_accuracy", "binary_auc")


def test_report_validation():
    with pytest.raises(ValueError):
        MetricsReport(1.2, 0.5, 0.5, 0.5, 0.5)
