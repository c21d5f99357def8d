import tracemalloc

import numpy as np
import pytest

from curricula.data import Dataset, SynthConfig, generate_synthetic
from curricula.losses import batch_combined_loss_grad, combined_loss, combined_loss_grad, softmax
from curricula.metrics import accuracy
from curricula.model import (
    ModelParams,
    TrainConfig,
    Workspace,
    init,
    predict_proba_batch,
    train,
    train_epoch,
)


def tiny_dataset(rng, n=40, dim=3):
    features = rng.normal(size=(n, dim))
    labels = rng.integers(3, size=n)
    labels[:3] = [0, 1, 2]  # make sure every class shows up
    return Dataset(features, labels, np.arange(n))


def batch_loss(params, x, y, lam):
    """Scalar batch loss used by the finite-difference oracle."""
    from curricula.model import _forward

    losses, _ = batch_combined_loss_grad(_forward(params, x)[0], y, lam)
    return float(losses.mean())


def test_init_is_deterministic():
    a = init([2, 3], seed=7)
    b = init([2, 3], seed=7)
    for wa, wb in zip(a.weights, b.weights):
        np.testing.assert_array_equal(wa, wb)
    c = init([2, 3], seed=8)
    assert not np.array_equal(a.weights[0], c.weights[0])


def test_init_shapes_and_zero_biases():
    params = init([4, 8, 3], seed=1)
    assert params.weights[0].shape == (8, 4)
    assert params.weights[1].shape == (3, 8)
    assert all(np.all(b == 0.0) for b in params.biases)


def test_init_scale_tracks_fan_in():
    params = init([400, 3], seed=0)
    assert params.weights[0].std() == pytest.approx(1 / np.sqrt(400), rel=0.15)


def test_params_validation():
    with pytest.raises(ValueError):
        ModelParams((2, 4), [np.zeros((4, 2))], [np.zeros(4)])  # final width not 3
    with pytest.raises(ValueError):
        ModelParams((2, 3), [np.zeros((3, 3))], [np.zeros(3)])  # bad weight shape
    with pytest.raises(ValueError):
        ModelParams((2, 3), [np.full((3, 2), np.nan)], [np.zeros(3)])


def test_zero_params_predict_uniform():
    params = ModelParams((5, 3), [np.zeros((3, 5))], [np.zeros(3)])
    np.testing.assert_allclose(predict_proba_batch(params, np.ones((1, 5)))[0], [1 / 3] * 3, atol=0)


def test_predictions_are_probabilities():
    rng = np.random.default_rng(0)
    params = init([4, 6, 3], seed=2)
    probs = predict_proba_batch(params, rng.normal(size=(50, 4)))
    assert np.all(probs > 0.0) and np.all(probs < 1.0)
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)


def test_handcrafted_weights_pick_class_2():
    weights = np.array([[0.0, 0.0], [0.0, 0.0], [3.0, 3.0]])
    params = ModelParams((2, 3), [weights], [np.zeros(3)])
    assert int(np.argmax(predict_proba_batch(params, np.array([[1.0, 1.0]]))[0])) == 2


def test_dimension_mismatch_rejected():
    params = init([4, 3], seed=0)
    with pytest.raises(ValueError):
        predict_proba_batch(params, np.ones((1, 3)))
    with pytest.raises(ValueError):
        predict_proba_batch(params, np.ones(4))  # a single vector is not a batch
    with pytest.raises(ValueError):
        predict_proba_batch(params, np.ones((5, 2)))


def test_bias_shift_invariance():
    rng = np.random.default_rng(1)
    params = init([3, 5, 3], seed=3)
    x = rng.normal(size=(20, 3))
    base = predict_proba_batch(params, x)
    params.biases[-1] += 12.34
    np.testing.assert_allclose(predict_proba_batch(params, x), base, atol=1e-9)


def test_single_sample_step_is_sgd():
    rng = np.random.default_rng(2)
    x = rng.normal(size=3)
    dataset = Dataset(x[None, :], np.array([2]), np.array([0]))
    params = init([3, 3], seed=4)
    w_before = params.weights[0].copy()
    b_before = params.biases[0].copy()
    config = TrainConfig(learning_rate=0.1, epochs=1, batch_size=1, hidden_sizes=())
    grad = combined_loss_grad(w_before @ x + b_before, 2, 0.4)
    mean_loss = train_epoch(params, dataset, 0.4, config, np.random.default_rng(0))
    # the loss is taken before the step, at the initial parameters
    assert mean_loss == pytest.approx(combined_loss(softmax(w_before @ x + b_before), 2, 0.4), rel=1e-12)
    np.testing.assert_allclose(params.weights[0], w_before - 0.1 * np.outer(grad, x), atol=1e-14)
    np.testing.assert_allclose(params.biases[0], b_before - 0.1 * grad, atol=1e-14)


def test_backprop_matches_finite_differences():
    from curricula.model import _backward, _forward

    rng = np.random.default_rng(3)
    # the second net's two hidden layers exercise the rectifier mask past the first layer
    for sizes in ([3, 4, 3], [3, 5, 4, 3]):
        for _ in range(30):
            params = init(sizes, seed=int(rng.integers(10_000)))
            # Zero biases would put a sample whose first hidden layer is all
            # off exactly on the next layer's kink, where differences are one-sided.
            for b in params.biases:
                b += rng.normal(scale=0.5, size=b.size)
            x = rng.normal(size=(5, 3))
            y = rng.integers(3, size=5)
            lam = float(rng.uniform())

            scores, activations = _forward(params, x)
            _, grads = batch_combined_loss_grad(scores, y, lam)
            weight_grads, bias_grads = _backward(params, grads / len(y), activations)

            step = 1e-6
            for w, dw in zip(params.weights, weight_grads):
                for idx in rng.integers(w.size, size=4):
                    i, j = np.unravel_index(idx, w.shape)
                    orig = w[i, j]
                    w[i, j] = orig + step
                    up = batch_loss(params, x, y, lam)
                    w[i, j] = orig - step
                    down = batch_loss(params, x, y, lam)
                    w[i, j] = orig
                    fd = (up - down) / (2 * step)
                    denom = max(abs(fd), abs(dw[i, j]), 1e-8)
                    assert abs(fd - dw[i, j]) / denom < 1e-4
            for b, db in zip(params.biases, bias_grads):
                for i in range(b.size):
                    orig = b[i]
                    b[i] = orig + step
                    up = batch_loss(params, x, y, lam)
                    b[i] = orig - step
                    down = batch_loss(params, x, y, lam)
                    b[i] = orig
                    fd = (up - down) / (2 * step)
                    denom = max(abs(fd), abs(db[i]), 1e-8)
                    assert abs(fd - db[i]) / denom < 1e-4


def hard_only_epoch(params, dataset, config, rng):
    """A hard-loss-only SGD epoch written out without the blended loss."""
    n = len(dataset)
    order = rng.permutation(n)
    for start in range(0, n, config.batch_size):
        batch = order[start : start + config.batch_size]
        x = dataset.features[batch]
        y = dataset.labels[batch]
        h = x
        pre_acts, activations = [], [x]
        for w, b in zip(params.weights[:-1], params.biases[:-1]):
            z = h @ w.T + b
            pre_acts.append(z)
            h = np.maximum(z, 0.0)
            activations.append(h)
        scores = h @ params.weights[-1].T + params.biases[-1]
        p = softmax(scores)
        onehot = np.zeros_like(p)
        onehot[np.arange(len(y)), y] = 1.0
        delta = (p - onehot) / len(batch)
        for l in range(len(params.weights) - 1, -1, -1):
            dw = delta.T @ activations[l]
            db = delta.sum(axis=0)
            if l > 0:
                delta = (delta @ params.weights[l]) * (pre_acts[l - 1] > 0.0)
            params.weights[l] -= config.learning_rate * dw
            params.biases[l] -= config.learning_rate * db
    return params


def test_zero_weight_training_equals_plain_cross_entropy():
    rng = np.random.default_rng(4)
    dataset = tiny_dataset(rng, n=60)
    # Biases start at zero, so an all-zero row in the first batch gives exactly-zero
    # pre-activations in every hidden layer: the rectifier mask is pinned at z == 0.
    features = dataset.features.copy()
    features[np.random.default_rng(99).permutation(60)[0]] = 0.0
    dataset = Dataset(features, dataset.labels, dataset.ids)

    for sizes in ([3, 5, 3], [3, 5, 4, 3]):
        config = TrainConfig(learning_rate=0.05, epochs=1, batch_size=16, hidden_sizes=tuple(sizes[1:-1]))
        ours = init(sizes, seed=11)
        reference = ours.copy()
        for _ in range(10):
            train_epoch(ours, dataset, 0.0, config, np.random.default_rng(99))
        for _ in range(10):
            hard_only_epoch(reference, dataset, config, np.random.default_rng(99))

        for w_a, w_b in zip(ours.weights, reference.weights):
            np.testing.assert_array_equal(w_a, w_b)
        for b_a, b_b in zip(ours.biases, reference.biases):
            np.testing.assert_array_equal(b_a, b_b)


def test_epoch_with_a_workspace_allocates_only_its_gather():
    rng = np.random.default_rng(8)
    dataset = tiny_dataset(rng, n=1920, dim=32)
    config = TrainConfig(batch_size=128, hidden_sizes=(256, 256))
    params = init([32, 256, 256, 3], seed=2)
    workspace = Workspace(params, config.batch_size)
    train_epoch(params, dataset, 0.5, config, rng, workspace)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        train_epoch(params, dataset, 0.5, config, rng, workspace)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    # The epoch gathers its shuffled features and labels once. Beyond that only
    # small per-step arrays may live; one 128 x 256 float64 temporary (256 KiB)
    # already breaks the bound.
    gather = dataset.features.nbytes + dataset.labels.nbytes
    assert peak < gather + 128 * 1024, (peak, gather)


def test_training_is_deterministic():
    rng = np.random.default_rng(5)
    dataset = tiny_dataset(rng)
    config = TrainConfig(learning_rate=0.05, epochs=5, batch_size=8, hidden_sizes=(4,))
    lambdas = [1.0, 0.8, 0.5, 0.2, 0.0]

    results = []
    for _ in range(2):
        params = init([3, 4, 3], seed=6)
        results.append(
            train(params, dataset, dataset, lambdas, config, np.random.default_rng(7))
        )
    for w_a, w_b in zip(results[0].params.weights, results[1].params.weights):
        np.testing.assert_array_equal(w_a, w_b)
    assert results[0].epoch_losses == results[1].epoch_losses
    assert results[0].val_scores == results[1].val_scores
    assert results[0].best_epoch == results[1].best_epoch


def test_separable_blobs_are_learned():
    config = TrainConfig(learning_rate=0.05, epochs=50, batch_size=32, hidden_sizes=(16,))
    dataset = generate_synthetic(
        SynthConfig(counts=(100, 100, 100), separation=6.0, overlap=1.0, noise=1.0, seed=12)
    )
    params = init([2, 16, 3], seed=13)
    result = train(params, dataset, dataset, [0.0] * 50, config, np.random.default_rng(14))
    assert accuracy(predict_proba_batch(result.params, dataset.features), dataset.labels) >= 0.95


def test_best_epoch_selection_prefers_earlier_ties():
    rng = np.random.default_rng(6)
    dataset = tiny_dataset(rng, n=30)
    config = TrainConfig(learning_rate=1e-9, epochs=3, batch_size=30, hidden_sizes=())
    params = init([3, 3], seed=8)
    result = train(params, dataset, dataset, [0.0] * 3, config, np.random.default_rng(9))
    # A vanishing learning rate makes every epoch score identically.
    assert result.best_epoch == 0


def test_train_config_rejects_non_finite_learning_rate():
    for bad in (float("inf"), float("nan"), 0.0, -0.1):
        with pytest.raises(ValueError, match="^learning_rate must be (finite|positive)"):
            TrainConfig(learning_rate=bad)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        (dict(hidden_sizes=(2.7,)), "hidden_sizes must be a list of positive integers, got (2.7,)"),
        (dict(hidden_sizes=(4, True)), "hidden_sizes must be a list of positive integers, got (4, True)"),
        (dict(epochs=2.5), "epochs must be an integer, got 2.5"),
        (dict(epochs=True), "epochs must be an integer, got True"),
        (dict(batch_size=2.5), "batch_size must be an integer, got 2.5"),
        (dict(learning_rate=True), "learning_rate must be a number, got True"),
        (dict(learning_rate="0.05"), "learning_rate must be a number, got '0.05'"),
        (dict(hidden_sizes=16), "hidden_sizes must be a list of positive integers, got 16"),
    ],
)
def test_train_config_rejects_non_integer_sizes(kwargs, message):
    with pytest.raises(ValueError) as excinfo:
        TrainConfig(**kwargs)
    assert str(excinfo.value) == message


def test_train_rejects_mismatched_lambdas():
    rng = np.random.default_rng(7)
    dataset = tiny_dataset(rng, n=12)
    config = TrainConfig(epochs=4)
    params = init([3, 16, 3], seed=1)
    with pytest.raises(ValueError):
        train(params, dataset, dataset, [0.0] * 3, config, np.random.default_rng(0))

