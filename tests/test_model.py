import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curricula import losses as losses_mod
from curricula import model as model_mod
from curricula.data import Dataset, SynthConfig, class_onehot, generate_synthetic
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

    losses, _ = batch_combined_loss_grad(_forward(params, x)[0], class_onehot(y), lam)
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
    with pytest.raises(ValueError, match="^final layer must have width 3, got 4$"):
        ModelParams((2, 4), np.zeros(12))
    with pytest.raises(ValueError, match="^layer sizes must be positive, got"):
        ModelParams((2, 0, 3), np.zeros(3))
    with pytest.raises(ValueError, match="^layer_sizes needs at least an input and an output layer$"):
        ModelParams((3,), np.zeros(0))
    # init checks the sizes before it lays out a buffer for them
    with pytest.raises(ValueError, match=r"^layer sizes must be positive, got \(2, -1, 3\)$"):
        init((2, -1, 3), 0)
    with pytest.raises(ValueError, match="^final layer must have width 3, got 5$"):
        init((2, 4, 5), 0)
    with pytest.raises(ValueError, match=r"^layer sizes \(2, 3\) need a flat buffer of 9 parameters, got shape \(8,\)$"):
        ModelParams((2, 3), np.zeros(8))
    with pytest.raises(ValueError, match=r"got shape \(9, 1\)$"):
        ModelParams((2, 3), np.zeros((9, 1)))
    for l, at in ((0, 3), (0, 11), (1, 12), (1, 26)):  # a weight and a bias of each layer
        flat = np.zeros(27)
        flat[at] = np.nan
        with pytest.raises(ValueError, match=f"^layer {l} parameters must be finite$"):
            ModelParams((2, 4, 3), flat)


def test_params_live_in_one_flat_buffer_and_copies_are_independent():
    # The layout, layer by layer: the weights (row-major), then the biases.
    given = np.arange(27)
    params = ModelParams((2, 4, 3), given)
    assert params.flat.dtype == np.float64
    np.testing.assert_array_equal(params.weights[0], np.arange(8).reshape(4, 2))
    np.testing.assert_array_equal(params.biases[0], np.arange(8, 12))
    np.testing.assert_array_equal(params.weights[1], np.arange(12, 24).reshape(3, 4))
    np.testing.assert_array_equal(params.biases[1], np.arange(24, 27))
    # The constructor copies the buffer, and every layer is a view of the copy.
    assert not np.shares_memory(params.flat, given)
    assert all(np.shares_memory(a, params.flat) for a in params.weights + params.biases)
    params.flat += 1.0
    assert params.weights[1][0, 0] == 13.0 and params.biases[1][0] == 25.0
    copy = params.copy()
    before = params.flat.copy()
    copy.weights[0][0, 0] = -5.0
    copy.biases[1] += 7.0
    assert params.flat.tobytes() == before.tobytes()
    assert copy.flat[0] == -5.0 and copy.flat[-1] == 34.0


def test_params_compare_by_identity():
    params = init([2, 4, 3], seed=0)
    assert params == params and params != params.copy()  # an array-valued field comparison would raise


def test_workspace_gradients_live_in_one_buffer_shaped_like_the_params():
    params = init([2, 4, 3], seed=0)
    workspace = Workspace(params, 5)
    assert workspace.grads.shape == params.flat.shape
    for grad, param in zip(workspace.weight_grads + workspace.bias_grads, params.weights + params.biases):
        assert grad.shape == param.shape and np.shares_memory(grad, workspace.grads)


def test_zero_params_predict_uniform():
    params = ModelParams((5, 3), np.zeros(18))
    np.testing.assert_allclose(predict_proba_batch(params, np.ones((1, 5)))[0], [1 / 3] * 3, atol=0)


def test_predictions_are_probabilities():
    rng = np.random.default_rng(0)
    params = init([4, 6, 3], seed=2)
    probs = predict_proba_batch(params, rng.normal(size=(50, 4)))
    assert np.all(probs > 0.0) and np.all(probs < 1.0)
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)


def test_handcrafted_weights_pick_class_2():
    weights = np.array([[0.0, 0.0], [0.0, 0.0], [3.0, 3.0]])
    params = ModelParams((2, 3), np.concatenate([weights.ravel(), np.zeros(3)]))
    assert int(np.argmax(predict_proba_batch(params, np.array([[1.0, 1.0]]))[0])) == 2


def test_dimension_mismatch_rejected():
    params = init([4, 3], seed=0)
    with pytest.raises(ValueError):
        predict_proba_batch(params, np.ones((1, 3)))
    with pytest.raises(ValueError):
        predict_proba_batch(params, np.ones(4))  # a single vector is not a batch
    with pytest.raises(ValueError):
        predict_proba_batch(params, np.ones((5, 2)))


def one_pass_proba(params, x):
    """Prediction as one forward pass over every row: the unchunked form, frozen here."""
    return softmax(model_mod._forward(params, x)[0])


def chunk_rows(layer_sizes):
    """Rows per chunk: the most that keep every layer within 2**15 floats, at least one."""
    return max(1, 2**15 // max(layer_sizes))


def assert_same_bits(actual, expected):
    assert actual.shape == expected.shape and actual.dtype == expected.dtype
    assert actual.tobytes() == expected.tobytes()


@st.composite
def chunked_predictions(draw):
    """A model, possibly with one layer wide enough to force many small chunks, and
    an input of whole chunks plus a remainder of none, one row, or a ragged few."""
    hidden = draw(st.lists(st.integers(1, 40), max_size=2))
    wide = draw(st.sampled_from([None, 1000, 3000, 2**13, 2**15 + 1]))
    if wide is not None:
        hidden.insert(draw(st.integers(0, len(hidden))), wide)
    sizes = [draw(st.integers(1, 6)), *hidden, 3]
    rows = chunk_rows(sizes)
    remainder = draw(st.sampled_from([0, 1]) | st.integers(0, rows - 1))
    n = draw(st.integers(0, 3)) * rows + remainder
    seed = draw(st.integers(0, 2**32 - 1))
    x = np.random.default_rng(seed).normal(size=(n, sizes[0]))
    return init(sizes, seed), x, rows


@settings(deadline=None, max_examples=60)
@given(chunked_predictions())
def test_chunked_prediction_is_the_concatenation_of_its_chunks(case):
    params, x, rows = case
    probs = predict_proba_batch(params, x)
    chunks = [predict_proba_batch(params, x[start : start + rows]) for start in range(0, len(x), rows)]
    assert_same_bits(probs, np.concatenate(chunks) if chunks else np.empty((0, 3)))
    if len(x) <= rows:
        assert_same_bits(probs, one_pass_proba(params, x))
    else:
        np.testing.assert_allclose(probs, one_pass_proba(params, x), rtol=1e-13, atol=0)


@pytest.mark.parametrize(
    "sizes, n",
    [
        ([32, 256, 256, 3], 1),
        ([32, 256, 256, 3], 127),
        ([32, 256, 256, 3], 128),  # exactly one chunk at wide-mlp's width
        ([2, 16, 3], 342),  # desk's largest validation or test fold: one chunk of 2048 rows
        ([8, 16, 3], 2048),  # exactly one chunk at cli-100k's shapes
    ],
)
def test_chunked_prediction_within_one_chunk_has_the_bits_of_one_pass(sizes, n):
    params = init(sizes, seed=4)
    x = np.random.default_rng(n).normal(size=(n, sizes[0]))
    assert n <= chunk_rows(sizes)
    assert_same_bits(predict_proba_batch(params, x), one_pass_proba(params, x))


@pytest.mark.parametrize(
    "sizes, n",
    [
        ([32, 256, 256, 3], 480),  # wide-mlp's validation fold: three chunks of 128 and one of 96
        ([8, 16, 3], 2049),  # a one-row remainder at cli-100k's shapes
        ([1, 2**15 + 1, 3], 3),  # wider than 2**15: one row per chunk
    ],
)
def test_chunked_prediction_across_chunks_agrees_with_one_pass(sizes, n):
    params = init(sizes, seed=5)
    x = np.random.default_rng(n).normal(size=(n, sizes[0]))
    assert n > chunk_rows(sizes)
    probs = predict_proba_batch(params, x)
    np.testing.assert_allclose(probs, one_pass_proba(params, x), rtol=1e-13, atol=0)


def test_chunked_prediction_of_no_rows_is_empty():
    probs = predict_proba_batch(init([4, 300, 3], seed=0), np.empty((0, 4)))
    assert probs.shape == (0, 3) and probs.dtype == np.float64


def test_chunked_prediction_holds_one_chunk_of_each_layer():
    params = init([32, 256, 256, 3], seed=2)
    x = np.random.default_rng(9).normal(size=(4096, 32))
    predict_proba_batch(params, x)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        probs = predict_proba_batch(params, x)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    # A chunk is 128 rows at width 256: two 256 KiB hidden arrays live at once.
    # One pass over all 4096 rows would hold two 8 MiB ones.
    assert peak < probs.nbytes + 1024 * 1024, (peak, probs.nbytes)


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
    mean_loss = train_epoch(params, dataset, 0.4, config, np.random.default_rng(0), Workspace(params, 1))
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
            _, grads = batch_combined_loss_grad(scores, class_onehot(y), lam)
            weight_grads, bias_grads = _backward(params, grads / len(y), activations, Workspace(params, len(y)))

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
            train_epoch(ours, dataset, 0.0, config, np.random.default_rng(99), Workspace(ours, config.batch_size))
        for _ in range(10):
            hard_only_epoch(reference, dataset, config, np.random.default_rng(99))

        for w_a, w_b in zip(ours.weights, reference.weights):
            np.testing.assert_array_equal(w_a, w_b)
        for b_a, b_b in zip(ours.biases, reference.biases):
            np.testing.assert_array_equal(b_a, b_b)


def test_epoch_with_a_workspace_holds_one_batch_beside_its_shuffled_labels():
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
    # The epoch holds its shuffled order and labels and the labels' one-hot
    # (8, 8 and 3 bytes a row), and gathers the features one batch at a time.
    # Beyond those only per-step arrays may live: the 32 KiB batch, numpy's
    # 64 KiB broadcast buffer for the bias add and small ones, 158 KiB in all
    # with numpy 2.4. A shuffled copy of the features (480 KiB), or one
    # 128 x 256 float64 temporary (256 KiB), breaks the bound.
    per_epoch = len(dataset) * (8 + 8 + 3)
    assert peak < per_epoch + 160 * 1024, (peak, per_epoch)


def test_an_epoch_checks_its_labels_once(monkeypatch):
    checked, batches = [], []

    def counted_onehot(labels):
        checked.append(len(labels))
        return class_onehot(labels)

    def counted_kernel(scores, onehot, lam):
        batches.append(len(onehot))
        return batch_combined_loss_grad(scores, onehot, lam)

    # each module that could check a batch's labels, whether or not it binds the name
    for module in (losses_mod, model_mod):
        monkeypatch.setattr(module, "class_onehot", counted_onehot, raising=False)
    monkeypatch.setattr(model_mod, "batch_combined_loss_grad", counted_kernel)
    dataset = tiny_dataset(np.random.default_rng(9), n=35 * 8 - 3)
    config = TrainConfig(batch_size=8, hidden_sizes=(4,))
    params = init([3, 4, 3], seed=1)
    train_epoch(params, dataset, 0.5, config, np.random.default_rng(2), Workspace(params, 8))
    assert batches == [8] * 34 + [5]
    assert checked == [len(dataset)]


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


def test_a_tie_after_a_rise_keeps_the_earlier_epoch(monkeypatch):
    scores = iter([0.4, 0.7, 0.7, 0.6])
    monkeypatch.setattr(model_mod, "mean_recall", lambda predicted, labels: next(scores))
    dataset = tiny_dataset(np.random.default_rng(6), n=30)
    config = TrainConfig(learning_rate=0.1, epochs=4, batch_size=8, hidden_sizes=(4,))
    params = init([3, 4, 3], seed=8)
    result = train(params, dataset, dataset, [0.5] * 4, config, np.random.default_rng(9))
    assert result.best_epoch == 1 and result.val_scores == [0.4, 0.7, 0.7, 0.6]
    monkeypatch.undo()
    # the snapshot is the state after epoch 1: a 2-epoch run from the same seeds ends there
    two_epochs = init([3, 4, 3], seed=8)
    train(two_epochs, dataset, dataset, [0.5] * 2, replace(config, epochs=2), np.random.default_rng(9))
    assert result.params.flat.tobytes() == two_epochs.flat.tobytes()
    assert result.params.flat.tobytes() != params.flat.tobytes()


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



def test_divergence_names_the_epoch():
    rng = np.random.default_rng(7)
    dataset = tiny_dataset(rng, n=40)
    config = TrainConfig(learning_rate=1e10, epochs=8, batch_size=8, hidden_sizes=(4,))
    # The oracle: the first epoch whose steps raise, found epoch by epoch.
    params, shuffle = init([3, 4, 3], seed=1), np.random.default_rng(2)
    with np.errstate(over="ignore", invalid="ignore"):
        for first_bad in range(config.epochs):
            try:
                train_epoch(params, dataset, 0.5, config, shuffle, Workspace(params, config.batch_size))
            except ValueError as e:
                assert str(e) == "scores must be finite"
                break
        else:
            raise AssertionError("the learning rate never drove the scores non-finite")
        assert first_bad > 0
    with pytest.raises(ValueError) as excinfo:
        train(init([3, 4, 3], seed=1), dataset, dataset, [0.5] * 8, config, np.random.default_rng(2))
    assert str(excinfo.value) == f"epoch {first_bad}: scores must be finite"
