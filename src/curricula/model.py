"""A small feedforward softmax classifier trained by minibatch SGD.

Forward and backward passes are written out explicitly in numpy (float64
throughout): rectifier hidden layers, a three-way softmax head, and the
blended easy/hard loss driving the score gradient. Training is fully
deterministic given the initial parameters and the shuffle generator.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._checks import real, whole, wholes
from .data import CLASSES, Dataset, _class_onehot
from .losses import _check_weight, batch_combined_loss_grad, softmax
from .metrics import mean_recall


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.05
    epochs: int = 100
    batch_size: int = 32
    hidden_sizes: tuple[int, ...] = (16,)

    def __post_init__(self) -> None:
        object.__setattr__(self, "learning_rate", real(self.learning_rate, "learning_rate"))
        if not (self.learning_rate > 0):
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate}")
        whole(self.epochs, "epochs", 1)
        whole(self.batch_size, "batch_size", 1)
        object.__setattr__(self, "hidden_sizes", wholes(self.hidden_sizes, "hidden_sizes"))


def _layer_views(layer_sizes, flat: np.ndarray | None = None):
    """The checked sizes, a parameter buffer for them (``flat``, or zeros) and each layer's
    weight and bias as views of it: layer by layer, the weights (row-major), then the biases."""
    if any(isinstance(s, bool) or not isinstance(s, (int, np.integer)) for s in layer_sizes):
        raise ValueError(f"layer sizes must be integers, got {layer_sizes!r}")
    sizes = tuple(int(s) for s in layer_sizes)
    if len(sizes) < 2:
        raise ValueError("layer_sizes needs at least an input and an output layer")
    if any(s < 1 for s in sizes):
        raise ValueError(f"layer sizes must be positive, got {sizes}")
    if sizes[-1] != len(CLASSES):
        raise ValueError(f"final layer must have width {len(CLASSES)}, got {sizes[-1]}")
    n = sum(fan_out * (fan_in + 1) for fan_in, fan_out in zip(sizes[:-1], sizes[1:]))
    flat = np.zeros(n) if flat is None else flat
    if flat.shape != (n,):
        raise ValueError(f"layer sizes {sizes} need a flat buffer of {n} parameters, got shape {flat.shape}")
    weights, biases, start = [], [], 0
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        weights.append(flat[start : start + fan_out * fan_in].reshape(fan_out, fan_in))
        start += fan_out * fan_in
        biases.append(flat[start : start + fan_out])
        start += fan_out
    return sizes, flat, weights, biases


@dataclass(eq=False)
class ModelParams:
    """Per-layer weight matrices and bias vectors, as views of one flat buffer.

    ``weights[l]`` has shape (layer_sizes[l+1], layer_sizes[l]) and acts on
    column features from the left; the final layer is always 3 wide. The
    constructor copies ``flat``, laid out as ``_layer_views`` says, so one
    in-place operation on ``params.flat`` updates every layer.
    """

    layer_sizes: tuple[int, ...]
    flat: np.ndarray
    weights: list[np.ndarray] = field(init=False, repr=False)
    biases: list[np.ndarray] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        flat = np.array(self.flat, dtype=np.float64)
        self.layer_sizes, self.flat, self.weights, self.biases = _layer_views(self.layer_sizes, flat)
        for l, (w, b) in enumerate(zip(self.weights, self.biases)):
            if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
                raise ValueError(f"layer {l} parameters must be finite")


def init(layer_sizes, seed: int) -> ModelParams:
    """Fresh parameters: weights ~ N(0, 1/fan_in), biases zero, seeded."""
    sizes, flat, weights, _ = _layer_views(layer_sizes)
    whole(seed, "seed", 0)
    rng = np.random.default_rng(seed)
    for w in weights:
        w[...] = rng.standard_normal(w.shape) / np.sqrt(w.shape[1])
    return ModelParams(sizes, flat)


def _forward(params: ModelParams, x: np.ndarray):
    """Batch forward pass; returns final scores plus each layer's input, each
    hidden layer in a fresh array."""
    activations = [x]
    h = x
    for w, b in zip(params.weights[:-1], params.biases[:-1]):
        h = h @ w.T
        h += b
        np.maximum(h, 0.0, out=h)
        activations.append(h)
    scores = h @ params.weights[-1].T
    scores += params.biases[-1]
    return scores, activations


def predict_proba_batch(params: ModelParams, features: np.ndarray) -> np.ndarray:
    """Class probabilities (softmax of the final scores), one row per sample, scored in chunks of
    ``max(1, 2**15 // max(layer_sizes))`` rows: one chunk has one pass's bits, more may move a row by a few ulp."""
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != params.layer_sizes[0]:
        raise ValueError(f"expected an (n, {params.layer_sizes[0]}) feature matrix, got shape {x.shape}")
    probs = np.empty((len(x), len(CLASSES)))
    rows = max(1, 2**15 // max(params.layer_sizes))
    for start in range(0, len(x), rows):
        probs[start : start + rows] = softmax(_forward(params, x[start : start + rows])[0])
    return probs


def _backward(params: ModelParams, score_grad: np.ndarray, activations, weight_grads, bias_grads) -> None:
    """Fill ``weight_grads`` and ``bias_grads`` with the gradients of the batch loss
    w.r.t. every weight and bias. ``score_grad`` is d(loss)/d(scores) for the whole
    batch, already scaled by 1/batch_size. ``activations`` is consumed: each layer's
    input is popped, its weight gradient taken, and for a hidden layer the propagated
    delta is written over it, masked by ``max(z, 0) > 0`` (exactly where ``z > 0``).
    The batch, ``activations[0]``, is never written.
    """
    delta = score_grad
    for l in range(len(params.weights) - 1, -1, -1):
        activation = activations.pop()
        np.matmul(delta.T, activation, out=weight_grads[l])
        np.add.reduce(delta, axis=0, out=bias_grads[l])  # ndarray.sum minus its Python wrapper
        if l > 0:
            mask = activation > 0.0
            delta = np.matmul(delta, params.weights[l], out=activation)
            delta *= mask


def train_epoch(
    params: ModelParams,
    train_set: Dataset,
    lam: float,
    config: TrainConfig,
    rng: np.random.Generator,
) -> float:
    """One shuffled pass of minibatch SGD at curriculum weight ``lam``, checked before the shuffle.

    Updates ``params`` in place and returns the mean per-sample blended
    loss over the epoch. Each step fills the epoch's one gradient buffer, laid out
    like ``params.flat``; ``_backward`` writes its deltas over its activations.
    """
    if train_set.feature_dim != params.layer_sizes[0]:
        raise ValueError(f"expected an (n, {params.layer_sizes[0]}) feature matrix, got shape {train_set.features.shape}")
    n = len(train_set)
    lam = _check_weight(lam)
    order = rng.permutation(n)
    # One label check and one one-hot per epoch, sliced per batch; the features
    # are gathered a batch at a time, so no shuffled copy of the train set lives.
    onehot = _class_onehot(train_set.labels[order])
    _, grads, weight_grads, bias_grads = _layer_views(params.layer_sizes)
    total_loss = 0.0
    for start in range(0, n, config.batch_size):
        x = train_set.features.take(order[start : start + config.batch_size], axis=0)
        scores, activations = _forward(params, x)
        losses, score_grad = batch_combined_loss_grad(scores, onehot[start : start + config.batch_size], lam)
        total_loss += float(np.add.reduce(losses))
        score_grad /= len(x)
        _backward(params, score_grad, activations, weight_grads, bias_grads)
        # dw * lr is the same IEEE product as lr * dw, element by element.
        grads *= config.learning_rate
        params.flat -= grads
    return total_loss / n


@dataclass
class TrainResult:
    """Outcome of a full training run with best-epoch selection; ``best_epoch``
    is the first maximum of ``val_scores``."""

    params: ModelParams
    best_epoch: int
    epoch_losses: list[float]
    val_scores: list[float]


def train(
    params: ModelParams,
    train_set: Dataset,
    val_set: Dataset,
    lambdas,
    config: TrainConfig,
    rng: np.random.Generator,
) -> TrainResult:
    """Train for ``config.epochs`` epochs with per-epoch curriculum weights.

    ``lambdas[e]`` is the weight applied to every batch of epoch ``e``.
    After each epoch the validation balanced accuracy (mean per-class
    recall) is computed; the parameters with the best score are kept, ties
    going to the earlier epoch. ``params`` itself ends up in the
    final-epoch state; the returned snapshot is an independent copy. A
    ``ValueError`` raised in an epoch (non-finite scores or parameters) is
    re-raised with ``epoch {e}: `` in front. numpy's overflow and invalid
    warnings are off, so a diverging run fails this way under any warning filter.
    """
    lambdas = list(lambdas)
    if len(lambdas) != config.epochs:
        raise ValueError(
            f"need one curriculum weight per epoch ({config.epochs}), got {len(lambdas)}"
        )

    epoch_losses: list[float] = []
    val_scores: list[float] = []
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch, lam in enumerate(lambdas):
            try:
                epoch_losses.append(train_epoch(params, train_set, lam, config, rng))
                probs = predict_proba_batch(params, val_set.features)
                score = mean_recall(np.argmax(probs, axis=1), val_set.labels)
                if not val_scores or score > max(val_scores):
                    best_params = ModelParams(params.layer_sizes, params.flat)  # the constructor copies
                val_scores.append(score)
            except ValueError as e:
                raise ValueError(f"epoch {epoch}: {e}") from e
    return TrainResult(
        params=best_params,
        best_epoch=int(np.argmax(val_scores)),
        epoch_losses=epoch_losses,
        val_scores=val_scores,
    )

