"""A small feedforward softmax classifier trained by minibatch SGD.

Forward and backward passes are written out explicitly in numpy (float64
throughout): rectifier hidden layers, a three-way softmax head, and the
blended easy/hard loss driving the score gradient. Training is fully
deterministic given the initial parameters and the shuffle generator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .data import CLASSES, Dataset
from .losses import batch_combined_loss_grad, softmax
from .metrics import mean_recall


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.05
    epochs: int = 100
    batch_size: int = 32
    hidden_sizes: tuple[int, ...] = (16,)

    def __post_init__(self) -> None:
        if not (0 < self.learning_rate < math.inf):
            raise ValueError(f"learning_rate must be positive and finite, got {self.learning_rate}")
        for name in ("epochs", "batch_size"):
            value = getattr(self, name)
            if type(value) is not int:  # bool is a subclass of int
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if value < 1:
                raise ValueError(f"{name} must be at least 1, got {value}")
        hidden = tuple(self.hidden_sizes)
        if any(type(h) is not int for h in hidden):
            raise ValueError(f"hidden layer sizes must be integers, got {self.hidden_sizes!r}")
        if any(h < 1 for h in hidden):
            raise ValueError(f"hidden layer sizes must be positive, got {self.hidden_sizes!r}")
        object.__setattr__(self, "hidden_sizes", hidden)


@dataclass
class ModelParams:
    """Per-layer weight matrices and bias vectors.

    ``weights[l]`` has shape (layer_sizes[l+1], layer_sizes[l]) and acts on
    column features from the left; the final layer is always 3 wide.
    """

    layer_sizes: tuple[int, ...]
    weights: list[np.ndarray]
    biases: list[np.ndarray]

    def __post_init__(self) -> None:
        sizes = tuple(int(s) for s in self.layer_sizes)
        if len(sizes) < 2:
            raise ValueError("layer_sizes needs at least an input and an output layer")
        if any(s < 1 for s in sizes):
            raise ValueError(f"layer sizes must be positive, got {sizes}")
        if sizes[-1] != len(CLASSES):
            raise ValueError(f"final layer must have width {len(CLASSES)}, got {sizes[-1]}")
        n_layers = len(sizes) - 1
        if len(self.weights) != n_layers or len(self.biases) != n_layers:
            raise ValueError("weights/biases must hold one entry per layer")
        for l, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.shape != (sizes[l + 1], sizes[l]):
                raise ValueError(
                    f"layer {l} weights must have shape {(sizes[l + 1], sizes[l])}, got {w.shape}"
                )
            if b.shape != (sizes[l + 1],):
                raise ValueError(f"layer {l} biases must have shape ({sizes[l + 1]},), got {b.shape}")
            if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
                raise ValueError(f"layer {l} parameters must be finite")
        self.layer_sizes = sizes

    @property
    def input_dim(self) -> int:
        return self.layer_sizes[0]

    def copy(self) -> "ModelParams":
        return ModelParams(
            self.layer_sizes,
            [w.copy() for w in self.weights],
            [b.copy() for b in self.biases],
        )


def init(layer_sizes, seed: int) -> ModelParams:
    """Fresh parameters: weights ~ N(0, 1/fan_in), biases zero, seeded."""
    sizes = tuple(int(s) for s in layer_sizes)
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        weights.append(rng.standard_normal((fan_out, fan_in)) / np.sqrt(fan_in))
        biases.append(np.zeros(fan_out))
    return ModelParams(sizes, weights, biases)


def _forward(params: ModelParams, x: np.ndarray):
    """Batch forward pass; returns final scores plus each layer's input."""
    activations = [x]
    h = x
    for w, b in zip(params.weights[:-1], params.biases[:-1]):
        h = np.maximum(h @ w.T + b, 0.0)
        activations.append(h)
    scores = h @ params.weights[-1].T + params.biases[-1]
    return scores, activations


def predict_proba_batch(params: ModelParams, features: np.ndarray) -> np.ndarray:
    """Class probabilities (softmax of the final scores), one row per sample."""
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != params.input_dim:
        raise ValueError(f"expected an (n, {params.input_dim}) feature matrix, got shape {x.shape}")
    return softmax(_forward(params, x)[0])


def _backward(params: ModelParams, score_grad: np.ndarray, activations):
    """Gradients of the batch loss w.r.t. every weight and bias.

    ``score_grad`` is d(loss)/d(scores) for the whole batch, already scaled
    by 1/batch_size. The rectifier mask is ``max(z, 0) > 0``, which holds
    exactly where ``z > 0``, so no pre-activation needs keeping.
    """
    weight_grads = [None] * len(params.weights)
    bias_grads = [None] * len(params.biases)
    delta = score_grad
    for l in range(len(params.weights) - 1, -1, -1):
        weight_grads[l] = delta.T @ activations[l]
        bias_grads[l] = delta.sum(axis=0)
        if l > 0:
            delta = (delta @ params.weights[l]) * (activations[l] > 0.0)
    return weight_grads, bias_grads


def train_epoch(
    params: ModelParams,
    train_set: Dataset,
    lam: float,
    config: TrainConfig,
    rng: np.random.Generator,
) -> float:
    """One shuffled pass of minibatch SGD at curriculum weight ``lam``.

    Updates ``params`` in place and returns the mean per-sample blended
    loss over the epoch.
    """
    n = len(train_set)
    if n == 0:
        raise ValueError("training set is empty")
    order = rng.permutation(n)
    # One gather per epoch; each batch is then a contiguous slice of it.
    features = train_set.features[order]
    labels = train_set.labels[order]
    total_loss = 0.0
    for start in range(0, n, config.batch_size):
        x = features[start : start + config.batch_size]
        y = labels[start : start + config.batch_size]
        scores, activations = _forward(params, x)
        losses, grads = batch_combined_loss_grad(scores, y, lam)
        total_loss += float(losses.sum())
        weight_grads, bias_grads = _backward(params, grads / len(y), activations)
        for w, b, dw, db in zip(params.weights, params.biases, weight_grads, bias_grads):
            w -= config.learning_rate * dw
            b -= config.learning_rate * db
    return total_loss / n


@dataclass
class TrainResult:
    """Outcome of a full training run with best-epoch selection; the
    selected epoch's validation score is ``val_scores[best_epoch]``."""

    params: ModelParams
    best_epoch: int
    epoch_losses: list[float] = field(default_factory=list)
    val_scores: list[float] = field(default_factory=list)


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
    final-epoch state; the returned snapshot is an independent copy.
    """
    lambdas = list(lambdas)
    if len(lambdas) != config.epochs:
        raise ValueError(
            f"need one curriculum weight per epoch ({config.epochs}), got {len(lambdas)}"
        )
    if len(val_set) == 0:
        raise ValueError("validation set is empty")

    best_params = params.copy()
    best_score = -np.inf
    best_epoch = -1
    epoch_losses: list[float] = []
    val_scores: list[float] = []
    for epoch, lam in enumerate(lambdas):
        epoch_losses.append(train_epoch(params, train_set, lam, config, rng))
        probs = predict_proba_batch(params, val_set.features)
        score = mean_recall(np.argmax(probs, axis=1), val_set.labels)
        val_scores.append(score)
        if score > best_score:
            best_score = score
            best_epoch = epoch
            best_params = params.copy()
    return TrainResult(
        params=best_params,
        best_epoch=best_epoch,
        epoch_losses=epoch_losses,
        val_scores=val_scores,
    )

