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
        object.__setattr__(self, "learning_rate", real(self.learning_rate, "learning_rate"))
        if not (self.learning_rate > 0):
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate}")
        whole(self.epochs, "epochs", 1)
        whole(self.batch_size, "batch_size", 1)
        object.__setattr__(self, "hidden_sizes", wholes(self.hidden_sizes, "hidden_sizes"))


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


class Workspace:
    """Buffers that one SGD step fills in place, for batches of up to ``rows``
    samples: each hidden layer's activations, rectifier masks and deltas, and
    each layer's weight and bias gradients. A shorter batch uses leading rows."""

    def __init__(self, params: ModelParams, rows: int):
        hidden = params.layer_sizes[1:-1]
        self.activations = [np.empty((rows, width)) for width in hidden]
        self.masks = [np.empty((rows, width)) for width in hidden]
        self.deltas = [np.empty((rows, width)) for width in hidden]
        self.weight_grads = [np.empty_like(w) for w in params.weights]
        self.bias_grads = [np.empty_like(b) for b in params.biases]


def _forward(params: ModelParams, x: np.ndarray, workspace: Workspace | None = None):
    """Batch forward pass; returns final scores plus each layer's input.

    The hidden layers go into ``workspace``'s activation buffers, or into
    fresh arrays without one.
    """
    activations = [x]
    h = x
    for l, (w, b) in enumerate(zip(params.weights[:-1], params.biases[:-1])):
        h = np.matmul(h, w.T, out=None if workspace is None else workspace.activations[l][: len(x)])
        h += b
        np.maximum(h, 0.0, out=h)
        activations.append(h)
    scores = h @ params.weights[-1].T
    scores += params.biases[-1]
    return scores, activations


def predict_proba_batch(params: ModelParams, features: np.ndarray) -> np.ndarray:
    """Class probabilities (softmax of the final scores), one row per sample."""
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != params.input_dim:
        raise ValueError(f"expected an (n, {params.input_dim}) feature matrix, got shape {x.shape}")
    return softmax(_forward(params, x)[0])


def _backward(params: ModelParams, score_grad: np.ndarray, activations, workspace: Workspace | None = None):
    """Gradients of the batch loss w.r.t. every weight and bias.

    ``score_grad`` is d(loss)/d(scores) for the whole batch, already scaled
    by 1/batch_size. The rectifier mask is ``max(z, 0) > 0``, which holds
    exactly where ``z > 0``, so no pre-activation needs keeping. The
    gradients are written into ``workspace`` (a fresh one without it),
    whose gradient lists are returned.
    """
    rows = len(score_grad)
    if workspace is None:
        workspace = Workspace(params, rows)
    delta = score_grad
    for l in range(len(params.weights) - 1, -1, -1):
        np.matmul(delta.T, activations[l], out=workspace.weight_grads[l])
        delta.sum(axis=0, out=workspace.bias_grads[l])
        if l > 0:
            delta = np.matmul(delta, params.weights[l], out=workspace.deltas[l - 1][:rows])
            # The mask as 1.0/0.0 floats: the same products as a bool mask,
            # without the cast buffer a bool operand costs.
            delta *= np.greater(activations[l], 0.0, out=workspace.masks[l - 1][:rows])
    return workspace.weight_grads, workspace.bias_grads


def train_epoch(
    params: ModelParams,
    train_set: Dataset,
    lam: float,
    config: TrainConfig,
    rng: np.random.Generator,
    workspace: Workspace | None = None,
) -> float:
    """One shuffled pass of minibatch SGD at curriculum weight ``lam``.

    Updates ``params`` in place and returns the mean per-sample blended
    loss over the epoch. Each step fills ``workspace`` (by default a fresh
    one for batches of ``min(batch_size, len(train_set))`` rows).
    """
    n = len(train_set)
    if workspace is None:
        workspace = Workspace(params, min(config.batch_size, n))
    order = rng.permutation(n)
    # One gather per epoch; each batch is then a contiguous slice of it.
    features = train_set.features[order]
    labels = train_set.labels[order]
    total_loss = 0.0
    for start in range(0, n, config.batch_size):
        x = features[start : start + config.batch_size]
        y = labels[start : start + config.batch_size]
        scores, activations = _forward(params, x, workspace)
        losses, grads = batch_combined_loss_grad(scores, y, lam)
        total_loss += float(losses.sum())
        grads /= len(y)
        _backward(params, grads, activations, workspace)
        # dw * lr is the same IEEE product as lr * dw.
        for w, b, dw, db in zip(params.weights, params.biases, workspace.weight_grads, workspace.bias_grads):
            dw *= config.learning_rate
            w -= dw
            db *= config.learning_rate
            b -= db
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

    best_params = params.copy()
    best_score = -np.inf
    best_epoch = -1
    epoch_losses: list[float] = []
    val_scores: list[float] = []
    workspace = Workspace(params, min(config.batch_size, len(train_set)))
    for epoch, lam in enumerate(lambdas):
        epoch_losses.append(train_epoch(params, train_set, lam, config, rng, workspace))
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

