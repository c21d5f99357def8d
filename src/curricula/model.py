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
from .data import CLASSES, Dataset, class_onehot
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


def _layer_views(layer_sizes, flat: np.ndarray | None = None):
    """The checked sizes, a parameter buffer for them (``flat``, or zeros) and each layer's
    weight and bias as views of it: layer by layer, the weights (row-major), then the biases."""
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

    def copy(self) -> "ModelParams":
        """An independent copy: the constructor copies the buffer."""
        return ModelParams(self.layer_sizes, self.flat)


def init(layer_sizes, seed: int) -> ModelParams:
    """Fresh parameters: weights ~ N(0, 1/fan_in), biases zero, seeded."""
    sizes, flat, weights, _ = _layer_views(layer_sizes)
    rng = np.random.default_rng(seed)
    for w in weights:
        w[...] = rng.standard_normal(w.shape) / np.sqrt(w.shape[1])
    return ModelParams(sizes, flat)


class Workspace:
    """Buffers that one SGD step fills in place, for batches of up to ``rows``
    samples: each hidden layer's activations and deltas, and each layer's
    weight and bias gradients, which are views of one ``grads`` buffer laid
    out like ``ModelParams.flat``. A shorter batch uses leading rows."""

    def __init__(self, params: ModelParams, rows: int):
        hidden = params.layer_sizes[1:-1]
        self.activations = [np.empty((rows, width)) for width in hidden]
        self.deltas = [np.empty((rows, width)) for width in hidden]
        _, self.grads, self.weight_grads, self.bias_grads = _layer_views(params.layer_sizes)


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


def _backward(params: ModelParams, score_grad: np.ndarray, activations, workspace: Workspace):
    """Gradients of the batch loss w.r.t. every weight and bias, as ``workspace``'s
    gradient lists. ``score_grad`` is d(loss)/d(scores) for the whole batch,
    already scaled by 1/batch_size. The rectifier mask is ``max(z, 0) > 0``,
    which holds exactly where ``z > 0``, so each hidden activation is overwritten
    with its mask, as 1.0/0.0, once its layer's weight gradient is taken. The
    batch, ``activations[0]``, is never written.
    """
    rows = len(score_grad)
    delta = score_grad
    for l in range(len(params.weights) - 1, -1, -1):
        np.matmul(delta.T, activations[l], out=workspace.weight_grads[l])
        np.add.reduce(delta, axis=0, out=workspace.bias_grads[l])  # ndarray.sum minus its Python wrapper
        if l > 0:
            delta = np.matmul(delta, params.weights[l], out=workspace.deltas[l - 1][:rows])
            # The mask as 1.0/0.0 floats: the same products as a bool mask,
            # without the cast buffer a bool operand costs.
            delta *= np.greater(activations[l], 0.0, out=activations[l])
    return workspace.weight_grads, workspace.bias_grads


def train_epoch(
    params: ModelParams,
    train_set: Dataset,
    lam: float,
    config: TrainConfig,
    rng: np.random.Generator,
    workspace: Workspace,
) -> float:
    """One shuffled pass of minibatch SGD at curriculum weight ``lam``.

    Updates ``params`` in place and returns the mean per-sample blended
    loss over the epoch. Each step fills ``workspace``, which needs at
    least ``min(batch_size, len(train_set))`` rows.
    """
    n = len(train_set)
    order = rng.permutation(n)
    # One label check and one one-hot per epoch, sliced per batch; the features
    # are gathered a batch at a time, so no shuffled copy of the train set lives.
    onehot = class_onehot(train_set.labels[order])
    total_loss = 0.0
    for start in range(0, n, config.batch_size):
        x = train_set.features.take(order[start : start + config.batch_size], axis=0)
        scores, activations = _forward(params, x, workspace)
        losses, grads = batch_combined_loss_grad(scores, onehot[start : start + config.batch_size], lam)
        total_loss += float(np.add.reduce(losses))
        grads /= len(x)
        _backward(params, grads, activations, workspace)
        # dw * lr is the same IEEE product as lr * dw, element by element.
        workspace.grads *= config.learning_rate
        params.flat -= workspace.grads
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

    best_epoch = 0
    epoch_losses: list[float] = []
    val_scores: list[float] = []
    workspace = Workspace(params, min(config.batch_size, len(train_set)))
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch, lam in enumerate(lambdas):
            try:
                epoch_losses.append(train_epoch(params, train_set, lam, config, rng, workspace))
                probs = predict_proba_batch(params, val_set.features)
                score = mean_recall(np.argmax(probs, axis=1), val_set.labels)
                if epoch == 0 or score > val_scores[best_epoch]:
                    best_epoch = epoch
                    best_params = params.copy()
                val_scores.append(score)
            except ValueError as e:
                raise ValueError(f"epoch {epoch}: {e}") from e
    return TrainResult(
        params=best_params,
        best_epoch=best_epoch,
        epoch_losses=epoch_losses,
        val_scores=val_scores,
    )

