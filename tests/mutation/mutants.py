"""One-line mutants of the package source, each with the outcome tier-1 must give it.

A mutant replaces ``old``, which must occur exactly once in ``file``, with
``new``. ``expect`` is ``killed`` (some tier-1 test must fail) or
``equivalent`` (no test can fail, because the program's behaviour is the
same), and ``why`` says what the mutant breaks or why it breaks nothing.
``run.py`` applies them one at a time; add a row for the code each change
touches.
"""

from typing import NamedTuple


class Mutant(NamedTuple):
    id: str
    file: str
    old: str
    new: str
    expect: str
    why: str


MODEL = "src/curricula/model.py"
DATA = "src/curricula/data.py"
METRICS = "src/curricula/metrics.py"
HARNESS = "src/curricula/harness.py"

MUTANTS = [
    # Best-epoch selection and its snapshot.
    Mutant(
        "snapshot-on-ties",
        MODEL,
        "score > max(val_scores)",
        "score >= max(val_scores)",
        "killed",
        "a tie replaces the snapshot with the later epoch's parameters",
    ),
    Mutant(
        "best-epoch-last-maximum",
        MODEL,
        "best_epoch=int(np.argmax(val_scores)),",
        "best_epoch=len(val_scores) - 1 - int(np.argmax(val_scores[::-1])),",
        "killed",
        "ties would report the later epoch",
    ),
    Mutant(
        "snapshot-aliases-params",
        MODEL,
        "best_params = ModelParams(params.layer_sizes, params.flat)",
        "best_params = params",
        "killed",
        "the snapshot follows later epochs, and a diverged best epoch is not refused in that epoch",
    ),
    # The SGD step and the rectifier mask.
    Mutant(
        "sgd-step-ascends",
        MODEL,
        "params.flat -= grads",
        "params.flat += grads",
        "killed",
        "every step climbs the loss",
    ),
    Mutant(
        "mask-passes-zero",
        MODEL,
        "delta *= np.greater(activations[l], 0.0, out=activations[l])",
        "delta *= np.greater_equal(activations[l], 0.0, out=activations[l])",
        "killed",
        "a pre-activation of exactly zero would pass gradient through the rectifier",
    ),
    # What an epoch holds, and the arguments the model checks.
    Mutant(
        "epoch-holds-a-shuffled-feature-copy",
        MODEL,
        "onehot = class_onehot(train_set.labels[order])",
        "onehot, shuffled = class_onehot(train_set.labels[order]), train_set.features[order]",
        "killed",
        "the epoch holds a shuffled copy of the train features, past its allocation bound",
    ),
    Mutant(
        "init-seed-from-one",
        MODEL,
        'whole(seed, "seed", 0)',
        'whole(seed, "seed", 1)',
        "killed",
        "a seed of 0 would be refused",
    ),
    Mutant(
        "train-width-unchecked",
        MODEL,
        "if train_set.feature_dim != params.layer_sizes[0]:",
        "if False:",
        "killed",
        "a train set of the wrong width would fail inside numpy's matmul",
    ),
    # The metrics' input rule.
    Mutant(
        "messages-swapped",
        METRICS,
        '"probabilities must lie in [0, 1]" if np.isfinite(p).all() else "probabilities must be finite"',
        '"probabilities must be finite" if np.isfinite(p).all() else "probabilities must lie in [0, 1]"',
        "killed",
        "NaN would be reported as outside [0, 1], and 2.0 as non-finite",
    ),
    Mutant(
        "finite-message-on-any",
        METRICS,
        "if np.isfinite(p).all() else",
        "if np.isfinite(p).any() else",
        "killed",
        "a NaN beside finite entries would be reported as outside [0, 1]",
    ),
    Mutant(
        "unit-interval-or",
        METRICS,
        "(p >= 0.0) & (p <= 1.0)",
        "(p >= 0.0) | (p <= 1.0)",
        "killed",
        "every finite entry would pass",
    ),
    Mutant(
        "probabilities-may-be-bool",
        METRICS,
        'if p.dtype.kind not in "iuf":',
        'if p.dtype.kind not in "iufb":',
        "killed",
        "a bool matrix would be scored",
    ),
    Mutant(
        "scores-may-be-bool",
        METRICS,
        'if s.dtype.kind not in "iuf":',
        'if s.dtype.kind not in "iufb":',
        "killed",
        "bool scores would be ranked",
    ),
    Mutant(
        "probabilities-returned-uncast",
        METRICS,
        "return p.astype(np.float64, copy=False), y",
        "return p, y",
        "killed",
        "float16 entries would be scored in float16, where 1 - p[0] merges nearby scores into ties",
    ),
    # Identity comparison of the array-holding dataclasses.
    Mutant(
        "dataset-compares-by-value",
        DATA,
        "@dataclass(frozen=True, eq=False)\nclass Dataset:",
        "@dataclass(frozen=True)\nclass Dataset:",
        "killed",
        "comparing two datasets would compare arrays and raise, and a dataset would be unhashable",
    ),
    # Config keys, seeds and the report.
    Mutant(
        "synth-keys-from-train-config",
        HARNESS,
        "_SYNTH_KEYS = {f.name: f.name for f in dataclasses.fields(SynthConfig)}",
        "_SYNTH_KEYS = {f.name: f.name for f in dataclasses.fields(TrainConfig)}",
        "killed",
        "data.synthetic would accept the train keys and refuse its own",
    ),
    Mutant(
        "master-seed-from-one",
        HARNESS,
        'whole(master, "master", 0)',
        'whole(master, "master", 1)',
        "killed",
        "a master seed of 0 would be refused",
    ),
    Mutant(
        "index-from-one",
        HARNESS,
        'whole(index, "index", 0)',
        'whole(index, "index", 1)',
        "killed",
        "the first fold's index, 0, would be refused",
    ),
    Mutant(
        "tag-unchecked",
        HARNESS,
        "if not isinstance(tag, str):",
        "if False:",
        "killed",
        "a tag that is not a string would fail with an AttributeError from its encode call",
    ),
    Mutant(
        "report-accepts-empty-arms",
        HARNESS,
        "if not self.per_fold or empty:",
        "if False:",
        "killed",
        "a report with no arm, or an arm with no folds, would fail only when rendered or averaged",
    ),
    Mutant(
        "report-mark-at-least-max",
        HARNESS,
        'mark = "*" if value == col_max[m] else " "',
        'mark = "*" if value >= col_max[m] else " "',
        "equivalent",
        "no mean exceeds its column maximum, and a report holds no NaN",
    ),
]
