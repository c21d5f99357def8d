"""One-line mutants of the package source, each with the outcome tier-1 must give it.

A mutant replaces ``old``, which must occur exactly once in ``file``, with
``new``. ``expect`` is ``killed`` (some tier-1 test must fail) or
``equivalent`` (no test can fail, because the program's behaviour is the
same), and ``why`` says what the mutant breaks or why it breaks nothing.
``killed_by``, for a killed row, names the test file that kills it: ``run.py``
runs that file first and all of tier-1 only if the mutant survives it.
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
    killed_by: str | None = None


MODEL = "src/curricula/model.py"
DATA = "src/curricula/data.py"
LOSSES = "src/curricula/losses.py"
METRICS = "src/curricula/metrics.py"
HARNESS = "src/curricula/harness.py"
CLI = "src/curricula/cli.py"
CHECKS = "src/curricula/_checks.py"

MUTANTS = [
    # Best-epoch selection and its snapshot.
    Mutant(
        "snapshot-on-ties",
        MODEL,
        "score > max(val_scores)",
        "score >= max(val_scores)",
        "killed",
        "a tie replaces the snapshot with the later epoch's parameters",
        killed_by="tests/test_model.py",
    ),
    Mutant(
        "best-epoch-last-maximum",
        MODEL,
        "best_epoch=int(np.argmax(val_scores)),",
        "best_epoch=len(val_scores) - 1 - int(np.argmax(val_scores[::-1])),",
        "killed",
        "ties would report the later epoch",
        killed_by="tests/test_model.py",
    ),
    Mutant(
        "snapshot-aliases-params",
        MODEL,
        "best_params = ModelParams(params.layer_sizes, params.flat)",
        "best_params = params",
        "killed",
        "the snapshot follows later epochs, and a diverged best epoch is not refused in that epoch",
        killed_by="tests/test_model.py",
    ),
    # The SGD step and the rectifier mask.
    Mutant(
        "sgd-step-ascends",
        MODEL,
        "params.flat -= grads",
        "params.flat += grads",
        "killed",
        "every step climbs the loss",
        killed_by="tests/test_model.py",
    ),
    Mutant(
        "mask-passes-zero",
        MODEL,
        "mask = activation > 0.0",
        "mask = activation >= 0.0",
        "killed",
        "a pre-activation of exactly zero would pass gradient through the rectifier",
        killed_by="tests/test_model.py",
    ),
    Mutant(
        "mask-after-overwrite",
        MODEL,
        "mask = activation > 0.0\n            delta = np.matmul(delta, params.weights[l], out=activation)",
        "delta = np.matmul(delta, params.weights[l], out=activation)\n            mask = activation > 0.0",
        "killed",
        "the mask would be read from the unmasked delta, not from the activation it overwrote",
        killed_by="tests/test_model.py",
    ),
    # What a step holds: the backward pass consumes its activations.
    Mutant(
        "backward-keeps-activations",
        MODEL,
        "activation = activations.pop()",
        "activation = activations[l]",
        "killed",
        "a step's activations live on into the next step's forward pass, past the epoch's allocation bound",
        killed_by="tests/test_model.py",
    ),
    Mutant(
        "delta-into-fresh-array",
        MODEL,
        "delta = np.matmul(delta, params.weights[l], out=activation)",
        "delta = np.matmul(delta, params.weights[l])",
        "killed",
        "each hidden layer's delta takes a fresh array beside its activation, past the epoch's allocation bound",
        killed_by="tests/test_model.py",
    ),
    # What an epoch holds, and the arguments the model checks.
    Mutant(
        "epoch-holds-a-shuffled-feature-copy",
        MODEL,
        "onehot = _class_onehot(train_set.labels[order])",
        "onehot, shuffled = _class_onehot(train_set.labels[order]), train_set.features[order]",
        "killed",
        "the epoch holds a shuffled copy of the train features, past its allocation bound",
        killed_by="tests/test_model.py",
    ),
    Mutant(
        "layer-size-may-be-bool",
        MODEL,
        "if any(isinstance(s, bool) or not isinstance(s, (int, np.integer)) for s in layer_sizes):",
        "if any(not isinstance(s, (int, np.integer)) for s in layer_sizes):",
        "killed",
        "a size of True would build a layer one unit wide",
        killed_by="tests/test_model.py",
    ),
    Mutant(
        "layer-size-python-int-only",
        MODEL,
        "not isinstance(s, (int, np.integer)) for s in layer_sizes",
        "not isinstance(s, (int,)) for s in layer_sizes",
        "killed",
        "sizes passed as a numpy integer array would be refused",
        killed_by="tests/test_list_inputs.py",
    ),
    Mutant(
        "init-seed-from-one",
        MODEL,
        'whole(seed, "seed", 0)',
        'whole(seed, "seed", 1)',
        "killed",
        "a seed of 0 would be refused",
        killed_by="tests/test_list_inputs.py",
    ),
    Mutant(
        "train-width-unchecked",
        MODEL,
        "if train_set.feature_dim != params.layer_sizes[0]:",
        "if False:",
        "killed",
        "a train set of the wrong width would fail inside numpy's matmul",
        killed_by="tests/test_model.py",
    ),
    Mutant(
        "weight-unchecked",
        MODEL,
        "    lam = _check_weight(lam)\n    order",
        "    order",
        "killed",
        "a weight outside [0, 1], NaN or a string would reach the kernel, which checks only the scores",
        killed_by="tests/test_model.py",
    ),
    Mutant(
        "weight-checked-after-the-shuffle",
        MODEL,
        "    lam = _check_weight(lam)\n    order = rng.permutation(n)",
        "    order = rng.permutation(n)\n    lam = _check_weight(lam)",
        "killed",
        "a refused weight would already have drawn the epoch's permutation from the shuffle generator",
        killed_by="tests/test_model.py",
    ),
    # The batch loss kernel and the softmax.
    Mutant(
        "scores-finiteness-unchecked",
        LOSSES,
        "if not np.logical_and.reduce(np.isfinite(scores), axis=None):",
        "if False:",
        "killed",
        "a diverging run would go on with NaN losses instead of failing with scores must be finite",
        killed_by="tests/test_losses.py",
    ),
    Mutant(
        "easy-loss-sign",
        LOSSES,
        "losses *= -lam",
        "losses *= lam",
        "killed",
        "the easy half would subtract its negative log instead of adding it",
        killed_by="tests/test_losses.py",
    ),
    Mutant(
        "easy-loss-label-column",
        LOSSES,
        "np.copyto(losses, p0, where=onehot[:, 0])",
        "np.copyto(losses, p0, where=onehot[:, 1])",
        "killed",
        "label 1, not label 0, would take p0 as its coarse probability",
        killed_by="tests/test_losses.py",
    ),
    Mutant(
        "easy-grad-label-column",
        LOSSES,
        "np.copyto(grad_easy, grads, where=onehot[:, :1])",
        "np.copyto(grad_easy, grads, where=onehot[:, 1:2])",
        "killed",
        "label 1, not label 0, would take the hard gradient as its easy one",
        killed_by="tests/test_losses.py",
    ),
    Mutant(
        "hard-loss-unclamped-above",
        LOSSES,
        "np.minimum(np.maximum(hard, PROB_FLOOR, out=hard), 1.0 - PROB_FLOOR, out=hard)",
        "np.maximum(hard, PROB_FLOOR, out=hard)",
        "killed",
        "a probability that rounds to 1 would give a hard loss of 0, not -log(1 - 1e-12)",
        killed_by="tests/test_properties.py",
    ),
    Mutant(
        "easy-ratio-unclamped",
        LOSSES,
        "ratio = p0 / np.maximum(losses, PROB_FLOOR)",
        "ratio = p0 / losses",
        "killed",
        "a p0 that rounds to 1 would divide by zero and give a non-finite easy gradient",
        killed_by="tests/test_model.py",
    ),
    Mutant(
        "softmax-third-column",
        LOSSES,
        "total += e[..., 2]",
        "total += e[..., 1]",
        "killed",
        "the normaliser would count the second class twice and the third not at all",
        killed_by="tests/test_metrics.py",
    ),
    Mutant(
        "no-lambda-zero-branch",
        LOSSES,
        "if lam == 0.0:",
        "if False:",
        "equivalent",
        "at lam = 0 the blended form adds +0.0 to each loss and a signed zero to each gradient, so its bits are the hard ones",
    ),
    # The metrics' input rule.
    Mutant(
        "messages-swapped",
        METRICS,
        '"probabilities must lie in [0, 1]" if np.isfinite(p).all() else "probabilities must be finite"',
        '"probabilities must be finite" if np.isfinite(p).all() else "probabilities must lie in [0, 1]"',
        "killed",
        "NaN would be reported as outside [0, 1], and 2.0 as non-finite",
        killed_by="tests/test_metrics.py",
    ),
    Mutant(
        "finite-message-on-any",
        METRICS,
        "if np.isfinite(p).all() else",
        "if np.isfinite(p).any() else",
        "killed",
        "a NaN beside finite entries would be reported as outside [0, 1]",
        killed_by="tests/test_metrics.py",
    ),
    Mutant(
        "unit-interval-or",
        METRICS,
        "(p >= 0.0) & (p <= 1.0)",
        "(p >= 0.0) | (p <= 1.0)",
        "killed",
        "every finite entry would pass",
        killed_by="tests/test_metrics.py",
    ),
    Mutant(
        "probabilities-may-be-bool",
        METRICS,
        'if p.dtype.kind not in "iuf":',
        'if p.dtype.kind not in "iufb":',
        "killed",
        "a bool matrix would be scored",
        killed_by="tests/test_metrics.py",
    ),
    Mutant(
        "scores-may-be-bool",
        METRICS,
        'if s.dtype.kind not in "iuf":',
        'if s.dtype.kind not in "iufb":',
        "killed",
        "bool scores would be ranked",
        killed_by="tests/test_metrics.py",
    ),
    Mutant(
        "probabilities-returned-uncast",
        METRICS,
        "return p.astype(np.float64, copy=False), y",
        "return p, y",
        "killed",
        "float16 entries would be scored in float16, where 1 - p[0] merges nearby scores into ties",
        killed_by="tests/test_metrics.py",
    ),
    # Identity comparison of the array-holding dataclasses.
    Mutant(
        "dataset-compares-by-value",
        DATA,
        "@dataclass(frozen=True, eq=False)\nclass Dataset:",
        "@dataclass(frozen=True)\nclass Dataset:",
        "killed",
        "comparing two datasets would compare arrays and raise, and a dataset would be unhashable",
        killed_by="tests/test_model.py",
    ),
    # The id rule and generation under any warning filter.
    Mutant(
        "ids-may-be-bools",
        DATA,
        "if wanted.dtype == bool:",
        "if False:",
        "killed",
        "a mask [True, False] would pass as ids [1, 0], and a mask of repeated values would fail as repeated ids",
        killed_by="tests/test_data.py",
    ),
    Mutant(
        "generation-warns-on-overflow",
        DATA,
        'with np.errstate(over="ignore", invalid="ignore"):  # an overflow fails',
        "with np.errstate():  # an overflow fails",
        "killed",
        "an overflowing noise would print numpy's warning, and fail with it under -W error, before the features check",
        killed_by="tests/test_data.py",
    ),
    # Config keys, seeds and the report.
    Mutant(
        "synth-keys-from-train-config",
        HARNESS,
        "_SYNTH_KEYS = {f.name: f.name for f in dataclasses.fields(SynthConfig)}",
        "_SYNTH_KEYS = {f.name: f.name for f in dataclasses.fields(TrainConfig)}",
        "killed",
        "data.synthetic would accept the train keys and refuse its own",
        killed_by="tests/test_harness.py",
    ),
    Mutant(
        "master-seed-from-one",
        HARNESS,
        'whole(master, "master", 0)',
        'whole(master, "master", 1)',
        "killed",
        "a master seed of 0 would be refused",
        killed_by="tests/test_harness.py",
    ),
    Mutant(
        "index-from-one",
        HARNESS,
        'whole(index, "index", 0)',
        'whole(index, "index", 1)',
        "killed",
        "the first fold's index, 0, would be refused",
        killed_by="tests/test_harness.py",
    ),
    Mutant(
        "tag-unchecked",
        HARNESS,
        "if not isinstance(tag, str):",
        "if False:",
        "killed",
        "a tag that is not a string would fail with an AttributeError from its encode call",
        killed_by="tests/test_harness.py",
    ),
    Mutant(
        "tag-may-hold-nul",
        HARNESS,
        'if "\\x00" in tag:',
        "if False:",
        "killed",
        'a tag "init\\x00" would give the seed of "init"',
        killed_by="tests/test_harness.py",
    ),
    Mutant(
        "epsilon-refused-only-on-exponential",
        HARNESS,
        'spec.kind != "exponential"',
        'spec.kind == "exponential"',
        "killed",
        "epsilon on a linear arm would be silently ignored, and on an exponential arm refused",
        killed_by="tests/test_harness.py",
    ),
    Mutant(
        "path-may-be-empty",
        CHECKS,
        'if not isinstance(value, (str, Path)) or value == "":',
        "if not isinstance(value, (str, Path)):",
        "killed",
        'an out_dir of "" would write the results into the current directory',
        killed_by="tests/test_harness.py",
    ),
    Mutant(
        "report-accepts-empty-arms",
        HARNESS,
        "if not self.per_fold or empty:",
        "if False:",
        "killed",
        "a report with no arm, or an arm with no folds, would fail only when rendered or averaged",
        killed_by="tests/test_harness.py",
    ),
    Mutant(
        "report-mark-at-least-max",
        HARNESS,
        'mark = "*" if value == col_max[m] else " "',
        'mark = "*" if value >= col_max[m] else " "',
        "equivalent",
        "no mean exceeds its column maximum, and a report holds no NaN",
    ),
    # Where `curricula run` writes: --out, else the config's out_dir.
    Mutant(
        "run-ignores-out-flag",
        CLI,
        'config.out_dir if args.out is None else file_path(args.out, "--out")',
        "config.out_dir",
        "killed",
        "--out would be ignored and every run would write to the config's out_dir",
        killed_by="tests/test_harness.py",
    ),
    Mutant(
        "out-flag-unchecked",
        CLI,
        'else file_path(args.out, "--out")',
        "else args.out",
        "killed",
        'run --out "" would run the experiment and write the results into the current directory',
        killed_by="tests/test_harness.py",
    ),
    Mutant(
        "run-ignores-config-out-dir",
        CLI,
        'config.out_dir if args.out is None else file_path(args.out, "--out")',
        'file_path(args.out or "out", "--out")',
        "killed",
        "a run without --out would write to ./out whatever the config's out_dir says",
        killed_by="tests/test_harness.py",
    ),
]
