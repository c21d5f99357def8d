"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they complete.
"""

import math
from contextlib import contextmanager

import numpy as np
import pytest

from curricula import cli
from curricula.data import SynthConfig, generate_synthetic, stratified_kfold
from curricula.harness import (
    Arm,
    build_dataset,
    child_seed,
    parse_config,
    render_report,
    resolved_seeds,
    run_experiment,
)
from curricula.losses import coarsen, combined_loss, combined_loss_grad, easy_loss, hard_loss, softmax
from curricula.metrics import accuracy, auc_binary, average_auc, evaluate
from curricula.model import TrainConfig, init, predict_proba_batch, train
from curricula.scheduler import CURRICULUM_KINDS, SchedulerSpec, lambda_at
from test_golden import GOLDEN_DIRS
from test_scheduler import REFERENCE_FORMS

TABLE_COUNTS = (349, 653, 707)


@contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {number}: FAIL — {title}")
        raise
    print(f"\nACCEPTANCE {number}: PASS — {title}")


def test_criterion_1_scheduler_closed_forms():
    with criterion(1, "scheduler closed forms match at every epoch (L=100, E=200)"):
        L, E = 100, 200
        forms = {
            "cosine": lambda e: (math.cos(e * math.pi / L) + 1.0) / 2.0,
            "linear": lambda e: 1.0 - e / L,
            "concave_quadratic": lambda e: -((e / L) ** 2) + 1.0,
            "convex_quadratic": lambda e: (e - L) ** 2 / L**2,
            "exponential": lambda e: (1e-3) ** (e / L),
            "logarithm": lambda e: math.log(1.0 + L - e) / math.log(1.0 + L),
            "step": lambda e: 1.0,
        }
        assert set(forms) == set(CURRICULUM_KINDS)
        for kind, form in forms.items():
            spec = SchedulerSpec(kind=kind, switch_epoch=L)
            assert lambda_at(spec, 0) == 1.0
            for e in range(E + 1):
                expected = form(e) if e < L else 0.0
                assert abs(lambda_at(spec, e) - expected) <= 1e-12, (kind, e)
            for e in range(L, E + 1):
                assert lambda_at(spec, e) == 0.0


def test_criterion_2_loss_endpoints_and_linearity():
    with criterion(2, "blended loss endpoints are bit-exact and linear in the weight"):
        rng = np.random.default_rng(20)
        for _ in range(10_000):
            p = rng.dirichlet(np.ones(3))
            y = int(rng.integers(3))
            assert combined_loss(p, y, 0.0) == hard_loss(p, y)
            assert combined_loss(p, y, 1.0) == easy_loss(p, coarsen(y))

        for _ in range(2_000):
            p = rng.dirichlet(np.ones(3))
            y = int(rng.integers(3))
            lam1, lam2, t = rng.uniform(size=3)
            blended = combined_loss(p, y, t * lam1 + (1 - t) * lam2)
            expected = t * combined_loss(p, y, lam1) + (1 - t) * combined_loss(p, y, lam2)
            assert abs(blended - expected) <= 1e-12


def _relative_error(a: np.ndarray, b: np.ndarray) -> float:
    denom = max(np.linalg.norm(a), np.linalg.norm(b), 1e-8)
    return float(np.linalg.norm(a - b) / denom)


def test_criterion_3_gradient_oracle():
    with criterion(3, "analytic gradients match central finite differences (rel err < 1e-4)"):
        step = 1e-6
        rng = np.random.default_rng(30)

        # score-level gradient of the blended loss
        for _ in range(1_000):
            scores = rng.normal(scale=2.0, size=3)
            y = int(rng.integers(3))
            lam = float(rng.uniform())
            analytic = combined_loss_grad(scores, y, lam)
            fd = np.zeros(3)
            for c in range(3):
                up, down = scores.copy(), scores.copy()
                up[c] += step
                down[c] -= step
                fd[c] = (
                    combined_loss(softmax(up), y, lam) - combined_loss(softmax(down), y, lam)
                ) / (2 * step)
            assert _relative_error(analytic, fd) < 1e-4

        # full-network backprop on random small networks
        from curricula.data import _class_onehot
        from curricula.losses import batch_combined_loss_grad
        from curricula.model import _backward, _forward, _layer_views

        def batch_loss(params, x, y, lam):
            losses, _ = batch_combined_loss_grad(_forward(params, x)[0], _class_onehot(y), lam)
            return float(losses.mean())

        checks = 0
        while checks < 1_000:
            params = init([3, 4, 3], seed=int(rng.integers(100_000)))
            x = rng.normal(size=(4, 3))
            y = rng.integers(3, size=4)
            lam = float(rng.uniform())
            scores, activations = _forward(params, x)
            _, grads = batch_combined_loss_grad(scores, _class_onehot(y), lam)
            _, _, weight_grads, bias_grads = _layer_views(params.layer_sizes)
            _backward(params, grads / len(y), activations, weight_grads, bias_grads)

            tensors = list(zip(params.weights, weight_grads)) + list(
                zip(params.biases, bias_grads)
            )
            for tensor, grad in tensors:
                flat = tensor.reshape(-1)
                idx = int(rng.integers(flat.size))
                orig = flat[idx]
                flat[idx] = orig + step
                up = batch_loss(params, x, y, lam)
                flat[idx] = orig - step
                down = batch_loss(params, x, y, lam)
                flat[idx] = orig
                fd = (up - down) / (2 * step)
                analytic = grad.reshape(-1)[idx]
                denom = max(abs(fd), abs(analytic), 1e-8)
                assert abs(fd - analytic) / denom < 1e-4
                checks += 1


def test_criterion_4_auc_oracle():
    with criterion(4, "rank-based AUC equals the O(n^2) pairwise oracle exactly"):
        rng = np.random.default_rng(40)

        def pairwise(scores, targets):
            pos = scores[targets.astype(bool)]
            neg = scores[~targets.astype(bool)]
            credit = (pos[:, None] > neg[None, :]) + 0.5 * (pos[:, None] == neg[None, :])
            return float(credit.sum() / (len(pos) * len(neg)))

        for case in range(500):
            n = int(rng.integers(2, 201))
            if case % 2 == 0:
                scores = rng.integers(0, max(2, n // 5), size=n).astype(float)  # heavy ties
            else:
                scores = rng.normal(size=n)
            targets = rng.integers(0, 2, size=n)
            if targets.sum() in (0, n):
                targets[0] = 1 - targets[0]
            assert auc_binary(scores, targets) == pairwise(scores, targets)

        for _ in range(50):
            n = int(rng.integers(10, 120))
            labels = rng.integers(0, 3, size=n)
            labels[:3] = [0, 1, 2]
            probs = rng.dirichlet(np.ones(3), size=n)
            expected = np.mean(
                [pairwise(probs[:, c], (labels == c).astype(int)) for c in range(3)]
            )
            assert average_auc(probs, labels) == expected


def test_criterion_5_partition_contract():
    with criterion(5, "stratified 5-fold partitions are disjoint, covering, proportional ±1"):
        ds = generate_synthetic(SynthConfig(counts=TABLE_COUNTS), 11)
        partitions = stratified_kfold(ds, k=5, val_fraction=0.2, seed=3)
        all_ids = set(ds.ids.tolist())
        tested: list[int] = []
        for part in partitions:
            train_ids = set(part.train_ids.tolist())
            val_ids = set(part.val_ids.tolist())
            test_ids = set(part.test_ids.tolist())
            assert not (train_ids & val_ids or train_ids & test_ids or val_ids & test_ids)
            assert train_ids | val_ids | test_ids == all_ids
            tested.extend(part.test_ids.tolist())
            for c in range(3):
                n_c = TABLE_COUNTS[c]
                class_ids = set(ds.ids[ds.labels == c].tolist())
                test_c = len(test_ids & class_ids)
                val_c = len(val_ids & class_ids)
                train_c = len(train_ids & class_ids)
                assert abs(test_c - n_c / 5) <= 1.0
                assert abs(val_c - (n_c - test_c) * 0.2) <= 1.0
                assert abs(train_c - (n_c - test_c) * 0.8) <= 1.0
        assert sorted(tested) == sorted(all_ids)


DETERMINISM_CONFIG = """\
seed: 17
k: 5
data:
  synthetic:
    counts: [60, 60, 60]
    overlap: 0.3
train:
  learning_rate: 0.05
  epochs: 20
  batch_size: 32
  hidden_sizes: [8]
arms:
  - kind: constant_zero
  - kind: linear
  - kind: step
"""


def test_criterion_6_end_to_end_determinism(tmp_path):
    with criterion(6, "two `run` executions produce byte-identical CSV reports"):
        config = tmp_path / "config.yaml"
        config.write_text(DETERMINISM_CONFIG)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert cli.main(["run", "--config", str(config), "--out", str(out_a)]) == 0
        assert cli.main(["run", "--config", str(config), "--out", str(out_b)]) == 0
        assert (out_a / "per_fold.csv").read_bytes() == (out_b / "per_fold.csv").read_bytes()
        assert (out_a / "means.csv").read_bytes() == (out_b / "means.csv").read_bytes()


FULL_CONFIG = """\
seed: 11
k: 5
data:
  synthetic:
    counts: [349, 653, 707]
    feature_dim: 2
    separation: 3.0
    overlap: 0.25
    noise: 1.0
train:
  learning_rate: 0.05
  epochs: 100
  batch_size: 32
  hidden_sizes: [16]
arms:
  - kind: constant_zero
  - kind: exponential
  - kind: convex_quadratic
  - kind: linear
  - kind: cosine
  - kind: concave_quadratic
  - kind: logarithm
  - kind: step
"""


def _plain_softmax(scores):
    shifted = scores - scores.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _scripted_run(dataset, partition, config, init_seed, shuffle_seed, score_grad):
    """An independently scripted training run.

    Shares the init/shuffle seeds and the evaluation protocol with the
    harness (that sharing is the point of the comparison) but writes out
    the forward pass, backpropagation, SGD and best-epoch selection.
    ``score_grad(scores, labels, epoch)`` gives each sample's gradient of
    its loss w.r.t. its scores.
    """
    train_set = dataset.subset(partition.train_ids)
    val_set = dataset.subset(partition.val_ids)
    test_set = dataset.subset(partition.test_ids)

    sizes = (dataset.feature_dim, *config.hidden_sizes, 3)
    params = init(sizes, init_seed)  # shared initialization
    weights, biases = params.weights, params.biases
    rng = np.random.default_rng(shuffle_seed)

    def forward(x):
        h = x
        pre_acts, activations = [], [x]
        for w, b in zip(weights[:-1], biases[:-1]):
            z = h @ w.T + b
            pre_acts.append(z)
            h = np.maximum(z, 0.0)
            activations.append(h)
        scores = h @ weights[-1].T + biases[-1]
        return scores, pre_acts, activations

    def recall_score(features, labels):
        pred = np.argmax(_plain_softmax(forward(features)[0]), axis=1)
        recalls = [np.mean(pred[labels == c] == c) for c in np.unique(labels)]
        return float(np.mean(recalls))

    best = None
    best_score = -np.inf
    n = len(train_set)
    for epoch in range(config.epochs):
        order = rng.permutation(n)
        for start in range(0, n, config.batch_size):
            batch = order[start : start + config.batch_size]
            x = train_set.features[batch]
            y = train_set.labels[batch]
            scores, pre_acts, activations = forward(x)
            # the mean over the batch
            delta = score_grad(scores, y, epoch) / len(batch)
            for l in range(len(weights) - 1, -1, -1):
                dw = delta.T @ activations[l]
                db = delta.sum(axis=0)
                if l > 0:
                    delta = (delta @ weights[l]) * (pre_acts[l - 1] > 0.0)
                weights[l] -= config.learning_rate * dw
                biases[l] -= config.learning_rate * db
        score = recall_score(val_set.features, val_set.labels)
        if score > best_score:
            best_score = score
            best = [w.copy() for w in weights], [b.copy() for b in biases]

    weights, biases = best  # forward reads these names, so it now runs the selected epoch
    return evaluate(_plain_softmax(forward(test_set.features)[0]), test_set.labels)


def _plain_cross_entropy_run(dataset, partition, config, init_seed, shuffle_seed):
    """Plain three-class softmax cross-entropy SGD, with no blended-loss machinery."""

    def score_grad(scores, labels, epoch):
        p = _plain_softmax(scores)
        onehot = np.zeros_like(p)
        onehot[np.arange(len(labels)), labels] = 1.0
        return p - onehot

    return _scripted_run(dataset, partition, config, init_seed, shuffle_seed, score_grad)


def _blended_reference_run(dataset, partition, config, init_seed, shuffle_seed, spec):
    """A curriculum arm through the scalar references: each sample's gradient is
    ``combined_loss_grad`` at the epoch's λ, and λ comes from the closed forms
    of ``test_scheduler.REFERENCE_FORMS`` (0 from the switch epoch on, and at
    every epoch of the ``constant_zero`` baseline)."""
    form = REFERENCE_FORMS.get(spec.kind, lambda e, L, eps: 0.0)

    def score_grad(scores, labels, epoch):
        lam = form(epoch, spec.switch_epoch, spec.exp_floor) if epoch < spec.switch_epoch else 0.0
        return np.array([combined_loss_grad(row, int(y), lam) for row, y in zip(scores, labels)])

    return _scripted_run(dataset, partition, config, init_seed, shuffle_seed, score_grad)


METRICS = ("accuracy", "balanced_accuracy", "average_auc", "binary_accuracy", "binary_auc")


def test_criterion_7_desk_scale_experiment(tmp_path):
    with criterion(
        7,
        "full 8-arm x 5-fold run: complete report, binary AUC > 0.55 per arm, "
        "baseline equals an independent plain cross-entropy run",
    ):
        config_path = tmp_path / "config.yaml"
        config_path.write_text(FULL_CONFIG)
        config = parse_config(config_path)
        report = run_experiment(config)

        assert len(report.per_fold) == 8
        table = render_report(report, tmp_path / "out")
        lines = table.splitlines()
        assert len(lines) == 9  # header plus one row per arm
        assert lines[0].split()[1:] == list(METRICS)

        for name in report.per_fold:
            assert report.means[name].binary_auc > 0.55, name

        # the baseline arm must equal an independently scripted plain run
        dataset = generate_synthetic(
            SynthConfig(
                counts=TABLE_COUNTS,
                feature_dim=2,
                separation=3.0,
                overlap=0.25,
                noise=1.0,
            ),
            child_seed(config.seed, "data"),
        )
        partitions = stratified_kfold(
            dataset, config.k, config.val_fraction, child_seed(config.seed, "folds")
        )
        for part in partitions:
            independent = _plain_cross_entropy_run(
                dataset,
                part,
                config.train,
                child_seed(config.seed, "init", part.fold_index),
                child_seed(config.seed, "shuffle", part.fold_index),
            )
            ours = report.per_fold["constant_zero"][part.fold_index]
            for metric in METRICS:
                assert abs(getattr(ours, metric) - getattr(independent, metric)) <= 1e-12


@pytest.mark.parametrize("golden", GOLDEN_DIRS, ids=lambda path: path.name)
def test_every_golden_arm_equals_a_blended_reference_run(golden):
    # An end-to-end oracle for the curriculum arms that does not run through
    # the batch loss kernel or the package's scheduler.
    config = parse_config(golden / "config.yaml")
    report = run_experiment(config)
    dataset = build_dataset(config)
    seeds = resolved_seeds(config)
    for part in stratified_kfold(dataset, config.k, config.val_fraction, seeds["folds"]):
        i = part.fold_index
        for arm in config.arms:
            reference = _blended_reference_run(
                dataset, part, config.train, seeds["init"][i], seeds["shuffle"][i], arm.spec
            )
            ours = report.per_fold[arm.name][i]
            for metric in METRICS:
                assert abs(getattr(ours, metric) - getattr(reference, metric)) <= 1e-12, (arm.name, i, metric)


def test_criterion_8_smoke_learnability():
    with criterion(8, "separable three-blob data reaches 95% training accuracy in 50 epochs"):
        dataset = generate_synthetic(
            SynthConfig(counts=(100, 100, 100), separation=6.0, overlap=1.0, noise=1.0), 80
        )
        config = TrainConfig(learning_rate=0.05, epochs=50, batch_size=32, hidden_sizes=(16,))
        params = init([2, 16, 3], seed=81)
        result = train(params, dataset, dataset, [0.0] * 50, config, np.random.default_rng(82))
        assert accuracy(predict_proba_batch(result.params, dataset.features), dataset.labels) >= 0.95
