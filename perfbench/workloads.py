"""Benchmark workloads: configs generated from a seed, and the work they imply.

Everything here is standard library only, so that the worker process can
import it before ``curricula`` without moving its set-up time. The counts
and sizes below are derived from the config arithmetic alone, never from
the program under test, so they can check it.
"""

from __future__ import annotations

from dataclasses import dataclass

CRITERION_7_ARMS = (
    "constant_zero",
    "exponential",
    "convex_quadratic",
    "linear",
    "cosine",
    "concave_quadratic",
    "logarithm",
    "step",
)

# Every function the traced run wraps, by layer.
TRACED_FUNCTIONS = (
    "harness.parse_config",
    "harness.build_dataset",
    "harness.run_arm_on_fold",
    "harness.run_experiment",
    "harness.render_report",
    "data.generate_synthetic",
    "data.load_csv",
    "data.write_csv",
    "data.stratified_kfold",
    "data.write_partitions_csv",
    "data.Dataset.subset",
    "model.init",
    "model.train",
    "model.train_epoch",
    "model.predict_proba_batch",
    "model.mean_recall",
    "losses.batch_combined_loss_grad",
    "metrics.evaluate",
    "scheduler.lambda_at",
)

# Counted but not timed: a span per call would cost more than the call.
COUNT_ONLY = frozenset({"scheduler.lambda_at"})


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    counts: tuple[int, int, int]
    feature_dim: int
    hidden_sizes: tuple[int, ...]
    batch_size: int
    epochs: int
    arms: tuple[str, ...]
    via_cli: bool
    # the traced function, or the layer, meant to have the largest self time
    dominant: str | None
    # every arm's mean binary AUC must exceed this; None skips the check
    min_binary_auc: float | None = 0.55
    k: int = 5
    val_fraction: float = 0.2
    learning_rate: float = 0.05

    @property
    def n_samples(self) -> int:
        return sum(self.counts)

    def config_files(self, seed: int) -> dict[str, str]:
        """The YAML configs the worker reads, keyed by file name.

        ``run.yaml`` drives the experiment. A CLI workload also has
        ``gen.yaml``, which ``gen-data`` and ``folds`` read, while
        ``run.yaml`` then reads the generated ``data.csv``.
        """
        master = seed % 2**63
        synthetic = (
            "  synthetic:\n"
            f"    counts: [{', '.join(str(c) for c in self.counts)}]\n"
            f"    feature_dim: {self.feature_dim}\n"
            "    separation: 3.0\n"
            "    overlap: 0.25\n"
            "    noise: 1.0\n"
        )
        rest = (
            "train:\n"
            f"  learning_rate: {self.learning_rate!r}\n"
            f"  epochs: {self.epochs}\n"
            f"  batch_size: {self.batch_size}\n"
            f"  hidden_sizes: [{', '.join(str(h) for h in self.hidden_sizes)}]\n"
            "arms:\n" + "".join(f"  - kind: {kind}\n" for kind in self.arms)
        )
        head = f"seed: {master}\nk: {self.k}\nval_fraction: {self.val_fraction!r}\nout_dir: out\ndata:\n"
        if not self.via_cli:
            return {"run.yaml": head + synthetic + rest}
        return {"gen.yaml": head + synthetic + rest, "run.yaml": head + "  csv: data.csv\n" + rest}

    def n_train_per_fold(self) -> list[int]:
        """Training-set size of each fold, from the stratified split rules.

        Each class is dealt round-robin into k folds; of the rest, the
        validation share is ``int(val_fraction * remaining + 0.5)``.
        """
        sizes = []
        for fold in range(self.k):
            n_train = 0
            for n_c in self.counts:
                remaining = n_c - (n_c - fold + self.k - 1) // self.k
                n_train += remaining - int(self.val_fraction * remaining + 0.5)
            sizes.append(n_train)
        return sizes

    def train_samples(self) -> int:
        """Samples pushed through SGD: arms x epochs x sum of fold train sizes."""
        return len(self.arms) * self.epochs * sum(self.n_train_per_fold())

    def train_matmul_flops(self) -> int:
        """Matmul FLOPs of every ``train_epoch`` call, from the layer shapes.

        Per sample and layer of shape (in, out): the forward product and the
        weight gradient, plus the propagated delta for all but the first
        layer, each 2 * in * out FLOPs.
        """
        sizes = (self.feature_dim, *self.hidden_sizes, 3)
        per_sample = sum(
            2 * fan_in * fan_out * (2 if layer == 0 else 3)
            for layer, (fan_in, fan_out) in enumerate(zip(sizes[:-1], sizes[1:]))
        )
        return per_sample * self.train_samples()

    def expected_calls(self) -> dict[str, int]:
        """How often a correct run calls each traced function."""
        a, k, e = len(self.arms), self.k, self.epochs
        units = a * k
        batches = sum(-(-n // self.batch_size) for n in self.n_train_per_fold())
        calls = {
            "harness.run_arm_on_fold": units,
            "harness.run_experiment": 1,
            "harness.render_report": 1,
            "data.Dataset.subset": 3 * units,
            "model.init": units,
            "model.train": units,
            "model.train_epoch": units * e,
            # one validation pass per epoch, one test pass per unit
            "model.predict_proba_batch": units * (e + 1),
            "model.mean_recall": units * e,
            "losses.batch_combined_loss_grad": a * e * batches,
            "metrics.evaluate": units,
            "scheduler.lambda_at": units * e,
        }
        if self.via_cli:
            # the worker parses run.yaml, then gen-data, folds and run each parse
            calls.update({
                "harness.parse_config": 4,
                "harness.build_dataset": 2,
                "data.generate_synthetic": 2,
                "data.load_csv": 1,
                "data.write_csv": 1,
                "data.stratified_kfold": 2,
                "data.write_partitions_csv": 1,
            })
        else:
            calls.update({
                "harness.parse_config": 1,
                "harness.build_dataset": 1,
                "data.generate_synthetic": 1,
                "data.load_csv": 0,
                "data.write_csv": 0,
                "data.stratified_kfold": 1,
                "data.write_partitions_csv": 0,
            })
        return calls


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="desk",
            why=(
                "criterion-7 arms, data and folds at 10 of its 100 epochs: 8 arms x 5 folds on 1709 "
                "samples, 14k small SGD steps; stresses per-step Python overhead in model and losses"
            ),
            counts=(349, 653, 707),
            feature_dim=2,
            hidden_sizes=(16,),
            batch_size=32,
            # 10 epochs, not criterion 7's 100: at 100 a run takes about 22 s,
            # so a 40 s window holds one run and run_s is a single sample; at
            # 10 it is the median of eight or more
            epochs=10,
            arms=CRITERION_7_ARMS,
            via_cli=False,
            dominant="losses.batch_combined_loss_grad",
        ),
        Workload(
            name="wide-mlp",
            why=(
                "hidden [256, 256], batch 128, 2 arms x 20 epochs: BLAS matmuls dominate, so "
                "Python-overhead cuts barely move it and reshaped matmuls show"
            ),
            counts=(600, 1200, 1200),
            feature_dim=32,
            hidden_sizes=(256, 256),
            batch_size=128,
            epochs=20,
            arms=("constant_zero", "linear"),
            via_cli=False,
            dominant="model.train_epoch",
        ),
        Workload(
            name="cli-100k",
            why=(
                "gen-data, folds and run through cli.main on 100k rows, 1 arm x 2 epochs: "
                "stresses CSV I/O and Dataset.subset; one arm bypasses lockstep training"
            ),
            counts=(20000, 40000, 40000),
            feature_dim=8,
            hidden_sizes=(16,),
            batch_size=256,
            epochs=2,
            arms=("linear",),
            via_cli=True,
            dominant="data",
        ),
        # Not in BENCHMARK.json: a seconds-long run through the CLI path that
        # reaches every traced function, for the benchmark's own tests.
        Workload(
            name="smoke",
            why="tiny CLI run that reaches every traced function; for the benchmark's self-tests",
            counts=(30, 40, 40),
            feature_dim=3,
            hidden_sizes=(4,),
            batch_size=16,
            epochs=3,
            arms=("constant_zero", "linear"),
            via_cli=True,
            dominant=None,
            min_binary_auc=None,  # 3 epochs of a 4-unit net need not learn
            k=3,
        ),
    )
}
