"""Experiment harness: config parsing, cross-validated runs, and reports.

A YAML config drives the experiment; its schema is documented in the
"Config schema" section of README.md. Unknown keys are rejected.

Every (arm, fold) run starts from identical initial parameters and the
same shuffle stream, derived deterministically from the master seed and
the fold index, so arms differ only in their curriculum schedule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import yaml

from . import metrics as metrics_mod
from . import model as model_mod
from .data import Dataset, FoldPartition, SynthConfig, generate_synthetic, load_csv, stratified_kfold
from .metrics import METRIC_NAMES, MetricsReport
from .model import TrainConfig
from .scheduler import SchedulerSpec, default_switch_epoch, lambda_at


class ConfigError(ValueError):
    """A config file that does not match the documented schema."""


class ExperimentError(RuntimeError):
    """A failure inside an experiment, annotated with fold/arm context."""


def child_seed(master: int, tag: str, index: int = 0) -> int:
    """Deterministic child seed mixed from (master, index, tag).

    The tag string is folded into the entropy as a little-endian integer
    and the triple is run through numpy's SeedSequence, so child streams
    are independent, reproducible, and platform-stable.
    """
    tag_int = int.from_bytes(tag.encode("utf8"), "little")
    ss = np.random.SeedSequence([int(master), int(index), tag_int])
    return int(ss.generate_state(1, np.uint64)[0])


@dataclass(frozen=True)
class Arm:
    name: str
    spec: SchedulerSpec


@dataclass(frozen=True)
class ExperimentConfig:
    train: TrainConfig
    arms: tuple[Arm, ...]
    synth: SynthConfig | None = None
    csv_path: Path | None = None
    k: int = 5
    val_fraction: float = 0.2
    seed: int = 0
    out_dir: Path = Path("out")
    echo: dict | None = None

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise ConfigError(f"seed must be a non-negative integer, got {self.seed!r}")
        if self.k < 2:
            raise ConfigError(f"config.k must be at least 2, got {self.k!r}")
        if not (0.0 < self.val_fraction < 1.0):
            raise ConfigError(f"config.val_fraction must lie in (0, 1), got {self.val_fraction!r}")
        if (self.synth is None) == (self.csv_path is None):
            raise ConfigError("config needs exactly one data source (synthetic or csv)")
        if not self.arms:
            raise ConfigError("config needs at least one arm")
        names = [arm.name for arm in self.arms]
        if len(set(names)) != len(names):
            raise ConfigError(f"arm names must be unique, got {names}")
        for arm in self.arms:
            if arm.spec.total_epochs != self.train.epochs:
                raise ConfigError(
                    f"arm {arm.name!r}: scheduler E={arm.spec.total_epochs} "
                    f"must equal train.epochs={self.train.epochs}"
                )


def _require_mapping(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be a mapping, got {type(value).__name__}")
    return value


def _reject_unknown(section: dict, allowed: set[str], where: str) -> None:
    unknown = sorted(set(section) - allowed)
    if unknown:
        raise ConfigError(f"{where}: unknown keys {unknown}; allowed keys are {sorted(allowed)}")


def _get_int(section: dict, key: str, default: int, where: str) -> int:
    value = section.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where}.{key} must be an integer, got {value!r}")
    return value


def _get_float(section: dict, key: str, default: float, where: str) -> float:
    value = section.get(key, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where}.{key} must be a number, got {value!r}")
    if not math.isfinite(value):
        raise ConfigError(f"{where}.{key} must be finite, got {value!r}")
    return float(value)


def parse_config(path: str | Path) -> ExperimentConfig:
    """Load and fully validate a YAML experiment config."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file {path} does not exist")
    with path.open() as fh:
        raw = yaml.safe_load(fh)
    raw = _require_mapping(raw, "config")
    _reject_unknown(raw, {"data", "train", "arms", "k", "val_fraction", "seed", "out_dir"}, "config")

    if "data" not in raw:
        raise ConfigError("config: missing required section 'data'")
    data = _require_mapping(raw["data"], "data")
    _reject_unknown(data, {"synthetic", "csv"}, "data")

    synth = None
    csv_path = None
    if "synthetic" in data and "csv" in data:
        raise ConfigError("data: give either 'synthetic' or 'csv', not both")
    if "synthetic" in data:
        s = _require_mapping(data["synthetic"], "data.synthetic")
        _reject_unknown(s, {"counts", "feature_dim", "separation", "overlap", "noise", "seed"}, "data.synthetic")
        if "counts" not in s:
            raise ConfigError("data.synthetic: missing required key 'counts'")
        counts = s["counts"]
        if (
            not isinstance(counts, (list, tuple))
            or len(counts) != 3
            or any(isinstance(c, bool) or not isinstance(c, int) for c in counts)
        ):
            raise ConfigError(f"data.synthetic.counts must be a list of three integers, got {counts!r}")
        seed = s.get("seed")
        if seed is not None and (isinstance(seed, bool) or not isinstance(seed, int)):
            raise ConfigError(f"data.synthetic.seed must be an integer, got {seed!r}")
        try:
            synth = SynthConfig(
                counts=tuple(counts),
                feature_dim=_get_int(s, "feature_dim", 2, "data.synthetic"),
                separation=_get_float(s, "separation", 3.0, "data.synthetic"),
                overlap=_get_float(s, "overlap", 0.25, "data.synthetic"),
                noise=_get_float(s, "noise", 1.0, "data.synthetic"),
                seed=seed,
            )
        except ValueError as e:
            raise ConfigError(f"data.synthetic: {e}") from None
    elif "csv" in data:
        if not isinstance(data["csv"], str):
            raise ConfigError(f"data.csv must be a path string, got {data['csv']!r}")
        csv_path = Path(data["csv"])
    else:
        raise ConfigError("data: needs 'synthetic' or 'csv'")

    train_raw = _require_mapping(raw.get("train", {}), "train")
    _reject_unknown(train_raw, {"learning_rate", "epochs", "batch_size", "hidden_sizes"}, "train")
    hidden = train_raw.get("hidden_sizes", [16])
    if not isinstance(hidden, list) or any(isinstance(h, bool) or not isinstance(h, int) for h in hidden):
        raise ConfigError(f"train.hidden_sizes must be a list of integers, got {hidden!r}")
    try:
        train = TrainConfig(
            learning_rate=_get_float(train_raw, "learning_rate", 0.05, "train"),
            epochs=_get_int(train_raw, "epochs", 100, "train"),
            batch_size=_get_int(train_raw, "batch_size", 32, "train"),
            hidden_sizes=tuple(hidden),
        )
    except ValueError as e:
        raise ConfigError(f"train: {e}") from None

    if "arms" not in raw:
        raise ConfigError("config: missing required section 'arms'")
    arms_raw = raw["arms"]
    if not isinstance(arms_raw, list) or not arms_raw:
        raise ConfigError("arms must be a non-empty list")
    arms = []
    for i, arm_raw in enumerate(arms_raw):
        where = f"arms[{i}]"
        arm_raw = _require_mapping(arm_raw, where)
        _reject_unknown(arm_raw, {"kind", "L", "E", "epsilon", "name"}, where)
        if "kind" not in arm_raw:
            raise ConfigError(f"{where}: missing required key 'kind'")
        kind = arm_raw["kind"]
        total = _get_int(arm_raw, "E", train.epochs, where)
        switch = _get_int(arm_raw, "L", default_switch_epoch(total), where)
        try:
            spec = SchedulerSpec(
                kind=kind,
                switch_epoch=switch,
                total_epochs=total,
                exp_floor=_get_float(arm_raw, "epsilon", 1e-3, where),
            )
        except ValueError as e:
            raise ConfigError(f"{where}: {e}") from None
        name = arm_raw.get("name", kind)
        if not isinstance(name, str) or not name:
            raise ConfigError(f"{where}.name must be a non-empty string, got {name!r}")
        arms.append(Arm(name=name, spec=spec))

    out_dir = raw.get("out_dir", "out")
    if not isinstance(out_dir, str):
        raise ConfigError(f"out_dir must be a path string, got {out_dir!r}")

    return ExperimentConfig(
        train=train,
        arms=tuple(arms),
        synth=synth,
        csv_path=csv_path,
        k=_get_int(raw, "k", 5, "config"),
        val_fraction=_get_float(raw, "val_fraction", 0.2, "config"),
        seed=_get_int(raw, "seed", 0, "config"),
        out_dir=Path(out_dir),
        echo=raw,
    )


def resolved_synth(config: ExperimentConfig) -> SynthConfig:
    """The config's synthetic-data parameters with the seed filled in: the
    configured ``data.synthetic.seed``, else one derived from the master seed."""
    if config.synth.seed is not None:
        return config.synth
    return replace(config.synth, seed=child_seed(config.seed, "data"))


def build_dataset(config: ExperimentConfig) -> Dataset:
    """Materialise the config's data source."""
    if config.csv_path is not None:
        return load_csv(config.csv_path)
    return generate_synthetic(resolved_synth(config))


@dataclass(frozen=True)
class ExperimentReport:
    """Per-fold and mean metrics for every arm, plus reproducibility info."""

    arm_names: tuple[str, ...]
    per_fold: dict[str, list[MetricsReport]]
    means: dict[str, MetricsReport]
    config_echo: dict
    seeds: dict


def _mean_report(fold_reports: list[MetricsReport]) -> MetricsReport:
    values = {
        name: float(np.mean([getattr(r, name) for r in fold_reports])) for name in METRIC_NAMES
    }
    return MetricsReport(n_samples=sum(r.n_samples for r in fold_reports), **values)


def run_arm_on_fold(
    arm: Arm,
    dataset: Dataset,
    partition: FoldPartition,
    train_config: TrainConfig,
    init_seed: int,
    shuffle_seed: int,
) -> MetricsReport:
    """Train one arm on one partition and evaluate it on the test fold."""
    train_set = dataset.subset(partition.train_ids)
    val_set = dataset.subset(partition.val_ids)
    test_set = dataset.subset(partition.test_ids)
    layer_sizes = (dataset.feature_dim, *train_config.hidden_sizes, 3)
    params = model_mod.init(layer_sizes, init_seed)
    rng = np.random.default_rng(shuffle_seed)
    lambdas = [lambda_at(arm.spec, e) for e in range(train_config.epochs)]
    result = model_mod.train(params, train_set, val_set, lambdas, train_config, rng)
    probs = model_mod.predict_proba_batch(result.params, test_set.features)
    return metrics_mod.evaluate(probs, test_set.labels)


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Run every (arm, fold) combination and aggregate the metrics.

    Arms within a fold share the derived init and shuffle seeds, so they
    start identically and differ only through their schedules. Fully
    deterministic given the config.
    """
    dataset = build_dataset(config)
    folds_seed = child_seed(config.seed, "folds")
    partitions = stratified_kfold(dataset, config.k, config.val_fraction, folds_seed)

    fold_seeds = {
        part.fold_index: {
            "init": child_seed(config.seed, "init", part.fold_index),
            "shuffle": child_seed(config.seed, "shuffle", part.fold_index),
        }
        for part in partitions
    }

    per_fold: dict[str, list[MetricsReport]] = {arm.name: [] for arm in config.arms}
    for part in partitions:
        seeds = fold_seeds[part.fold_index]
        for arm in config.arms:
            try:
                report = run_arm_on_fold(
                    arm, dataset, part, config.train, seeds["init"], seeds["shuffle"]
                )
            except Exception as e:
                raise ExperimentError(f"fold {part.fold_index}, arm {arm.name!r}: {e}") from e
            per_fold[arm.name].append(report)

    means = {name: _mean_report(reports) for name, reports in per_fold.items()}
    return ExperimentReport(
        arm_names=tuple(arm.name for arm in config.arms),
        per_fold=per_fold,
        means=means,
        config_echo=config.echo if config.echo is not None else {},
        seeds={"master": config.seed, "folds": folds_seed, "per_fold": fold_seeds},
    )


PER_FOLD_HEADER = "arm,fold," + ",".join(METRIC_NAMES)
MEANS_HEADER = "arm," + ",".join(METRIC_NAMES)


def render_report(report: ExperimentReport, out_dir: str | Path) -> str:
    """Write per_fold.csv, means.csv, and report.txt; return the table text.

    The table has one row per arm in config order, the five metric columns
    to three decimals, and the per-column maximum marked with ``*``.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    per_fold_lines = [PER_FOLD_HEADER]
    for name in report.arm_names:
        for fold, rep in enumerate(report.per_fold[name]):
            values = ",".join(repr(getattr(rep, m)) for m in METRIC_NAMES)
            per_fold_lines.append(f"{name},{fold},{values}")
    (out_dir / "per_fold.csv").write_text("\n".join(per_fold_lines) + "\n")

    means_lines = [MEANS_HEADER]
    for name in report.arm_names:
        values = ",".join(repr(getattr(report.means[name], m)) for m in METRIC_NAMES)
        means_lines.append(f"{name},{values}")
    (out_dir / "means.csv").write_text("\n".join(means_lines) + "\n")

    col_max = {
        m: max(getattr(report.means[name], m) for name in report.arm_names) for m in METRIC_NAMES
    }
    name_width = max(len("arm"), max(len(n) for n in report.arm_names))
    header_cells = ["arm".ljust(name_width)] + [m.rjust(18) for m in METRIC_NAMES]
    lines = ["  ".join(header_cells)]
    for name in report.arm_names:
        cells = [name.ljust(name_width)]
        for m in METRIC_NAMES:
            value = getattr(report.means[name], m)
            mark = "*" if value == col_max[m] else " "
            cells.append(f"{value:.3f}{mark}".rjust(18))
        lines.append("  ".join(cells))
    table = "\n".join(lines) + "\n"
    (out_dir / "report.txt").write_text(table)
    return table
