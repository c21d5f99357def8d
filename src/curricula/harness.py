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
            if arm.spec.switch_epoch > self.train.epochs:
                raise ConfigError(
                    f"arm {arm.name!r}: switch epoch L={arm.spec.switch_epoch} "
                    f"must be at most train.epochs={self.train.epochs}"
                )


def _int(value, name: str) -> int:
    if type(value) is not int:  # bool is a subclass of int
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return value


def _float(value, name: str) -> float:
    if type(value) not in (int, float):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    if not math.isfinite(value):
        raise ConfigError(f"{name} must be finite, got {value!r}")
    return float(value)


def _ints(value, name: str, three: bool = False) -> tuple[int, ...]:
    if not isinstance(value, list) or any(type(v) is not int for v in value) or (three and len(value) != 3):
        raise ConfigError(f"{name} must be a list of {'three ' if three else ''}integers, got {value!r}")
    return tuple(value)


def _path(value, name: str) -> Path:
    if not isinstance(value, str):
        raise ConfigError(f"{name} must be a path string, got {value!r}")
    return Path(value)


def _build(cls, fields: dict, where: str):
    """``cls(**fields)``, its ``ValueError`` re-raised as a ``ConfigError`` naming ``where``."""
    try:
        return cls(**fields)
    except ValueError as e:
        raise ConfigError(f"{where}: {e}") from None


# Each section's keys, mapped to the dataclass field a key sets and the check
# that turns its value into the field's. A key the file leaves out is not
# passed on, so the dataclasses hold every default.
_CONFIG_KEYS = {
    "out_dir": ("out_dir", lambda value, _: _path(value, "out_dir")),  # named without "config."
    "k": ("k", _int),
    "val_fraction": ("val_fraction", _float),
    "seed": ("seed", _int),
}
_DATA_KEYS = {
    "synthetic": (
        "synth", lambda value, name: _build(SynthConfig, _read(value, name, _SYNTH_KEYS, "counts"), name)
    ),
    "csv": ("csv_path", _path),
}
_SYNTH_KEYS = {
    "counts": ("counts", lambda value, name: _ints(value, name, three=True)),
    "seed": ("seed", lambda value, name: None if value is None else _int(value, name)),  # None: derived
    "feature_dim": ("feature_dim", _int),
    "separation": ("separation", _float),
    "overlap": ("overlap", _float),
    "noise": ("noise", _float),
}
_TRAIN_KEYS = {
    "hidden_sizes": ("hidden_sizes", _ints),
    "learning_rate": ("learning_rate", _float),
    "epochs": ("epochs", _int),
    "batch_size": ("batch_size", _int),
}
_ARM_KEYS = {
    "kind": ("kind", lambda value, _: value),
    "L": ("switch_epoch", _int),
    "epsilon": ("exp_floor", _float),
    "name": ("name", lambda value, _: value),
}


def _require_mapping(value, where: str, allowed) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be a mapping, got {type(value).__name__}")
    unknown = sorted(set(value) - set(allowed))
    if unknown:
        raise ConfigError(f"{where}: unknown keys {unknown}; allowed keys are {sorted(allowed)}")
    return value


def _pick(raw: dict, where: str, keys: dict) -> dict:
    """The checked values of the keys ``raw`` sets, by field name."""
    return {field: check(raw[key], f"{where}.{key}") for key, (field, check) in keys.items() if key in raw}


def _read(section, where: str, keys: dict, required: str | None = None) -> dict:
    """``_pick`` of a mapping that holds only ``keys``, ``required`` among them."""
    section = _require_mapping(section, where, keys)
    if required is not None and required not in section:
        raise ConfigError(f"{where}: missing required key {required!r}")
    return _pick(section, where, keys)


def _arm(value, where: str, epochs: int) -> Arm:
    fields = _read(value, where, _ARM_KEYS, "kind")
    name = fields.pop("name", fields["kind"])
    fields.setdefault("switch_epoch", default_switch_epoch(epochs))
    spec = _build(SchedulerSpec, fields, where)
    if not isinstance(name, str) or not name:
        raise ConfigError(f"{where}.name must be a non-empty string, got {name!r}")
    return Arm(name=name, spec=spec)


def parse_config(path: str | Path) -> ExperimentConfig:
    """Load and fully validate a YAML experiment config."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file {path} does not exist")
    with path.open() as fh:
        raw = yaml.safe_load(fh)
    raw = _require_mapping(raw, "config", {"data", "train", "arms", *_CONFIG_KEYS})

    if "data" not in raw:
        raise ConfigError("config: missing required section 'data'")
    data = _require_mapping(raw["data"], "data", _DATA_KEYS)
    if len(data) > 1:
        raise ConfigError("data: give either 'synthetic' or 'csv', not both")
    if not data:
        raise ConfigError("data: needs 'synthetic' or 'csv'")
    source = _pick(data, "data", _DATA_KEYS)

    train = _build(TrainConfig, _read(raw.get("train", {}), "train", _TRAIN_KEYS), "train")

    if "arms" not in raw:
        raise ConfigError("config: missing required section 'arms'")
    if not isinstance(raw["arms"], list) or not raw["arms"]:
        raise ConfigError("arms must be a non-empty list")
    arms = tuple(_arm(arm, f"arms[{i}]", train.epochs) for i, arm in enumerate(raw["arms"]))

    return ExperimentConfig(train=train, arms=arms, **source, **_pick(raw, "config", _CONFIG_KEYS), echo=raw)


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
