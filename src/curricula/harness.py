"""Experiment harness: config parsing, cross-validated runs, and reports.

A YAML config drives the experiment; its schema is documented in the
"Config schema" section of README.md. Unknown and repeated keys are rejected.

Every (arm, fold) run starts from identical initial parameters and the
same shuffle stream, derived deterministically from the master seed and
the fold index, so arms differ only in their curriculum schedule.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path

import numpy as np
import yaml

from . import metrics as metrics_mod
from . import model as model_mod
from ._checks import file_path, real, whole
from .data import CLASSES, Dataset, FoldPartition, SynthConfig, generate_synthetic, load_csv, stratified_kfold
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

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not self.name:
            raise ValueError(f"name must be a non-empty string, got {self.name!r}")
        if not self.name.isprintable() or {",", '"'} & set(self.name):  # it is a field of the result files
            raise ValueError(f"name must hold no comma, double quote or unprintable character, got {self.name!r}")
        if not isinstance(self.spec, SchedulerSpec):
            raise ValueError(f"spec must be a SchedulerSpec, got {self.spec!r}")


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

    def __post_init__(self) -> None:
        if not isinstance(self.train, TrainConfig):
            raise ValueError(f"train must be a TrainConfig, got {self.train!r}")
        if not (isinstance(self.arms, (list, tuple)) and self.arms and all(isinstance(a, Arm) for a in self.arms)):
            raise ValueError(f"arms must be a non-empty list of Arm, got {self.arms!r}")
        object.__setattr__(self, "arms", tuple(self.arms))
        if not isinstance(self.synth, SynthConfig | None):
            raise ValueError(f"synth must be a SynthConfig or None, got {self.synth!r}")
        object.__setattr__(self, "out_dir", file_path(self.out_dir, "out_dir"))
        whole(self.k, "k", 2)
        object.__setattr__(self, "val_fraction", real(self.val_fraction, "val_fraction"))
        if not (0.0 < self.val_fraction < 1.0):
            raise ValueError(f"val_fraction must lie in (0, 1), got {self.val_fraction!r}")
        whole(self.seed, "seed", 0)
        if self.csv_path is not None:
            object.__setattr__(self, "csv_path", file_path(self.csv_path, "csv_path"))
        if (self.synth is None) == (self.csv_path is None):
            raise ValueError("data needs exactly one source: data.synthetic or data.csv")
        names = [arm.name for arm in self.arms]
        if len(set(names)) != len(names):
            raise ValueError(f"arm names must be unique, got {names}")
        for arm in self.arms:
            if arm.spec.switch_epoch > self.train.epochs:
                raise ValueError(
                    f"arm {arm.name!r}: switch epoch L={arm.spec.switch_epoch} "
                    f"must be at most train.epochs={self.train.epochs}"
                )


# Each section's keys, mapped to the dataclass field a key sets. A key the
# file leaves out is not passed on, so the dataclasses hold every default
# and check every value.
_CONFIG_KEYS = {"out_dir": "out_dir", "k": "k", "val_fraction": "val_fraction", "seed": "seed"}
_DATA_KEYS = {"synthetic": "synth", "csv": "csv_path"}
_SYNTH_KEYS = {key: key for key in ("counts", "seed", "feature_dim", "separation", "overlap", "noise")}
_TRAIN_KEYS = {key: key for key in ("hidden_sizes", "learning_rate", "epochs", "batch_size")}
_ARM_KEYS = {"kind": "kind", "L": "switch_epoch", "epsilon": "exp_floor", "name": "name"}


def _build(cls, fields: dict, where: str, keys: dict):
    """``cls(**fields)``, its ``ValueError`` re-raised as a ``ConfigError``. A
    message that starts with a field name starts with that field's key path
    instead; any other is prefixed with ``where``, the section's path."""
    try:
        return cls(**fields)
    except ValueError as e:
        message = str(e)
        field = re.match(r"\w*", message)[0]
        paths = {name: f"{where}.{key}".lstrip(".") for key, name in keys.items()}
        if field in paths:
            raise ConfigError(paths[field] + message[len(field) :]) from None
        raise ConfigError(f"{where}: {message}" if where else message) from None


def _fields(section, where: str, keys: dict, required: str | None = None) -> dict:
    """The values ``section`` sets, by field name. ``section`` must be a
    mapping of ``keys`` only, with ``required`` among them."""
    if not isinstance(section, dict):
        raise ConfigError(f"{where} must be a mapping, got {type(section).__name__}")
    unknown = sorted([key for key in section if key not in keys], key=str)  # a YAML key need not be a string
    if unknown:
        raise ConfigError(f"{where}: unknown keys {unknown}; allowed keys are {sorted(keys)}")
    if required is not None and required not in section:
        raise ConfigError(f"{where}: missing required key {required!r}")
    return {keys[key]: value for key, value in section.items()}


def _arm(value, where: str, epochs: int) -> Arm:
    fields = _fields(value, where, _ARM_KEYS, "kind")
    name = fields.pop("name", fields["kind"])
    fields.setdefault("switch_epoch", default_switch_epoch(epochs))
    spec = _build(SchedulerSpec, fields, where, _ARM_KEYS)
    return _build(Arm, {"name": name, "spec": spec}, where, _ARM_KEYS)


class _UniqueKeyLoader(yaml.SafeLoader):  # a key repeated in one mapping is an error; one merged by << is not
    def construct_mapping(self, node, deep=False):
        seen = set()
        for k, _ in node.value if isinstance(node, yaml.MappingNode) else ():
            if isinstance(k, yaml.ScalarNode) and k.tag != "tag:yaml.org,2002:merge":
                if (key := self.construct_object(k)) in seen:
                    raise yaml.constructor.ConstructorError(None, None, f"found repeated key {key!r}", k.start_mark)
                seen.add(key)
        return super().construct_mapping(node, deep)


def parse_config(path: str | Path) -> ExperimentConfig:
    """Load and fully validate a YAML experiment config."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file {path} does not exist")
    with path.open("rb") as fh:  # yaml decodes the bytes, so a bad one is a YAMLError too
        utf16 = fh.peek(2)[:2] in (b"\xff\xfe", b"\xfe\xff")  # the byte-order marks yaml reads as UTF-16
        try:
            raw = yaml.load(fh, Loader=_UniqueKeyLoader)
        except yaml.YAMLError as e:  # its text names the file, and the line and column or byte
            raise ConfigError(str(e)) from None
    if not isinstance(raw, dict):
        read_as = "; it starts with a UTF-16 byte-order mark, so it was read as UTF-16" if utf16 else ""
        raise ConfigError(f"config {path} must be a mapping, got {type(raw).__name__}{read_as}")
    fields = _fields(raw, "config", {"data": "data", "train": "train", "arms": "arms", **_CONFIG_KEYS})

    data = _fields(fields.pop("data", {}), "data", _DATA_KEYS)
    if "synth" in data:
        where = "data.synthetic"
        data["synth"] = _build(SynthConfig, _fields(data["synth"], where, _SYNTH_KEYS, "counts"), where, _SYNTH_KEYS)

    train = _build(TrainConfig, _fields(fields.pop("train", {}), "train", _TRAIN_KEYS), "train", _TRAIN_KEYS)

    arms = fields.pop("arms", None)  # anything but a list is left to ExperimentConfig's check
    if isinstance(arms, list):
        arms = [_arm(arm, f"arms[{i}]", train.epochs) for i, arm in enumerate(arms)]

    fields.update({**data, "train": train, "arms": arms})
    return _build(ExperimentConfig, fields, "", {**_CONFIG_KEYS, "data.csv": "csv_path"})


def resolved_seeds(config: ExperimentConfig) -> dict:
    """Every seed a run uses, and the one place that derives them from the
    master seed: ``master``; ``data``, the configured ``data.synthetic.seed``
    or a derived one (``None`` for a CSV source); ``folds``; and ``init`` and
    ``shuffle``, lists indexed by fold."""
    master, synth = config.seed, config.synth
    data = None if synth is None else synth.seed
    if synth is not None and data is None:
        data = child_seed(master, "data")
    seeds = {"master": master, "data": data, "folds": child_seed(master, "folds")}
    return seeds | {tag: [child_seed(master, tag, i) for i in range(config.k)] for tag in ("init", "shuffle")}


def resolved_synth(config: ExperimentConfig) -> SynthConfig:
    """The config's synthetic-data parameters with the seed filled in."""
    return replace(config.synth, seed=resolved_seeds(config)["data"])


def build_dataset(config: ExperimentConfig) -> Dataset:
    """Materialise the config's data source."""
    if config.csv_path is not None:
        return load_csv(config.csv_path)
    return generate_synthetic(resolved_synth(config))


@dataclass(frozen=True)
class ExperimentReport:
    """Per-fold metrics for every arm, in the arm order of ``per_fold``; ``means`` derives from them."""

    per_fold: dict[str, list[MetricsReport]]

    @cached_property
    def means(self) -> dict[str, MetricsReport]:  # each arm's fold mean of every metric
        return {
            name: MetricsReport(**{m: float(np.mean([getattr(r, m) for r in reports])) for m in METRIC_NAMES})
            for name, reports in self.per_fold.items()
        }


def run_arm_on_fold(
    arm: Arm,
    dataset: Dataset,
    partition: FoldPartition,
    train_config: TrainConfig,
    init_seed: int,
    shuffle_seed: int,
) -> MetricsReport:
    """Train one arm on one partition and evaluate it on the test fold."""
    layer_sizes = (dataset.feature_dim, *train_config.hidden_sizes, len(CLASSES))
    params = model_mod.init(layer_sizes, init_seed)
    rng = np.random.default_rng(shuffle_seed)
    lambdas = [lambda_at(arm.spec, e) for e in range(train_config.epochs)]
    train_set, val_set = dataset.subset(partition.train_ids), dataset.subset(partition.val_ids)
    result = model_mod.train(params, train_set, val_set, lambdas, train_config, rng)
    del train_set, val_set  # freed before the test fold is sliced
    test_set = dataset.subset(partition.test_ids)
    probs = model_mod.predict_proba_batch(result.params, test_set.features)
    return metrics_mod.evaluate(probs, test_set.labels)


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Run every (arm, fold) combination and aggregate the metrics.

    Arms within a fold share the derived init and shuffle seeds, so they
    start identically and differ only through their schedules. Fully
    deterministic given the config.
    """
    dataset = build_dataset(config)
    seeds = resolved_seeds(config)
    partitions = stratified_kfold(dataset, config.k, config.val_fraction, seeds["folds"])

    per_fold: dict[str, list[MetricsReport]] = {arm.name: [] for arm in config.arms}
    for part in partitions:
        i = part.fold_index
        for arm in config.arms:
            try:
                report = run_arm_on_fold(arm, dataset, part, config.train, seeds["init"][i], seeds["shuffle"][i])
            except Exception as e:
                raise ExperimentError(f"fold {i}, arm {arm.name!r}: {e}") from e
            per_fold[arm.name].append(report)

    return ExperimentReport(per_fold)


PER_FOLD_HEADER = "arm,fold," + ",".join(METRIC_NAMES)
MEANS_HEADER = "arm," + ",".join(METRIC_NAMES)


def _csv_row(keys: tuple, rep: MetricsReport) -> str:
    """A per_fold.csv or means.csv row: its keys, then each metric's ``repr``."""
    return ",".join([*map(str, keys), *(repr(getattr(rep, m)) for m in METRIC_NAMES)])


def render_report(report: ExperimentReport, out_dir: str | Path) -> str:
    """Write per_fold.csv, means.csv, and report.txt; return the table text.

    The table has one row per arm in the order of ``report.per_fold``, the five metric columns
    to three decimals, and the per-column maximum marked with ``*``.
    """
    names = tuple(report.per_fold)
    per_fold = [_csv_row((name, fold), rep) for name in names for fold, rep in enumerate(report.per_fold[name])]
    means = [_csv_row((name,), report.means[name]) for name in names]

    col_max = {
        m: max(getattr(report.means[name], m) for name in names) for m in METRIC_NAMES
    }
    name_width = max(len("arm"), max(len(n) for n in names))
    header_cells = ["arm".ljust(name_width)] + [m.rjust(18) for m in METRIC_NAMES]
    table = ["  ".join(header_cells)]
    for name in names:
        cells = [name.ljust(name_width)]
        for m in METRIC_NAMES:
            value = getattr(report.means[name], m)
            mark = "*" if value == col_max[m] else " "
            cells.append(f"{value:.3f}{mark}".rjust(18))
        table.append("  ".join(cells))

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    files = {"per_fold.csv": [PER_FOLD_HEADER, *per_fold], "means.csv": [MEANS_HEADER, *means], "report.txt": table}
    for file_name, lines in files.items():
        (out_dir / file_name).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return "\n".join(table) + "\n"
