import copy
import dataclasses
import math
import os
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from curricula import cli, harness
from curricula.data import SynthConfig
from curricula.harness import (
    Arm,
    ConfigError,
    ExperimentConfig,
    ExperimentError,
    child_seed,
    parse_config,
    render_report,
    resolved_synth,
    run_experiment,
)
from curricula.model import TrainConfig
from curricula.scheduler import KINDS, SchedulerSpec, default_switch_epoch

SMALL_CONFIG = """\
seed: 5
k: 3
data:
  synthetic:
    counts: [15, 15, 15]
    overlap: 0.4
train:
  learning_rate: 0.1
  epochs: 8
  batch_size: 8
  hidden_sizes: []
arms:
  - kind: constant_zero
  - kind: step
    L: 4
"""


@pytest.fixture
def small_config(tmp_path):
    path = tmp_path / "config.yaml"
    path.write_text(SMALL_CONFIG)
    return path


def write_config(tmp_path, text, name="config.yaml"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestChildSeed:
    def test_deterministic(self):
        assert child_seed(11, "init", 3) == child_seed(11, "init", 3)

    def test_distinct_tags_folds_and_masters(self):
        seeds = {
            child_seed(11, "init", 0),
            child_seed(11, "init", 1),
            child_seed(11, "shuffle", 0),
            child_seed(12, "init", 0),
        }
        assert len(seeds) == 4


class TestParseConfig:
    def test_minimal_config_fills_defaults(self, tmp_path):
        path = write_config(
            tmp_path,
            "data:\n  synthetic:\n    counts: [10, 10, 10]\n"
            "train:\n  epochs: 100\n"
            "arms:\n  - {kind: linear, L: 50}\n",
        )
        config = parse_config(path)
        assert config.k == 5
        assert config.val_fraction == 0.2
        assert config.seed == 0
        assert config.train.learning_rate == 0.05
        assert config.train.batch_size == 32
        assert config.train.hidden_sizes == (16,)
        assert config.arms[0].name == "linear"
        assert config.arms[0].spec.switch_epoch == 50
        assert config.train.epochs == 100

    def test_switch_epoch_defaults_to_half(self, tmp_path):
        path = write_config(
            tmp_path,
            "data:\n  synthetic:\n    counts: [10, 10, 10]\n"
            "train:\n  epochs: 90\n"
            "arms:\n  - {kind: cosine}\n",
        )
        assert parse_config(path).arms[0].spec.switch_epoch == 45

    def test_switch_epoch_beyond_training_named(self, tmp_path):
        text = (
            "data:\n  synthetic:\n    counts: [10, 10, 10]\n"
            "train:\n  epochs: 20\n"
            "arms:\n  - {{kind: step}}\n  - {{kind: linear, L: {L}, name: late}}\n"
        )
        with pytest.raises(ConfigError) as excinfo:
            parse_config(write_config(tmp_path, text.format(L=21)))
        assert str(excinfo.value) == "arm 'late': switch epoch L=21 must be at most train.epochs=20"
        # L == train.epochs is allowed: the weight is positive in every trained epoch
        assert parse_config(write_config(tmp_path, text.format(L=20))).arms[1].spec.switch_epoch == 20

    def test_all_eight_kinds(self, tmp_path):
        arms = "\n".join(f"  - {{kind: {kind}}}" for kind in KINDS)
        path = write_config(
            tmp_path,
            f"data:\n  synthetic:\n    counts: [10, 10, 10]\ntrain:\n  epochs: 10\narms:\n{arms}\n",
        )
        config = parse_config(path)
        assert len(config.arms) == 8
        assert [a.spec.kind for a in config.arms] == list(KINDS)

    def test_unknown_keys_rejected(self, tmp_path):
        for text in (
            "data:\n  synthetic:\n    counts: [10, 10, 10]\narms:\n  - {kind: step}\nbogus: 1\n",
            "data:\n  synthetic:\n    counts: [10, 10, 10]\n    shape: round\narms:\n  - {kind: step}\n",
            "data:\n  synthetic:\n    counts: [10, 10, 10]\ntrain:\n  lr: 0.1\narms:\n  - {kind: step}\n",
            "data:\n  synthetic:\n    counts: [10, 10, 10]\ntrain:\n  seed: 0\narms:\n  - {kind: step}\n",
            "data:\n  synthetic:\n    counts: [10, 10, 10]\narms:\n  - {kind: step, warmup: 3}\n",
            # the epoch count lives only in train.epochs
            "data:\n  synthetic:\n    counts: [10, 10, 10]\narms:\n  - {kind: step, E: 100}\n",
        ):
            with pytest.raises(ConfigError, match="unknown keys"):
                parse_config(write_config(tmp_path, text))

    def test_non_finite_number_names_key(self, tmp_path):
        path = write_config(
            tmp_path,
            "data:\n  synthetic:\n    counts: [10, 10, 10]\n"
            "train:\n  learning_rate: .inf\n"
            "arms:\n  - {kind: step}\n",
        )
        with pytest.raises(ConfigError, match=r"train\.learning_rate must be finite"):
            parse_config(path)

    def test_non_integer_hidden_sizes_name_key(self, tmp_path):
        path = write_config(
            tmp_path,
            "data:\n  synthetic:\n    counts: [10, 10, 10]\n"
            "train:\n  hidden_sizes: [2.7, true]\n"
            "arms:\n  - {kind: step}\n",
        )
        with pytest.raises(ConfigError, match=r"^train\.hidden_sizes must be a list of positive integers, got \[2\.7, True\]"):
            parse_config(path)

    def test_non_integer_counts_name_key(self, tmp_path):
        for counts in ("[20.9, 20, 30]", "[20, true, 30]"):
            path = write_config(
                tmp_path, f"data:\n  synthetic:\n    counts: {counts}\narms:\n  - {{kind: step}}\n"
            )
            with pytest.raises(ConfigError, match=r"^data\.synthetic\.counts must be three positive integers"):
                parse_config(path)

    def test_negative_seeds_name_key(self, tmp_path):
        path = write_config(
            tmp_path, "seed: -1\ndata:\n  synthetic:\n    counts: [10, 10, 10]\narms:\n  - {kind: step}\n"
        )
        with pytest.raises(ConfigError, match="^seed must be at least 0, got -1"):
            parse_config(path)
        path = write_config(
            tmp_path,
            "data:\n  synthetic:\n    counts: [10, 10, 10]\n    seed: -1\narms:\n  - {kind: step}\n",
        )
        with pytest.raises(ConfigError, match=r"^data\.synthetic\.seed must be at least 0, got -1"):
            parse_config(path)

    def test_fold_count_below_two_names_key(self, tmp_path):
        path = write_config(
            tmp_path, "k: 1\ndata:\n  synthetic:\n    counts: [10, 10, 10]\narms:\n  - {kind: step}\n"
        )
        with pytest.raises(ConfigError, match=r"^k must be at least 2, got 1"):
            parse_config(path)

    def test_val_fraction_out_of_range_names_key(self, tmp_path):
        for bad in ("1.5", "0", "1.0", "-0.2"):
            path = write_config(
                tmp_path,
                f"val_fraction: {bad}\ndata:\n  synthetic:\n    counts: [10, 10, 10]\n"
                "arms:\n  - {kind: step}\n",
            )
            with pytest.raises(ConfigError, match=r"^val_fraction must lie in \(0, 1\)"):
                parse_config(path)

    def test_missing_sections_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="data"):
            parse_config(write_config(tmp_path, "arms:\n  - {kind: step}\n"))
        with pytest.raises(ConfigError, match="arms"):
            parse_config(
                write_config(tmp_path, "data:\n  synthetic:\n    counts: [10, 10, 10]\n")
            )

    def test_duplicate_arm_names_rejected(self, tmp_path):
        path = write_config(
            tmp_path,
            "data:\n  synthetic:\n    counts: [10, 10, 10]\n"
            "arms:\n  - {kind: step}\n  - {kind: step}\n",
        )
        with pytest.raises(ConfigError, match="unique"):
            parse_config(path)

    def test_bad_kind_rejected(self, tmp_path):
        path = write_config(
            tmp_path,
            "data:\n  synthetic:\n    counts: [10, 10, 10]\narms:\n  - {kind: sawtooth}\n",
        )
        with pytest.raises(ConfigError, match="sawtooth"):
            parse_config(path)

    def test_csv_source(self, tmp_path):
        path = write_config(
            tmp_path, "data:\n  csv: features.csv\narms:\n  - {kind: step}\n"
        )
        config = parse_config(path)
        assert str(config.csv_path) == "features.csv"
        assert config.synth is None

    def test_readme_config_schema_parses(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("## Config schema", 1)[1].split("```yaml\n", 1)[1].split("```", 1)[0]
        config = parse_config(write_config(tmp_path, block))
        assert [arm.name for arm in config.arms] == ["constant_zero", "linear-early"]

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="does not exist"):
            parse_config(tmp_path / "nope.yaml")

    def test_omitted_keys_take_the_dataclass_defaults(self, tmp_path):
        path = write_config(
            tmp_path, "data:\n  synthetic:\n    counts: [10, 10, 10]\narms:\n  - {kind: exponential}\n"
        )
        config = parse_config(path)
        for cls, parsed, skip in (
            (ExperimentConfig, config, {"synth", "echo"}),  # the file sets these two
            (TrainConfig, config.train, set()),
            (SynthConfig, config.synth, set()),
            (SchedulerSpec, config.arms[0].spec, set()),
        ):
            defaulted = [f for f in dataclasses.fields(cls) if f.default is not dataclasses.MISSING]
            assert defaulted, cls
            for f in defaulted:
                if f.name not in skip:
                    assert getattr(parsed, f.name) == f.default, f"{cls.__name__}.{f.name}"
        # the computed defaults
        assert config.arms[0].spec.switch_epoch == default_switch_epoch(config.train.epochs)
        assert config.arms[0].name == "exponential"

    def test_null_synthetic_seed_is_derived(self, tmp_path):
        base = "seed: 3\ndata:\n  synthetic:\n    counts: [10, 10, 10]\n{}arms:\n  - {{kind: step}}\n"
        config = parse_config(write_config(tmp_path, base.format("    seed: null\n"), "null.yaml"))
        assert config.synth.seed is None
        assert resolved_synth(config).seed == child_seed(3, "data")
        omitted = parse_config(write_config(tmp_path, base.format(""), "omitted.yaml"))
        assert resolved_synth(config) == resolved_synth(omitted)

    @pytest.mark.parametrize(
        "text, message",
        [
            (
                "out_dir: 3\ndata:\n  synthetic:\n    counts: [10, 10, 10]\narms:\n  - {kind: step}\n",
                "out_dir must be a path string, got 3",
            ),
            ("data: {}\narms:\n  - {kind: step}\n", "data: needs 'synthetic' or 'csv'"),
            (
                "data:\n  synthetic:\n    counts: [10, 10, 10]\ntrain: []\narms:\n  - {kind: step}\n",
                "train must be a mapping, got list",
            ),
            (
                "data:\n  synthetic:\n    counts: [10, 10, 10]\narms:\n  - {kind: exponential, epsilon: 0}\n",
                "arms[0].epsilon must lie in (0, 1), got 0.0",
            ),
            (
                "data:\n  synthetic:\n    counts: [10, 10, 10]\narms:\n  - {kind: step, E: 100}\n",
                "arms[0]: unknown keys ['E']; allowed keys are ['L', 'epsilon', 'kind', 'name']",
            ),
        ],
    )
    def test_edge_inputs_fail_with_exact_message(self, tmp_path, text, message):
        with pytest.raises(ConfigError) as excinfo:
            parse_config(write_config(tmp_path, text))
        assert str(excinfo.value) == message


SPEC = SchedulerSpec(kind="step", switch_epoch=2)


def experiment_config(**kwargs):
    fields = dict(train=TrainConfig(epochs=4), arms=(Arm("step", SPEC),), synth=SynthConfig(counts=(5, 5, 5)))
    return ExperimentConfig(**{**fields, **kwargs})


@pytest.mark.parametrize(
    "build, kwargs, message",
    [
        (experiment_config, dict(k=2.5), "k must be an integer, got 2.5"),
        (experiment_config, dict(seed=1.5), "seed must be an integer, got 1.5"),
        (experiment_config, dict(val_fraction="0.2"), "val_fraction must be a number, got '0.2'"),
        (experiment_config, dict(out_dir=3), "out_dir must be a path string, got 3"),
        (experiment_config, dict(synth=None, csv_path=True), "csv_path must be a path string, got True"),
        (Arm, dict(name="", spec=SPEC), "name must be a non-empty string, got ''"),
        (Arm, dict(name=3, spec=SPEC), "name must be a non-empty string, got 3"),
    ],
)
def test_experiment_config_and_arm_reject_bad_values(build, kwargs, message):
    with pytest.raises(ValueError) as excinfo:
        build(**kwargs)
    assert str(excinfo.value) == message


@pytest.mark.parametrize(
    "build, kwargs, message",
    [
        (experiment_config, dict(train=3), "train must be a TrainConfig, got 3"),
        (experiment_config, dict(arms=5), "arms must be a non-empty list of Arm, got 5"),
        (experiment_config, dict(arms=(3,)), "arms must be a non-empty list of Arm, got (3,)"),
        (experiment_config, dict(arms=[]), "arms must be a non-empty list of Arm, got []"),
        (experiment_config, dict(arms="step"), "arms must be a non-empty list of Arm, got 'step'"),
        (experiment_config, dict(synth=3), "synth must be a SynthConfig or None, got 3"),
        (Arm, dict(name="x", spec=3), "spec must be a SchedulerSpec, got 3"),
    ],
)
def test_nested_config_fields_are_type_checked(build, kwargs, message):
    with pytest.raises(ValueError) as excinfo:
        build(**kwargs)
    assert str(excinfo.value) == message


def test_arms_list_is_stored_as_tuple():
    assert experiment_config(arms=[Arm("step", SPEC)]).arms == (Arm("step", SPEC),)


def test_config_dataclasses_store_floats_and_paths():
    config = experiment_config(out_dir="x", synth=None, csv_path="data.csv")
    assert config.out_dir == Path("x") and config.csv_path == Path("data.csv")
    assert type(TrainConfig(learning_rate=1).learning_rate) is float
    synth = SynthConfig(counts=(5, 5, 5), separation=2, overlap=1, noise=2)
    assert [type(v) for v in (synth.separation, synth.overlap, synth.noise)] == [float] * 3


# A bad value for every key of the schema, by the key's path in the file.
TEXT = st.text(alphabet="abc019.-_ ", max_size=6)
NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
NUMBER = st.one_of(st.integers(), st.floats(allow_nan=False))
NOT_A_NUMBER = st.one_of(st.booleans(), TEXT, NON_FINITE)
NON_POSITIVE = st.one_of(st.integers(max_value=0), st.floats(max_value=0.0))
OUTSIDE_OPEN_UNIT = st.one_of(NON_POSITIVE, st.integers(min_value=1), st.floats(min_value=1.0))
OUTSIDE_CLOSED_UNIT = st.one_of(
    st.integers(max_value=-1), st.integers(min_value=2), st.floats(max_value=-1e-9), st.floats(min_value=1.0 + 1e-9)
)


def bad_int(least):
    fractional = st.floats(allow_nan=False, allow_infinity=False).filter(lambda x: not x.is_integer())
    return st.one_of(NOT_A_NUMBER, fractional, st.integers(max_value=least - 1))


def bad_ints(length=None):
    bad_item = st.one_of(st.booleans(), TEXT, st.floats(), st.integers(max_value=0))
    items = st.lists(st.integers(1, 5), min_size=length or 1, max_size=length or 3)
    # one item replaced by a bad one, so a three-item list keeps its length
    with_bad_item = st.tuples(items, bad_item, st.integers(0, 2)).map(lambda t: [*t[0][: t[2]], t[1], *t[0][t[2] + 1 :]])
    wrong_length = st.lists(st.integers(1, 5), max_size=5).filter(lambda v: len(v) != length)
    return st.one_of(st.booleans(), TEXT, NUMBER, with_bad_item, *([wrong_length] if length else []))


BAD_VALUES = {
    ("out_dir",): st.one_of(st.booleans(), NUMBER),
    ("k",): bad_int(2),
    ("val_fraction",): st.one_of(NOT_A_NUMBER, OUTSIDE_OPEN_UNIT),
    ("seed",): bad_int(0),
    ("data", "synthetic"): st.one_of(st.booleans(), TEXT, NUMBER, st.lists(st.integers(), max_size=2)),
    ("data", "csv"): st.one_of(st.booleans(), NUMBER),
    ("data", "synthetic", "counts"): bad_ints(3),
    ("data", "synthetic", "seed"): bad_int(0),
    ("data", "synthetic", "feature_dim"): bad_int(2),
    ("data", "synthetic", "separation"): st.one_of(NOT_A_NUMBER, NON_POSITIVE),
    ("data", "synthetic", "overlap"): st.one_of(NOT_A_NUMBER, OUTSIDE_CLOSED_UNIT),
    ("data", "synthetic", "noise"): st.one_of(NOT_A_NUMBER, NON_POSITIVE),
    ("train", "hidden_sizes"): bad_ints(),
    ("train", "learning_rate"): st.one_of(NOT_A_NUMBER, NON_POSITIVE),
    ("train", "epochs"): bad_int(1),
    ("train", "batch_size"): bad_int(1),
    ("arms", 0, "kind"): st.one_of(st.booleans(), NUMBER, TEXT),
    ("arms", 0, "L"): bad_int(1),
    ("arms", 0, "epsilon"): st.one_of(NOT_A_NUMBER, OUTSIDE_OPEN_UNIT),
    ("arms", 0, "name"): st.one_of(st.booleans(), NUMBER, st.just("")),
}
VALID = {"data": {"synthetic": {"counts": [10, 10, 10]}}, "train": {"epochs": 4}, "arms": [{"kind": "exponential"}]}


def test_bad_values_cover_every_config_key():
    sections = {
        (): harness._CONFIG_KEYS,
        ("data",): harness._DATA_KEYS,
        ("data", "synthetic"): harness._SYNTH_KEYS,
        ("train",): harness._TRAIN_KEYS,
        ("arms", 0): harness._ARM_KEYS,
    }
    assert set(BAD_VALUES) == {(*where, key) for where, keys in sections.items() for key in keys}


@settings(deadline=None, max_examples=300)
@given(st.sampled_from(sorted(BAD_VALUES, key=str)).flatmap(lambda key: st.tuples(st.just(key), BAD_VALUES[key])))
def test_bad_value_error_starts_with_key_path(case):
    path, value = case
    raw = copy.deepcopy(VALID)
    if path == ("data", "csv"):
        del raw["data"]["synthetic"]
    section = raw
    for step in path[:-1]:
        section = section[step]
    section[path[-1]] = value
    key_path = ".".join(str(step) for step in path).replace(".0.", "[0].")
    with tempfile.TemporaryDirectory() as tmp:
        config_path = Path(tmp) / "config.yaml"
        config_path.write_text(yaml.safe_dump(raw))
        with pytest.raises(ConfigError) as excinfo:
            parse_config(config_path)
    assert re.match(re.escape(key_path) + r"[ \[]", str(excinfo.value)), (key_path, value, str(excinfo.value))


class TestRunExperiment:
    def test_report_shape_and_mean_invariant(self, small_config):
        report = run_experiment(parse_config(small_config))
        assert report.arm_names == ("constant_zero", "step")
        for name in report.arm_names:
            assert len(report.per_fold[name]) == 3
            for metric in ("accuracy", "balanced_accuracy", "average_auc"):
                per_fold = [getattr(r, metric) for r in report.per_fold[name]]
                assert getattr(report.means[name], metric) == pytest.approx(
                    float(np.mean(per_fold)), abs=1e-12
                )

    def test_deterministic_reports(self, small_config, tmp_path):
        config = parse_config(small_config)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        render_report(run_experiment(config), out_a)
        render_report(run_experiment(config), out_b)
        for name in ("per_fold.csv", "means.csv", "report.txt"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_no_cross_arm_leakage(self, small_config, tmp_path):
        full = run_experiment(parse_config(small_config))
        solo_path = write_config(
            tmp_path, SMALL_CONFIG.replace("  - kind: constant_zero\n", ""), "solo.yaml"
        )
        solo = run_experiment(parse_config(solo_path))
        assert solo.per_fold["step"] == full.per_fold["step"]

    def test_identical_schedulers_produce_identical_metrics(self, tmp_path):
        path = write_config(
            tmp_path,
            "seed: 5\nk: 3\n"
            "data:\n  synthetic:\n    counts: [15, 15, 15]\n"
            "train:\n  epochs: 6\n  hidden_sizes: []\n"
            "arms:\n  - {kind: step, L: 3}\n  - {kind: step, L: 3, name: twin}\n",
        )
        report = run_experiment(parse_config(path))
        assert report.per_fold["step"] == report.per_fold["twin"]

    def test_runs_from_csv_source(self, tmp_path):
        from curricula.data import SynthConfig, generate_synthetic, write_csv

        csv_path = tmp_path / "blobs.csv"
        write_csv(generate_synthetic(SynthConfig(counts=(12, 12, 12), seed=21)), csv_path)
        path = write_config(
            tmp_path,
            f"k: 3\ndata:\n  csv: {csv_path}\n"
            "train:\n  epochs: 4\n  hidden_sizes: []\n"
            "arms:\n  - {kind: convex_quadratic}\n",
        )
        report = run_experiment(parse_config(path))
        assert len(report.per_fold["convex_quadratic"]) == 3

    def test_undersized_class_fails_at_partitioning(self, tmp_path):
        path = write_config(
            tmp_path,
            "k: 3\n"
            "data:\n  synthetic:\n    counts: [2, 15, 15]\n"
            "train:\n  epochs: 2\n"
            "arms:\n  - {kind: step}\n",
        )
        with pytest.raises(ValueError, match="class 0"):
            run_experiment(parse_config(path))

    def test_experiment_error_wraps_arm_failures(self, small_config, monkeypatch):
        config = parse_config(small_config)
        import curricula.harness as harness_mod

        def boom(*args, **kwargs):
            raise ValueError("synthetic failure")

        monkeypatch.setattr(harness_mod, "run_arm_on_fold", boom)
        with pytest.raises(ExperimentError, match=r"fold 0, arm 'constant_zero': synthetic failure"):
            run_experiment(config)


class TestRenderReport:
    def test_csv_layout_and_order(self, small_config, tmp_path):
        report = run_experiment(parse_config(small_config))
        out = tmp_path / "out"
        table = render_report(report, out)

        per_fold = (out / "per_fold.csv").read_text().splitlines()
        assert per_fold[0] == "arm,fold,accuracy,balanced_accuracy,average_auc,binary_accuracy,binary_auc"
        assert len(per_fold) == 1 + 2 * 3
        assert [ln.split(",")[0] for ln in per_fold[1:]] == ["constant_zero"] * 3 + ["step"] * 3

        means = (out / "means.csv").read_text().splitlines()
        assert means[0] == "arm,accuracy,balanced_accuracy,average_auc,binary_accuracy,binary_auc"
        assert [ln.split(",")[0] for ln in means[1:]] == ["constant_zero", "step"]

        # means.csv equals the arithmetic fold means of per_fold.csv
        for arm_index, arm in enumerate(("constant_zero", "step")):
            fold_rows = [ln.split(",") for ln in per_fold[1:] if ln.split(",")[0] == arm]
            mean_row = means[1 + arm_index].split(",")
            for col in range(5):
                fold_values = [float(r[2 + col]) for r in fold_rows]
                assert float(mean_row[1 + col]) == pytest.approx(
                    float(np.mean(fold_values)), abs=1e-12
                )

        lines = table.splitlines()
        assert lines[0].split()[0] == "arm"
        assert lines[1].startswith("constant_zero")
        assert lines[2].startswith("step")
        assert table == (out / "report.txt").read_text()

    def test_column_maxima_marked(self, small_config, tmp_path):
        report = run_experiment(parse_config(small_config))
        table = render_report(report, tmp_path / "out")
        body = table.splitlines()[1:]
        assert sum("*" in line for line in body) >= 1
        # every metric column marks at least one row as the maximum
        assert sum(line.count("*") for line in body) >= 5

    def test_all_equal_column_marks_every_row(self, tmp_path):
        from curricula.harness import ExperimentReport
        from curricula.metrics import MetricsReport

        rep = MetricsReport(0.5, 0.5, 0.5, 0.5, 0.5, 10)
        report = ExperimentReport(
            arm_names=("a", "b"),
            per_fold={"a": [rep], "b": [rep]},
            means={"a": rep, "b": rep},
            config_echo={},
            seeds={},
        )
        table = render_report(report, tmp_path / "out")
        body = table.splitlines()[1:]
        assert all(line.count("*") == 5 for line in body)


class TestCli:
    def test_run_writes_report(self, small_config, tmp_path, capsys):
        out = tmp_path / "results"
        assert cli.main(["run", "--config", str(small_config), "--out", str(out)]) == 0
        assert (out / "per_fold.csv").exists()
        assert (out / "means.csv").exists()
        captured = capsys.readouterr()
        assert "constant_zero" in captured.out

    def test_run_seed_override_changes_results(self, small_config, tmp_path):
        out_a, out_b, out_c = (tmp_path / n for n in ("a", "b", "c"))
        cli.main(["run", "--config", str(small_config), "--out", str(out_a), "--seed", "5"])
        cli.main(["run", "--config", str(small_config), "--out", str(out_b), "--seed", "6"])
        cli.main(["run", "--config", str(small_config), "--out", str(out_c)])
        assert (out_a / "per_fold.csv").read_bytes() != (out_b / "per_fold.csv").read_bytes()
        # config seed is 5, so an explicit --seed 5 matches the plain run
        assert (out_a / "per_fold.csv").read_bytes() == (out_c / "per_fold.csv").read_bytes()

    def test_negative_seed_override_names_key(self, small_config, tmp_path, capsys):
        out = tmp_path / "results"
        assert cli.main(["run", "--config", str(small_config), "--out", str(out), "--seed", "-3"]) == 1
        assert "error: seed must be at least 0, got -3" in capsys.readouterr().err
        assert not out.exists()

    def test_env_var_sets_output_dir_and_flag_wins(self, small_config, tmp_path, monkeypatch):
        env_dir = tmp_path / "from_env"
        monkeypatch.setenv("CURRICULA_OUT", str(env_dir))
        assert cli.main(["run", "--config", str(small_config)]) == 0
        assert (env_dir / "means.csv").exists()

        flag_dir = tmp_path / "from_flag"
        assert cli.main(["run", "--config", str(small_config), "--out", str(flag_dir)]) == 0
        assert (flag_dir / "means.csv").exists()

    def test_gen_data_round_trip(self, small_config, tmp_path):
        out_csv = tmp_path / "data.csv"
        assert cli.main(["gen-data", "--config", str(small_config), "--out", str(out_csv)]) == 0
        from curricula.data import load_csv

        ds = load_csv(out_csv)
        assert ds.class_counts() == (15, 15, 15)

    def test_folds_export(self, small_config, tmp_path):
        out_csv = tmp_path / "folds.csv"
        assert cli.main(["folds", "--config", str(small_config), "--out", str(out_csv)]) == 0
        lines = out_csv.read_text().splitlines()
        assert lines[0] == "id,fold_index,split"
        assert len(lines) == 1 + 3 * 45

    def test_errors_exit_nonzero(self, tmp_path, capsys):
        assert cli.main(["run", "--config", str(tmp_path / "missing.yaml")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_gen_data_requires_synthetic_source(self, tmp_path, capsys):
        path = write_config(tmp_path, "data:\n  csv: x.csv\narms:\n  - {kind: step}\n")
        assert cli.main(["gen-data", "--config", str(path), "--out", str(tmp_path / "o.csv")]) == 1
        assert "synthetic" in capsys.readouterr().err
