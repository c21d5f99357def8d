import copy
import dataclasses
import math
import os
import re
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from curricula import cli, harness
from curricula.data import SynthConfig, generate_synthetic, stratified_kfold
from curricula.harness import (
    Arm,
    ConfigError,
    ExperimentConfig,
    ExperimentError,
    build_dataset,
    child_seed,
    parse_config,
    render_report,
    resolved_seeds,
    run_experiment,
)
from curricula.model import TrainConfig
from curricula.scheduler import DEFAULT_EXP_FLOOR, KINDS, SchedulerSpec, default_switch_epoch

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


    def test_mixes_master_index_and_tag_through_seed_sequence(self):
        tag = int.from_bytes(b"init", "little")
        for master, index in ((0, 0), (0, 4), (7, 0)):
            expected = np.random.SeedSequence([master, index, tag]).generate_state(1, np.uint64)[0]
            assert child_seed(master, "init", index) == int(expected)

    @pytest.mark.parametrize(
        "args, message",
        [
            ((1.5, "x"), "master must be an integer, got 1.5"),
            ((True, "x"), "master must be an integer, got True"),
            ((-1, "x"), "master must be at least 0, got -1"),
            ((1, "x", 2.7), "index must be an integer, got 2.7"),
            ((1, "x", -1), "index must be at least 0, got -1"),
            ((1, 5), "tag must be a string, got 5"),
            ((1, b"x"), "tag must be a string, got b'x'"),
        ],
    )
    def test_master_and_index_are_whole_numbers_and_the_tag_a_string(self, args, message):
        with pytest.raises(ValueError) as excinfo:
            child_seed(*args)
        assert str(excinfo.value) == message

    @pytest.mark.parametrize("tag", ["init\x00", "\x00init", "in\x00it", "\x00"])
    def test_a_tag_holding_a_nul_is_refused(self, tag):
        # "init\x00" folds to the same integer as "init", so it would share its seed
        with pytest.raises(ValueError) as excinfo:
            child_seed(0, tag, 1)
        assert str(excinfo.value) == f"tag must hold no NUL character, got {tag!r}"


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

    @pytest.mark.parametrize("name", ["a,b", 'say "hi"', "line\nbreak", "tab\tstop", "bell\x07", "\u2028"])
    def test_arm_names_that_break_the_result_files_rejected(self, tmp_path, name):
        text = yaml.safe_dump({"data": {"synthetic": {"counts": [10, 10, 10]}}, "arms": [{"kind": "step", "name": name}]})
        with pytest.raises(ConfigError) as excinfo:
            parse_config(write_config(tmp_path, text))
        assert str(excinfo.value) == (
            f"arms[0].name must hold no comma, double quote or unprintable character, got {name!r}"
        )

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

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="does not exist"):
            parse_config(tmp_path / "nope.yaml")

    def test_omitted_keys_take_the_dataclass_defaults(self, tmp_path):
        path = write_config(
            tmp_path, "data:\n  synthetic:\n    counts: [10, 10, 10]\narms:\n  - {kind: exponential}\n"
        )
        config = parse_config(path)
        for cls, parsed, skip in (
            (ExperimentConfig, config, {"synth"}),  # the file sets it
            (TrainConfig, config.train, set()),
            (SynthConfig, config.synth, set()),
            (SchedulerSpec, config.arms[0].spec, {"exp_floor"}),  # filled in for the exponential kind
        ):
            defaulted = [f for f in dataclasses.fields(cls) if f.default is not dataclasses.MISSING]
            assert defaulted, cls
            for f in defaulted:
                if f.name not in skip:
                    assert getattr(parsed, f.name) == f.default, f"{cls.__name__}.{f.name}"
        # the computed defaults
        assert config.arms[0].spec.switch_epoch == default_switch_epoch(config.train.epochs)
        assert config.arms[0].spec.exp_floor == DEFAULT_EXP_FLOOR
        assert config.arms[0].name == "exponential"

    @pytest.mark.parametrize("value", ["7", "0", "-1", "null"])
    def test_a_synthetic_seed_key_is_refused(self, tmp_path, value):
        # the data seed derives from the master seed; gen-data, then data.csv, holds the data fixed
        text = f"seed: 3\ndata:\n  synthetic:\n    counts: [10, 10, 10]\n    seed: {value}\narms:\n  - {{kind: step}}\n"
        with pytest.raises(ConfigError) as excinfo:
            parse_config(write_config(tmp_path, text))
        assert str(excinfo.value) == (
            "data.synthetic: unknown keys ['seed']; "
            "allowed keys are ['counts', 'feature_dim', 'noise', 'overlap', 'separation']"
        )

    @pytest.mark.parametrize(
        "text, message",
        [
            (
                "out_dir: 3\ndata:\n  synthetic:\n    counts: [10, 10, 10]\narms:\n  - {kind: step}\n",
                "out_dir must be a non-empty path string, got 3",
            ),
            # Path("") is the current directory: the outputs would land there, the CSV read fails late
            (
                "out_dir: ''\ndata:\n  synthetic:\n    counts: [10, 10, 10]\narms:\n  - {kind: step}\n",
                "out_dir must be a non-empty path string, got ''",
            ),
            ("data:\n  csv: ''\narms:\n  - {kind: step}\n", "data.csv must be a non-empty path string, got ''"),
            ("data: {}\narms:\n  - {kind: step}\n", "data needs exactly one source: data.synthetic or data.csv"),
            ("arms:\n  - {kind: step}\n", "data needs exactly one source: data.synthetic or data.csv"),
            ("data:\n  csv: null\narms:\n  - {kind: step}\n", "data needs exactly one source: data.synthetic or data.csv"),
            (
                "data:\n  synthetic:\n    counts: [10, 10, 10]\n  csv: x.csv\narms:\n  - {kind: step}\n",
                "data needs exactly one source: data.synthetic or data.csv",
            ),
            (
                "data:\n  synthetic:\n    counts: [10, 10, 10]\ntrain: []\narms:\n  - {kind: step}\n",
                "train must be a mapping, got list",
            ),
            # ExperimentConfig alone owns the arms rule, whatever the file holds instead of a list
            ("data:\n  synthetic:\n    counts: [10, 10, 10]\n", "arms must be a non-empty list of Arm, got None"),
            ("data:\n  synthetic:\n    counts: [10, 10, 10]\narms: []\n", "arms must be a non-empty list of Arm, got []"),
            ("data:\n  synthetic:\n    counts: [10, 10, 10]\narms: step\n", "arms must be a non-empty list of Arm, got 'step'"),
            (
                "data:\n  synthetic:\n    counts: [10, 10, 10]\narms: {kind: step}\n",
                "arms must be a non-empty list of Arm, got {'kind': 'step'}",
            ),
            ("data:\n  synthetic:\n    noise: 3\narms:\n  - {kind: step}\n", "data.synthetic: missing required key 'counts'"),
            ("data:\n  synthetic:\n    counts: [10, 10, 10]\narms:\n  - {L: 3}\n", "arms[0]: missing required key 'kind'"),
            (
                "data:\n  synthetic:\n    counts: [10, 10, 10]\narms:\n  - {kind: exponential, epsilon: 0}\n",
                "arms[0].epsilon must lie in (0, 1), got 0.0",
            ),
            # only the exponential kind reads epsilon, and a bad kind or value is named first
            (
                "data:\n  synthetic:\n    counts: [10, 10, 10]\narms:\n  - {kind: linear, epsilon: 0.5}\n",
                "arms[0].epsilon applies only to the exponential kind, got kind 'linear'",
            ),
            (
                "data:\n  synthetic:\n    counts: [10, 10, 10]\narms:\n  - {kind: constant_zero, epsilon: 1.0e-3}\n",
                "arms[0].epsilon applies only to the exponential kind, got kind 'constant_zero'",
            ),
            (
                "data:\n  synthetic:\n    counts: [10, 10, 10]\narms:\n  - {kind: lin, epsilon: 0.5}\n",
                "arms[0].kind must be one of cosine, linear, concave_quadratic, convex_quadratic, "
                "exponential, logarithm, step, constant_zero, got 'lin'",
            ),
            (
                "data:\n  synthetic:\n    counts: [10, 10, 10]\narms:\n  - {kind: step, epsilon: 0}\n",
                "arms[0].epsilon must lie in (0, 1), got 0.0",
            ),
            (
                "data:\n  synthetic:\n    counts: [10, 10, 10]\narms:\n  - {kind: step, E: 100}\n",
                "arms[0]: unknown keys ['E']; allowed keys are ['L', 'epsilon', 'kind', 'name']",
            ),
            (
                "data:\n  synthetic:\n    counts: [10, 10, 10]\narms:\n  - {kind: step}\nbogus: 1\n",
                "config: unknown keys ['bogus']; allowed keys are "
                "['arms', 'data', 'k', 'out_dir', 'seed', 'train', 'val_fraction']",
            ),
            # a YAML key need not be a string; unknown keys of any mix of types are listed
            (
                "1: a\nbogus: b\n",
                "config: unknown keys [1, 'bogus']; allowed keys are "
                "['arms', 'data', 'k', 'out_dir', 'seed', 'train', 'val_fraction']",
            ),
            # keys that read alike stay in file order, whatever the string hash seed
            (
                "'1': a\n1: b\n",
                "config: unknown keys ['1', 1]; allowed keys are "
                "['arms', 'data', 'k', 'out_dir', 'seed', 'train', 'val_fraction']",
            ),
            (
                "data:\n  synthetic:\n    counts: [10, 10, 10]\narms:\n  - {kind: step, null: 3, warmup: 1}\n",
                "arms[0]: unknown keys [None, 'warmup']; allowed keys are ['L', 'epsilon', 'kind', 'name']",
            ),
        ],
    )
    def test_edge_inputs_fail_with_exact_message(self, tmp_path, text, message):
        with pytest.raises(ConfigError) as excinfo:
            parse_config(write_config(tmp_path, text))
        assert str(excinfo.value) == message

    @pytest.mark.parametrize(
        "text, key, line, column",
        [
            ("seed: 1\ndata:\n  synthetic:\n    counts: [10, 10, 10]\narms:\n  - {kind: step}\nseed: 3\n", "seed", 7, 1),
            (
                "data:\n  synthetic:\n    counts: [10, 10, 10]\n    noise: 1.0\n    noise: 2.0\narms:\n  - {kind: step}\n",
                "noise",
                5,
                5,
            ),
            ("data:\n  synthetic:\n    counts: [10, 10, 10]\narms:\n  - {kind: step, kind: linear}\n", "kind", 5, 18),
            ("data:\n  synthetic:\n    counts: [10, 10, 10]\narms:\n  - kind: linear\n    L: 25\n    L: 50\n", "L", 7, 5),
        ],
    )
    def test_repeated_key_is_a_config_error_naming_the_key_and_its_line(self, tmp_path, text, key, line, column):
        path = write_config(tmp_path, text)
        with pytest.raises(ConfigError) as excinfo:
            parse_config(path)
        assert str(excinfo.value) == f'found repeated key {key!r}\n  in "{path}", line {line}, column {column}'

    def test_merged_keys_may_be_overridden_and_yaml_keeps_its_own_mapping_errors(self, tmp_path):
        data = "data:\n  synthetic:\n    counts: [10, 10, 10]\n"
        text = data + "arms:\n  - &a {kind: linear, L: 2}\n  - {<<: *a, L: 5, name: late}\n"
        late = parse_config(write_config(tmp_path, text)).arms[1]
        assert late == Arm(name="late", spec=SchedulerSpec(kind="linear", switch_epoch=5))
        for text, problem, at in (
            (data + "arms:\n  - {kind: step, {a: 1}: 2}\n", "found unhashable key", "line 5, column 18"),
            ("seed: !!map abc\n", "expected a mapping node, but found scalar", "line 1, column 7"),
        ):
            path = write_config(tmp_path, text)
            with pytest.raises(ConfigError) as excinfo:
                parse_config(path)
            assert str(excinfo.value).endswith(f'{problem}\n  in "{path}", {at}'), str(excinfo.value)

    def test_malformed_yaml_is_a_config_error_naming_file_line_and_column(self, tmp_path):
        path = write_config(tmp_path, "data:\n  synthetic:\n    counts: [10, 10\narms:\n  - {kind: step}\n", "broken.yaml")
        with pytest.raises(ConfigError) as excinfo:
            parse_config(path)
        message = str(excinfo.value)
        assert "while parsing a flow sequence" in message
        assert re.search(r'in ".*broken\.yaml", line 3, column 13', message), message

    def test_non_utf8_config_is_a_config_error_naming_file_and_byte(self, tmp_path):
        text = "data:\n  csv: caf\u00e9.csv\narms:\n  - {kind: step}\n".encode("latin-1")
        path = tmp_path / "latin1.yaml"
        path.write_bytes(text)
        with pytest.raises(ConfigError) as excinfo:
            parse_config(path)
        message, at = str(excinfo.value), text.index(b"\xe9")
        assert re.search(rf'in ".*latin1\.yaml", position {at}$', message), message
        # the same text in UTF-8 parses
        path.write_bytes(text.decode("latin-1").encode())
        assert parse_config(path).csv_path == Path("caf\u00e9.csv")

    @pytest.mark.parametrize("bom", [b"\xff\xfe", b"\xfe\xff"])
    def test_non_mapping_config_names_the_file_and_a_utf16_reading(self, tmp_path, bom):
        path = tmp_path / "bom.yaml"
        path.write_bytes(bom + b"seed: 1\n")  # not UTF-16: it decodes to one CJK string
        with pytest.raises(ConfigError) as excinfo:
            parse_config(path)
        read_as = "; it starts with a UTF-16 byte-order mark, so it was read as UTF-16"
        assert str(excinfo.value) == f"config {path} must be a mapping, got str{read_as}"
        path.write_bytes(b"- seed: 1\n")
        with pytest.raises(ConfigError) as excinfo:
            parse_config(path)
        assert str(excinfo.value) == f"config {path} must be a mapping, got list"
        # a real UTF-16 config, with its byte-order mark, still loads
        text = "seed: 3\ndata:\n  synthetic:\n    counts: [10, 10, 10]\narms:\n  - {kind: step}\n"
        path.write_bytes(bom + text.encode("utf-16-le" if bom == b"\xff\xfe" else "utf-16-be"))
        assert parse_config(path).seed == 3


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
        (experiment_config, dict(out_dir=3), "out_dir must be a non-empty path string, got 3"),
        (experiment_config, dict(out_dir=""), "out_dir must be a non-empty path string, got ''"),
        (experiment_config, dict(synth=None, csv_path=True), "csv_path must be a non-empty path string, got True"),
        (experiment_config, dict(synth=None, csv_path=""), "csv_path must be a non-empty path string, got ''"),
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
    ("out_dir",): st.one_of(st.booleans(), NUMBER, st.just("")),
    ("k",): bad_int(2),
    ("val_fraction",): st.one_of(NOT_A_NUMBER, OUTSIDE_OPEN_UNIT),
    ("seed",): bad_int(0),
    ("data", "synthetic"): st.one_of(st.booleans(), TEXT, NUMBER, st.lists(st.integers(), max_size=2)),
    ("data", "csv"): st.one_of(st.booleans(), NUMBER, st.just("")),
    ("data", "synthetic", "counts"): bad_ints(3),
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


@pytest.mark.parametrize(
    "path, cls, instance",
    [(("train",), TrainConfig, TrainConfig()), (("data", "synthetic"), SynthConfig, SynthConfig(counts=(10, 10, 10)))],
)
def test_accepted_section_keys_are_the_dataclass_fields(tmp_path, path, cls, instance):
    names = sorted(f.name for f in dataclasses.fields(cls))
    raw = copy.deepcopy(VALID)
    section = raw
    for step in path:
        section = section.setdefault(step, {})
    # every field is a key, and setting each one builds the same dataclass
    section.update({name: list(v) if isinstance(v, tuple) else v for name, v in dataclasses.asdict(instance).items()})
    config = parse_config(write_config(tmp_path, yaml.safe_dump(raw)))
    assert (config.train if cls is TrainConfig else config.synth) == instance
    # and no other key is
    section["bogus"] = 1
    with pytest.raises(ConfigError) as excinfo:
        parse_config(write_config(tmp_path, yaml.safe_dump(raw)))
    assert str(excinfo.value) == f"{'.'.join(path)}: unknown keys ['bogus']; allowed keys are {names}"


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


class TestResolvedSeeds:
    def test_keys_and_one_init_and_shuffle_seed_per_fold(self, small_config):
        seeds = resolved_seeds(parse_config(small_config))
        assert list(seeds) == ["master", "data", "folds", "init", "shuffle"]
        assert seeds["master"] == 5 and seeds["data"] == child_seed(5, "data")
        assert len(seeds["init"]) == len(seeds["shuffle"]) == 3

    @pytest.mark.parametrize("master", [0, 5, 2**63 - 1])
    def test_the_data_seed_derives_from_the_master_seed_only(self, small_config, master):
        config = dataclasses.replace(parse_config(small_config), seed=master)
        assert resolved_seeds(config)["data"] == child_seed(master, "data")
        expected = generate_synthetic(config.synth, child_seed(master, "data"))
        assert build_dataset(config).features.tobytes() == expected.features.tobytes()

    def test_one_seed_source_feeds_every_command(self, small_config, tmp_path):
        config = parse_config(small_config)
        out = tmp_path / "folds.csv"
        assert cli.main(["folds", "--config", str(small_config), "--out", str(out)]) == 0
        exported = {}
        for row in out.read_text().splitlines()[1:]:
            sample_id, fold, split = row.split(",")
            exported.setdefault((int(fold), split), []).append(int(sample_id))
        partitions = stratified_kfold(build_dataset(config), config.k, config.val_fraction, resolved_seeds(config)["folds"])
        expected = {
            (part.fold_index, split): getattr(part, f"{split}_ids").tolist()
            for part in partitions
            for split in ("train", "val", "test")
        }
        assert exported == expected

    def test_a_new_master_seed_changes_every_derived_seed(self, small_config, tmp_path):
        config = parse_config(small_config)
        before, after = resolved_seeds(config), resolved_seeds(dataclasses.replace(config, seed=6))
        for key in ("master", "data", "folds"):
            assert before[key] != after[key], key
        for key in ("init", "shuffle"):
            assert all(a != b for a, b in zip(before[key], after[key], strict=True)), key
        with pytest.raises(TypeError):  # the synthetic section holds no seed to keep the data fixed
            dataclasses.replace(config.synth, seed=7)
        from_csv = dataclasses.replace(config, synth=None, csv_path=tmp_path / "x.csv")
        assert resolved_seeds(from_csv)["data"] is None
        assert resolved_seeds(dataclasses.replace(from_csv, seed=6))["data"] is None


class TestRunExperiment:
    def test_report_shape_and_mean_invariant(self, small_config):
        report = run_experiment(parse_config(small_config))
        assert tuple(report.per_fold) == ("constant_zero", "step")
        for name in report.per_fold:
            assert len(report.per_fold[name]) == 3
            for metric in ("accuracy", "balanced_accuracy", "average_auc"):
                per_fold = [getattr(r, metric) for r in report.per_fold[name]]
                assert getattr(report.means[name], metric) == pytest.approx(
                    float(np.mean(per_fold)), abs=1e-12
                )

    def test_means_derive_from_the_folds_alone(self):
        from curricula.harness import ExperimentReport
        from curricula.metrics import MetricsReport

        # Dyadic values, so every summation order gives the same exact mean.
        folds = [MetricsReport(0.25, 0.5, 0.75, 1.0, 0.0), MetricsReport(0.5, 0.5, 0.25, 0.0, 0.5)]
        folds.append(MetricsReport(0.75, 0.125, 1.0, 0.5, 1.0))
        report = ExperimentReport({"b": folds, "a": folds[1:2]})
        assert list(report.means) == ["b", "a"]
        assert report.means["b"] == MetricsReport(0.5, 0.375, 2 / 3, 0.5, 0.5)
        assert report.means["a"] == folds[1]
        assert report.means is report.means  # derived once, however often a report reads it
        assert [f.name for f in dataclasses.fields(ExperimentReport)] == ["per_fold"]
        with pytest.raises(TypeError):
            ExperimentReport(per_fold={"a": folds}, means={"a": folds[0]})

    def test_a_report_needs_an_arm_and_a_fold_for_each(self):
        from curricula.harness import ExperimentReport
        from curricula.metrics import MetricsReport

        fold = MetricsReport(0.25, 0.5, 0.75, 1.0, 0.0)
        for per_fold, message in (
            ({}, "a report needs at least one arm"),
            ({"a": []}, "arm 'a' has no folds"),
            ({"a": [fold], "b": [], "c": []}, "arm 'b' has no folds"),
        ):
            with pytest.raises(ValueError) as excinfo:
                ExperimentReport(per_fold)
            assert str(excinfo.value) == message

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
        write_csv(generate_synthetic(SynthConfig(counts=(12, 12, 12)), 21), csv_path)
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


    def test_divergence_names_fold_arm_and_epoch(self):
        config = parse_config(Path(__file__).parent / "golden" / "config.yaml")
        config = dataclasses.replace(config, train=dataclasses.replace(config.train, learning_rate=1e6))
        # "error" is how CI runs the demos; "default" would print any warning and go on.
        for action in ("error", "default"):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter(action)
                with pytest.raises(ExperimentError) as excinfo:
                    run_experiment(config)
            assert str(excinfo.value) == "fold 0, arm 'constant_zero': epoch 5: scores must be finite", action
            assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], action

    def test_one_fold_holds_no_test_subset_or_epoch_gather_while_training(self):
        # cli-100k's shapes at a fifth of its rows: 20k x 8, hidden [16], batch 256, 2 epochs.
        dataset = generate_synthetic(SynthConfig(counts=(4000, 8000, 8000), feature_dim=8), 1)
        partition = stratified_kfold(dataset, 5, 0.2, 0)[0]
        train_config = TrainConfig(epochs=2, batch_size=256, hidden_sizes=(16,))
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            harness.run_arm_on_fold(Arm("linear", SchedulerSpec("linear", 1)), dataset, partition, train_config, 1, 2)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        # Traced peaks over the dataset's feature bytes (1.28 MB), with numpy 2.4: 1.55
        # at validation, where the train and validation subsets (1.02 and 0.26 MB)
        # live beside the validation forward pass. The test subset (0.32 MB) live
        # through training reads 1.81, and an epoch-sized feature gather 2.06.
        assert peak < 1.7 * dataset.features.nbytes, (peak, dataset.features.nbytes)


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

    def test_arm_names_with_spaces_and_non_ascii_letters_run(self, tmp_path):
        config = yaml.safe_load(SMALL_CONFIG)
        names = ["plain cross entropy", "Stufe λ → 0"]
        for arm, name in zip(config["arms"], names):
            arm["name"] = name
        report = run_experiment(parse_config(write_config(tmp_path, yaml.safe_dump(config))))
        table = render_report(report, tmp_path / "out")
        per_fold = (tmp_path / "out" / "per_fold.csv").read_text(encoding="utf-8").splitlines()
        assert [line.split(",")[0] for line in per_fold[1:]] == [names[0]] * 3 + [names[1]] * 3
        assert {len(line.split(",")) for line in per_fold} == {7}
        means = (tmp_path / "out" / "means.csv").read_text(encoding="utf-8").splitlines()
        assert [line.split(",")[0] for line in means[1:]] == names
        assert [line.split("  ")[0].rstrip() for line in table.splitlines()[1:]] == names

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

        rep = MetricsReport(0.5, 0.5, 0.5, 0.5, 0.5)
        report = ExperimentReport(per_fold={"a": [rep], "b": [rep]})
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

    @pytest.mark.parametrize("command", ["run", "gen-data", "folds"])
    def test_seed_flag_is_refused(self, small_config, tmp_path, command, capsys):
        # every seed comes from the config file, so a command line cannot make the commands disagree
        with pytest.raises(SystemExit) as excinfo:
            cli.main([command, "--config", str(small_config), "--out", str(tmp_path / "out"), "--seed", "3"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --seed 3" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [small_config]

    def test_config_seed_changes_results(self, small_config, tmp_path):
        other = write_config(tmp_path, SMALL_CONFIG.replace("seed: 5\n", "seed: 6\n"), "other.yaml")
        for config, out in ((small_config, "a"), (other, "b"), (small_config, "c")):
            assert cli.main(["run", "--config", str(config), "--out", str(tmp_path / out)]) == 0
        per_fold = {out: (tmp_path / out / "per_fold.csv").read_bytes() for out in "abc"}
        assert per_fold["a"] != per_fold["b"]
        assert per_fold["a"] == per_fold["c"]

    def test_a_synthetic_seed_key_exits_1_and_writes_nothing(self, tmp_path, capsys):
        text = SMALL_CONFIG.replace("    overlap: 0.4\n", "    overlap: 0.4\n    seed: 7\n")
        config = write_config(tmp_path, text, "keyed.yaml")
        out = tmp_path / "results"
        assert cli.main(["run", "--config", str(config), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: data.synthetic: unknown keys ['seed']; allowed keys are ")
        assert not out.exists()

    def test_negative_config_seed_names_key(self, tmp_path, capsys):
        config = write_config(tmp_path, SMALL_CONFIG.replace("seed: 5\n", "seed: -3\n"), "negative.yaml")
        out = tmp_path / "results"
        assert cli.main(["run", "--config", str(config), "--out", str(out)]) == 1
        assert "error: seed must be at least 0, got -3" in capsys.readouterr().err
        assert not out.exists()

    def test_out_flag_wins_over_the_config_out_dir(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        config = write_config(tmp_path, f"out_dir: {tmp_path / 'from_config'}\n{SMALL_CONFIG}")
        assert cli.main(["run", "--config", str(config), "--out", str(tmp_path / "from_flag")]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.yaml", "from_flag"]
        assert sorted(p.name for p in (tmp_path / "from_flag").iterdir()) == ["means.csv", "per_fold.csv", "report.txt"]

    @pytest.mark.parametrize("command", ["run", "gen-data", "folds"])
    def test_an_empty_out_flag_is_refused_and_no_experiment_runs(self, small_config, tmp_path, monkeypatch, capsys, command):
        # Path("") is the current directory, so an empty --out would write the results there
        monkeypatch.chdir(tmp_path)
        runs = []
        monkeypatch.setattr(cli, "run_experiment", lambda config: runs.append(config))
        assert cli.main([command, "--config", str(small_config), "--out", ""]) == 1
        assert capsys.readouterr().err == "error: --out must be a non-empty path string, got ''\n"
        assert runs == []
        assert list(tmp_path.iterdir()) == [small_config]

    def test_without_flag_the_config_sets_output_dir_whatever_curricula_out_says(self, tmp_path, monkeypatch):
        # earlier versions read CURRICULA_OUT; it must not move the outputs
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("CURRICULA_OUT", str(tmp_path / "from_env"))
        config = write_config(tmp_path, f"out_dir: {tmp_path / 'from_config'}\n{SMALL_CONFIG}")
        assert cli.main(["run", "--config", str(config)]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.yaml", "from_config"]
        assert sorted(p.name for p in (tmp_path / "from_config").iterdir()) == ["means.csv", "per_fold.csv", "report.txt"]

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
