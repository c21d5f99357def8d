"""Workload inputs are a function of the seed, and the derived counts hold."""

import math

import pytest
from workloads import WORKLOADS

from curricula import cli
from curricula.harness import build_dataset, child_seed, parse_config
from curricula.data import stratified_kfold


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_byte_identical_configs(name):
    workload = WORKLOADS[name]
    assert workload.config_files(7) == workload.config_files(7)
    assert workload.config_files(7) != workload.config_files(8)


def generate(workload, seed, directory):
    for file_name, text in workload.config_files(seed).items():
        (directory / file_name).write_text(text)
    assert cli.main(["gen-data", "--config", str(directory / "gen.yaml"), "--out", str(directory / "data.csv")]) == 0
    assert cli.main(["folds", "--config", str(directory / "gen.yaml"), "--out", str(directory / "folds.csv")]) == 0
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def test_same_seed_gives_byte_identical_csvs(tmp_path):
    smoke = WORKLOADS["smoke"]
    first, second, other = (tmp_path / d for d in ("first", "second", "other"))
    for d in (first, second, other):
        d.mkdir()
    files = generate(smoke, 3, first)
    assert set(files) == {"gen.yaml", "run.yaml", "data.csv", "folds.csv"}
    assert generate(smoke, 3, second) == files
    assert generate(smoke, 4, other)["data.csv"] != files["data.csv"]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_fold_sizes_follow_the_split_rules(name, tmp_path):
    workload = WORKLOADS[name]
    config_path = tmp_path / "gen.yaml"
    config_path.write_text(workload.config_files(5).get("gen.yaml") or workload.config_files(5)["run.yaml"])
    config = parse_config(config_path)
    partitions = stratified_kfold(build_dataset(config), config.k, config.val_fraction, child_seed(config.seed, "folds"))
    assert workload.n_train_per_fold() == [len(p.train_ids) for p in partitions]


def test_desk_counts_match_the_criterion_7_config_at_10_epochs():
    desk = WORKLOADS["desk"]
    calls = desk.expected_calls()
    assert calls["model.train_epoch"] == 8 * 5 * 10
    assert calls["data.Dataset.subset"] == 3 * 8 * 5
    assert calls["metrics.evaluate"] == 8 * 5
    steps = 8 * 10 * sum(math.ceil(n / 32) for n in desk.n_train_per_fold())
    assert calls["losses.batch_combined_loss_grad"] == steps
    assert 13_900 < steps < 14_100  # a tenth of the 140k SGD steps of the criterion-7 run
