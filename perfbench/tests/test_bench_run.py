"""The benchmark command end to end, on the seconds-long smoke workload."""

import csv
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
import run
from workloads import TRACED_FUNCTIONS, WORKLOADS

BENCH_DIR = Path(run.__file__).resolve().parent
SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())


def invoke(*args, cwd=BENCH_DIR.parent):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_metric_names_and_units_match_benchmark_json():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in SPEC["workloads"]] == list(run.BENCHMARK_WORKLOADS)
    for entry in SPEC["workloads"]:
        assert entry["why"] == WORKLOADS[entry["name"]].why


@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_is_correct_and_fires_every_wrapper(trace):
    proc = invoke("--workload", "smoke", "--seed", "2", "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 4
    metrics = result["metrics"]
    if trace == "0":
        assert set(metrics) == set(run.END_TO_END)
        assert all(m["value"] > 0 for m in metrics.values())
    else:
        assert set(metrics) == set(run.per_layer_units())
        for name in TRACED_FUNCTIONS:
            assert metrics[f"{name}.calls"]["value"] > 0, name
        assert metrics["data.Dataset.subset.repeat_share"]["value"] == 0.5  # 2 arms slice the same ids


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    proc = invoke("--workload", "desk", "--seed", "0", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def write_outputs(directory, rows):
    out = directory / "out"
    out.mkdir()
    with (out / "means.csv").open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["arm", "binary_auc"])
        writer.writerows(rows)
    (out / "per_fold.csv").write_text("header\n" + "row\n" * (len(rows) * 5))


def test_output_check_reports_a_weak_arm_and_a_missing_arm(tmp_path):
    desk = WORKLOADS["desk"]
    write_outputs(tmp_path, [(arm, "0.9") for arm in desk.arms])
    digests, problems = run.check_outputs(desk, tmp_path)
    assert problems == [] and set(digests) == {"per_fold.csv", "means.csv"}

    shutil.rmtree(tmp_path / "out")
    write_outputs(tmp_path, [(arm, "0.5") for arm in desk.arms[:7]])
    _, problems = run.check_outputs(desk, tmp_path)
    assert any("expected" in p for p in problems)
    assert sum("binary_auc" in p for p in problems) == 7


def test_trace_check_names_every_miscounted_function():
    smoke = WORKLOADS["smoke"]
    functions = {name: {"calls": n} for name, n in smoke.expected_calls().items()}
    assert run.check_trace(smoke, {"functions": functions}) == []
    del functions["model.train_epoch"]  # a wrapper that never fired
    functions["data.Dataset.subset"]["calls"] += 1
    problems = run.check_trace(smoke, {"functions": functions})
    assert len(problems) == 2 and "model.train_epoch calls 0" in problems[0] + problems[1]


def test_recorded_digests_apply_only_in_their_environment():
    env = {"python": "3.11.7", "numpy": "2.4.6", "scipy": "1.17.1", "openblas_config": "OpenBLAS SkylakeX"}
    digests = {"per_fold.csv": "a", "means.csv": "b"}
    book = {"environment": dict(env), "workloads": {"desk": {"3": digests}}}
    assert run.recorded_digests(book, "desk", 3, dict(env, nproc=2))[0] == digests
    assert run.recorded_digests(book, "desk", 4, env) == (None, "no digests recorded for this seed")
    other_kernel = dict(env, openblas_config="OpenBLAS Haswell")
    assert run.recorded_digests(book, "desk", 3, other_kernel) == (None, "no digests recorded for this environment")
    assert run.recorded_digests(book, "desk", 3, None)[0] is None
