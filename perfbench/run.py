"""The curricula benchmark: run one workload for a while, check it, report.

    python3 perfbench/run.py --workload desk --seed 3 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 3 --seconds 30 --trace 0

Each run of the workload happens in a fresh ``worker.py`` process, with
the repository's ``src`` on ``PYTHONPATH`` and OpenBLAS/OpenMP pinned to
one thread, so every run pays import and set-up as a user would. First a
few set-up-only processes run, then whole runs of the workload until the
next one would end after ``--seconds``; at least one always runs. Every
run's outputs are checked, and a failed run counts in ``failed``.

With ``--trace 0`` the end-to-end metrics of BENCHMARK.json are reported
as medians over the runs. With ``--trace 1`` untraced and traced runs
alternate; the traced runs wrap the program's functions from outside
(see ``worker.py``) and give the per-layer metrics, and their call counts
must equal the counts the config implies.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import COUNT_ONLY, TRACED_FUNCTIONS, WORKLOADS, Workload

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
WORK_DIR = ROOT / ".perfbench_work"
DIGESTS_FILE = BENCH_DIR / "digests.json"
# The outputs print floats in full, and OpenBLAS picks its kernel for the CPU
# at run time, so recorded digests hold only where all of these match.
DIGEST_ENV_KEYS = ("python", "numpy", "scipy", "openblas_config")

BENCHMARK_WORKLOADS = ("desk", "wide-mlp", "cli-100k")
# Set-up-only processes per invocation: with the runs' own set-up times they
# give setup_s enough samples for a steady median even when one run fills it.
SETUP_PROBES = 3
# Every invocation must end well inside 180 s, whatever --seconds says.
BUDGET_S = 165.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {
    "run_s": "s",
    "setup_s": "s",
    "train_samples_per_s": "samples/s",
    "peak_rss_mb": "MB",
}
# A function some workload never calls (the CSV ones, outside cli-100k)
# reports its calls everywhere, but its times only in the printed table.
TIMED = tuple(
    f
    for f in TRACED_FUNCTIONS
    if f not in COUNT_ONLY and all(WORKLOADS[w].expected_calls()[f] > 0 for w in BENCHMARK_WORKLOADS)
)
LAYER_TOTALS = ("data", "model")


def per_layer_units() -> dict[str, str]:
    units = {"curricula.import_s": "s", "trace_overhead_ratio": "ratio"}
    for name in TRACED_FUNCTIONS:
        units[f"{name}.calls"] = "count"
        if name in TIMED:
            units[f"{name}.self_s"] = "s"
            units[f"{name}.us_per_call"] = "us"
    units["data.Dataset.subset.repeat_share"] = "ratio"
    units["model.gflop_per_s"] = "GFLOP/s"
    for layer in LAYER_TOTALS:
        units[f"{layer}.self_s"] = "s"
    return units


class RunFailed(Exception):
    """A worker process that raised, exited non-zero or wrote no result."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    paths = [str(ROOT / "src")] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def start_worker(workload: Workload, workdir: Path, mode: str, trace: bool, roundtrip: bool, timeout: float):
    """Run one worker process to completion; return (start time, result)."""
    result_path = workdir / "result.json"
    result_path.unlink(missing_ok=True)
    argv = [
        sys.executable, str(BENCH_DIR / "worker.py"),
        "--workload", workload.name, "--mode", mode,
        "--trace", str(int(trace)), "--roundtrip", str(int(roundtrip)),
        "--result", str(result_path),
    ]
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            argv, cwd=workdir, env=child_env(), capture_output=True, text=True, timeout=max(timeout, 1.0)
        )
    except subprocess.TimeoutExpired:
        raise RunFailed(f"{mode} process killed after {timeout:.0f} s") from None
    if proc.returncode != 0:
        tail = "\n".join(proc.stderr.strip().splitlines()[-5:])
        raise RunFailed(f"{mode} process exited {proc.returncode}: {tail}")
    if not result_path.is_file():
        raise RunFailed(f"{mode} process wrote no result")
    result = json.loads(result_path.read_text())
    if not Path(result["curricula_file"]).resolve().is_relative_to(ROOT / "src"):
        raise RunFailed(f"imported curricula from {result['curricula_file']}, not from {ROOT / 'src'}")
    return t0, result


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def count_lines(path: Path) -> int:
    with path.open("rb") as fh:
        return sum(1 for _ in fh)


def check_outputs(workload: Workload, workdir: Path) -> tuple[dict[str, str], list[str]]:
    """Digests of the deterministic outputs, and every problem found in them."""
    problems = []
    out = workdir / "out"
    digests = {}
    for name in ("per_fold.csv", "means.csv"):
        if not (out / name).is_file():
            problems.append(f"{name} missing")
            continue
        digests[name] = sha256(out / name)
    if problems:
        return digests, problems

    with (out / "means.csv").open(newline="") as fh:
        means = list(csv.DictReader(fh))
    arms = [row["arm"] for row in means]
    if arms != list(workload.arms):
        problems.append(f"means.csv arms {arms}, expected {list(workload.arms)}")
    for row in means:
        if workload.min_binary_auc is not None and not float(row["binary_auc"]) > workload.min_binary_auc:
            problems.append(f"arm {row['arm']}: binary_auc {row['binary_auc']} <= {workload.min_binary_auc}")
    per_fold_rows = count_lines(out / "per_fold.csv") - 1
    if per_fold_rows != len(workload.arms) * workload.k:
        problems.append(f"per_fold.csv has {per_fold_rows} rows, expected {len(workload.arms) * workload.k}")

    if workload.via_cli:
        n = workload.n_samples
        for name, rows in (("data.csv", n), ("folds.csv", workload.k * n)):
            path = workdir / name
            got = count_lines(path) - 1 if path.is_file() else None
            if got != rows:
                problems.append(f"{name} has {got} rows, expected {rows}")
    return digests, problems


def check_trace(workload: Workload, trace: dict) -> list[str]:
    """Traced counts must equal the config-derived counts, for every function."""
    functions = trace["functions"]
    problems = []
    for name, expected in workload.expected_calls().items():
        got = functions.get(name, {}).get("calls", 0)
        if got != expected:
            problems.append(f"traced {name} calls {got}, config implies {expected}")
    return problems


def recorded_digests(book: dict, workload: str, seed: int, env: dict | None) -> tuple[dict | None, str]:
    """The digests ``digests.json`` holds for (workload, seed), if they were
    recorded in this environment, and a note saying which check applies."""
    recorded_env = book.get("environment", {})
    if env is None or any(env.get(key) != recorded_env.get(key) for key in DIGEST_ENV_KEYS):
        return None, "no digests recorded for this environment"
    recorded = book.get("workloads", {}).get(workload, {}).get(str(seed))
    if recorded is None:
        return None, "no digests recorded for this seed"
    return recorded, "checked against the digests recorded for this seed"


def median(values):
    return statistics.median(values) if values else None


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool, digest_book: dict) -> dict:
    """Set up, run and check one workload; return every sample and problem."""
    workdir = WORK_DIR / workload.name
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    for name, text in workload.config_files(seed).items():
        (workdir / name).write_text(text)

    start = time.monotonic()
    def remaining() -> float:
        return BUDGET_S - (time.monotonic() - start)

    attempted = failed = 0
    failures: list[str] = []
    setup_s: list[float] = []
    import_s: list[float] = []
    env = None
    runs = []  # one dict per whole run of the workload

    for _ in range(SETUP_PROBES):
        attempted += 1
        try:
            t0, result = start_worker(workload, workdir, "setup", False, False, remaining())
        except RunFailed as e:
            failed += 1
            failures.append(str(e))
            continue
        setup_s.append(result["t_setup"] - t0)
        import_s.append(result["import_s"])
        env = env or result["env"]
    recorded, digest_note = recorded_digests(digest_book, workload.name, seed, env)

    first_digests = None
    roundtrip_checked = False
    while True:
        n_traced = sum(r["traced"] for r in runs)
        traced = trace and n_traced < len(runs) - n_traced
        for name in ("data.csv", "folds.csv"):
            (workdir / name).unlink(missing_ok=True)
        shutil.rmtree(workdir / "out", ignore_errors=True)
        roundtrip = workload.via_cli and not traced and not roundtrip_checked
        attempted += 1
        t_start = time.monotonic()
        run = {"traced": traced, "problems": []}
        try:
            t0, result = start_worker(workload, workdir, "run", traced, roundtrip, remaining())
        except RunFailed as e:
            run["problems"].append(str(e))
        else:
            run.update(
                run_s=result["t_done"] - t0,
                setup_s=result["t_setup"] - t0,
                peak_rss_mb=result["maxrss_kb"] / 1024.0,
            )
            import_s.append(result["import_s"])
            digests, problems = check_outputs(workload, workdir)
            run["digests"] = digests
            run["problems"] += problems
            first_digests = first_digests or digests
            if digests != first_digests:
                run["problems"].append("outputs differ from the first run with the same seed")
            if recorded is not None and digests != recorded:
                run["problems"].append("outputs differ from the digests recorded for this seed")
            if roundtrip:
                roundtrip_checked = True
                if not result.get("roundtrip"):
                    run["problems"].append("data.csv does not load back to the generated dataset")
            if traced:
                trace_problems = check_trace(workload, result["trace"])
                run["problems"] += trace_problems
                if not trace_problems:
                    run["trace"] = result["trace"]
        run["wall_s"] = time.monotonic() - t_start
        runs.append(run)
        if run["problems"]:
            failed += 1
            failures += run["problems"]

        if remaining() <= 0:
            break
        n_traced = sum(r["traced"] for r in runs)
        if trace and n_traced == 0:
            continue  # a traced run needs one untraced and one traced run
        next_traced = trace and n_traced < len(runs) - n_traced
        estimate = median([r["wall_s"] for r in runs if r["traced"] == next_traced])
        if time.monotonic() - start + estimate > min(seconds, remaining()):
            break

    return {
        "workload": workload.name,
        "seed": seed,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "setup_s": setup_s + [r["setup_s"] for r in runs if "setup_s" in r and not r["traced"]],
        "import_s": import_s,
        "runs": runs,
        "digests": first_digests,
        "digest_note": digest_note,
        "env": env,
    }


def end_to_end_metrics(workload: Workload, summary: dict) -> dict[str, tuple[float, int]]:
    """Median and sample count of each end-to-end metric over untraced runs."""
    plain = [r for r in summary["runs"] if not r["traced"] and "run_s" in r]
    samples = {
        "run_s": [r["run_s"] for r in plain],
        "setup_s": summary["setup_s"],
        "train_samples_per_s": [workload.train_samples() / (r["run_s"] - r["setup_s"]) for r in plain],
        "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
    }
    return {name: (median(values), len(values)) for name, values in samples.items()}


def per_layer_metrics(workload: Workload, summary: dict) -> dict[str, tuple[float, int]]:
    """Per-layer metrics: medians across the traced runs whose counts held.

    In those runs every timed function was called, so each lookup holds.
    """
    traced = [r for r in summary["runs"] if "trace" in r]
    plain = [r["run_s"] for r in summary["runs"] if not r["traced"] and "run_s" in r]

    def over_runs(value_of, middle=statistics.median):
        values = [value_of(r["trace"]["functions"]) for r in traced]
        return (middle(values) if values else None), len(values)

    out = {
        "curricula.import_s": (median(summary["import_s"]), len(summary["import_s"])),
        "trace_overhead_ratio": (
            median([r["run_s"] for r in traced]) / median(plain) if traced and plain else None,
            len(traced),
        ),
    }
    for name in TRACED_FUNCTIONS:
        out[f"{name}.calls"] = over_runs(
            lambda fns, name=name: fns.get(name, {}).get("calls", 0), middle=statistics.median_low
        )
        if name in TIMED:
            out[f"{name}.self_s"] = over_runs(lambda fns, name=name: fns[name]["self_s"])
            out[f"{name}.us_per_call"] = over_runs(lambda fns, name=name: fns[name]["us_per_call"])
    repeats = [r["trace"]["subset_repeats"] / r["trace"]["functions"]["data.Dataset.subset"]["calls"] for r in traced]
    out["data.Dataset.subset.repeat_share"] = (median(repeats), len(repeats))
    flops = workload.train_matmul_flops()
    out["model.gflop_per_s"] = over_runs(lambda fns: flops / 1e9 / fns["model.train_epoch"]["self_s"])
    for layer in LAYER_TOTALS:
        out[f"{layer}.self_s"] = over_runs(lambda fns, layer=layer: layer_self_s(fns)[layer])
    return out


def layer_self_s(fns: dict) -> dict[str, float]:
    """Self seconds summed per layer, the part of a name before the first dot."""
    layers: dict[str, float] = {}
    for name, stats in fns.items():
        layer = name.split(".")[0]
        layers[layer] = layers.get(layer, 0.0) + stats["self_s"]
    return layers


def dominant_check(workload: Workload, fns: dict) -> str:
    """Whether the trace shows the function or layer the workload stresses."""
    if workload.dominant in TRACED_FUNCTIONS:
        self_s = {name: stats["self_s"] for name, stats in fns.items()}
    else:
        self_s = layer_self_s(fns)
    top = max(self_s, key=self_s.get)
    ranked = ", ".join(f"{k}={v:.3f}s" for k, v in sorted(self_s.items(), key=lambda kv: -kv[1])[:3])
    verdict = "yes" if top == workload.dominant else "NO"
    return f"largest self time: {top}, intended {workload.dominant}: {verdict} ({ranked})"


def git_commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def print_summary(workload: Workload, summary: dict, metrics: dict[str, tuple[float, int]], units: dict[str, str]) -> None:
    print(f"workload {workload.name} seed {summary['seed']}: {workload.why}")
    for i, run in enumerate(summary["runs"]):
        kind = "traced" if run["traced"] else "plain"
        if "run_s" in run:
            timing = f"run_s={run['run_s']:.4f} setup_s={run['setup_s']:.4f} rss={run['peak_rss_mb']:.1f}MB"
        else:
            timing = "no timing"
        status = "ok" if not run["problems"] else "FAILED: " + "; ".join(run["problems"])
        print(f"  run {i + 1} {kind}: {timing} {status}")
    traced = [r for r in summary["runs"] if "trace" in r]
    if traced:
        expected = workload.expected_calls()
        fns = traced[0]["trace"]["functions"]
        print(f"  {'function':34} {'calls':>9} {'expected':>9} {'self_s':>9} {'us/call':>9}")
        for name in sorted(TRACED_FUNCTIONS, key=lambda k: -(fns.get(k, {}).get("self_s") or 0)):
            f = fns.get(name, {})
            us = f"{f['us_per_call']:.1f}" if f.get("us_per_call") is not None else "-"
            print(f"  {name:34} {f.get('calls', 0):>9} {expected[name]:>9} {f.get('self_s', 0):>9.4f} {us:>9}")
        if workload.dominant is not None:
            print(f"  {dominant_check(workload, fns)}")
    print(f"  {'metric':40} {'median':>14} {'unit':10} n")
    for name, (value, n) in metrics.items():
        shown = f"{value:.6g}" if value is not None else "-"
        note = " (computed from layer shapes)" if name == "model.gflop_per_s" else ""
        print(f"  {name:40} {shown:>14} {units[name]:10} {n}{note}")
    print(f"  fail_ratio = {summary['failed']}/{summary['attempted']} = {summary['failed'] / summary['attempted']:.4g}")
    print(f"  outputs: {summary['digest_note']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*BENCHMARK_WORKLOADS, "smoke", "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "curricula" / "__init__.py").is_file():
        print(f"error: no curricula sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = BENCHMARK_WORKLOADS if args.workload == "all" else (args.workload,)
    digest_book = json.loads(DIGESTS_FILE.read_text()) if DIGESTS_FILE.is_file() else {}
    units = per_layer_units() if args.trace else END_TO_END
    attempted = failed = 0
    metrics_out = {}
    details = []
    for name in names:
        workload = WORKLOADS[name]
        summary = run_workload(workload, args.seed, args.seconds, bool(args.trace), digest_book)
        metrics = per_layer_metrics(workload, summary) if args.trace else end_to_end_metrics(workload, summary)
        print_summary(workload, summary, metrics, units)
        attempted += summary["attempted"]
        failed += summary["failed"]
        prefix = "" if len(names) == 1 else f"{name}."
        for metric, (value, _n) in metrics.items():
            if value is None:
                print(f"error: {name}: no sample of {metric}", file=sys.stderr)
                return 1
            metrics_out[prefix + metric] = {"value": value, "unit": units[metric]}
        env = dict(summary["env"] or {}, git_commit=git_commit(), **{v: "1" for v in THREAD_VARS})
        details.append({
            "workload": name,
            "seed": args.seed,
            "why": workload.why,
            "env": env,
            "digests": summary["digests"],
            "failures": summary["failures"],
            "samples": {m: n for m, (_v, n) in metrics.items()},
        })
    for detail in details:
        print("detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics_out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
