"""One benchmark process: set up, run one workload once, report timings.

Started by ``run.py`` in a fresh interpreter with the workload's configs in
its working directory. It imports only the standard library before
``curricula``, so the set-up it reports is what every invocation pays.
Timestamps are ``time.monotonic()``, a clock shared with the parent, which
measures from just before it started this process.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from collections import Counter
from pathlib import Path

from spans import Tracer, summarize
from workloads import COUNT_ONLY, TRACED_FUNCTIONS, WORKLOADS

# Where each traced function is looked up by its callers.
TRACE_SITES = {
    "harness.parse_config": ["curricula.harness:parse_config", "curricula.cli:parse_config"],
    "harness.build_dataset": ["curricula.harness:build_dataset", "curricula.cli:build_dataset"],
    "harness.run_arm_on_fold": ["curricula.harness:run_arm_on_fold"],
    "harness.run_experiment": ["curricula.harness:run_experiment", "curricula.cli:run_experiment"],
    "harness.render_report": ["curricula.harness:render_report", "curricula.cli:render_report"],
    "data.generate_synthetic": [
        "curricula.data:generate_synthetic",
        "curricula.harness:generate_synthetic",
        "curricula.cli:generate_synthetic",
    ],
    "data.load_csv": ["curricula.data:load_csv", "curricula.harness:load_csv"],
    "data.write_csv": ["curricula.data:write_csv", "curricula.cli:write_csv"],
    "data.stratified_kfold": [
        "curricula.data:stratified_kfold",
        "curricula.harness:stratified_kfold",
        "curricula.cli:stratified_kfold",
    ],
    "data.write_partitions_csv": ["curricula.data:write_partitions_csv", "curricula.cli:write_partitions_csv"],
    "data.Dataset.subset": ["curricula.data:Dataset.subset"],
    "model.init": ["curricula.model:init"],
    "model.train": ["curricula.model:train"],
    "model.train_epoch": ["curricula.model:train_epoch"],
    "model.predict_proba_batch": ["curricula.model:predict_proba_batch"],
    "model.mean_recall": ["curricula.model:mean_recall"],
    "losses.batch_combined_loss_grad": [
        "curricula.losses:batch_combined_loss_grad",
        "curricula.model:batch_combined_loss_grad",
    ],
    "metrics.evaluate": ["curricula.metrics:evaluate"],
    "scheduler.lambda_at": ["curricula.scheduler:lambda_at", "curricula.harness:lambda_at"],
}
assert set(TRACE_SITES) == set(TRACED_FUNCTIONS)


def install_tracer(tracer: Tracer) -> Counter:
    """Wrap every traced function.

    Returns a counter whose ``repeats`` counts ``Dataset.subset`` calls
    with ids that an earlier call already sliced.
    """
    sliced: set[bytes] = set()
    subset = Counter()

    def observe_subset(args):
        key = args[1].tobytes()
        subset["repeats"] += key in sliced
        sliced.add(key)

    def unit_of_arm_fold(args):
        arm, _dataset, partition = args[:3]
        return f"{arm.name}/{partition.fold_index}"

    hooks = {
        "harness.run_arm_on_fold": {"unit_of": unit_of_arm_fold},
        "data.Dataset.subset": {"observe": observe_subset},
    }
    for name, sites in TRACE_SITES.items():
        tracer.patch(name, sites, count_only=name in COUNT_ONLY, **hooks.get(name, {}))
    return subset


def blas_info() -> dict:
    """OpenBLAS version, plus its runtime config and thread count where the
    library bundled with numpy exposes them."""
    import ctypes
    import glob

    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info = {"openblas": blas.get("version"), "openblas_config": None, "blas_threads": None}
    for lib_path in glob.glob(str(Path(numpy.__file__).parent.parent / "numpy.libs" / "libscipy_openblas*.so")):
        lib = ctypes.CDLL(lib_path)
        try:
            get_config, get_threads = lib.scipy_openblas_get_config64_, lib.scipy_openblas_get_num_threads64_
        except AttributeError:
            continue
        get_config.restype = ctypes.c_char_p
        get_threads.restype = ctypes.c_int
        info["openblas_config"] = get_config().decode()
        info["blas_threads"] = get_threads()
    return info


def environment() -> dict:
    import platform

    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        **blas_info(),
        "nproc": len(os.sched_getaffinity(0)),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--mode", choices=("setup", "run"), required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--roundtrip", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result", required=True)
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]

    t_import = time.monotonic()
    import curricula
    from curricula import cli, harness

    import_s = time.monotonic() - t_import
    tracer = None
    if args.trace:
        tracer = Tracer()
        subset = install_tracer(tracer)
    config = harness.parse_config("run.yaml")
    t_setup = time.monotonic()
    result = {"t_setup": t_setup, "import_s": import_s, "curricula_file": curricula.__file__}

    if args.mode == "setup":
        result["env"] = environment()
    else:
        if workload.via_cli:
            for argv in (
                ["gen-data", "--config", "gen.yaml", "--out", "data.csv"],
                ["folds", "--config", "gen.yaml", "--out", "folds.csv"],
                ["run", "--config", "run.yaml", "--out", "out"],
            ):
                if cli.main(argv) != 0:
                    raise SystemExit(f"curricula {argv[0]} exited non-zero")
        else:
            harness.render_report(harness.run_experiment(config), "out")
        result["t_done"] = time.monotonic()
        result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

        if tracer is not None:
            tracer.unpatch()
            spans = tracer.finished_spans()
            tracer.write_csv("spans.csv")
            result["trace"] = {
                "functions": summarize(spans, tracer.calls),
                "subset_repeats": subset["repeats"],
                "spans": len(spans),
            }
        if args.roundtrip:
            result["roundtrip"] = csv_round_trip_holds(harness)

    Path(args.result).write_text(json.dumps(result))
    return 0


def csv_round_trip_holds(harness) -> bool:
    """``load_csv`` of the written ``data.csv`` equals the generated dataset."""
    import numpy as np

    from curricula.data import load_csv

    generated = harness.build_dataset(harness.parse_config("gen.yaml"))
    loaded = load_csv("data.csv")
    return all(
        np.array_equal(getattr(generated, field), getattr(loaded, field))
        for field in ("ids", "labels", "features")
    )


if __name__ == "__main__":
    sys.exit(main())
