"""Run the benchmark over many seeds; report spreads, record a baseline.

    python3 perfbench/record.py --seeds 0-9 --seconds 40
    python3 perfbench/record.py --seeds 0-9 --seconds 40 --record-digests --baseline perfbench/baseline.json
    python3 perfbench/record.py --seeds 0-9 --seconds 40 --compare perfbench/baseline.json

Each (seed, workload) is one ``run.py`` process, started as any caller would start
it; seeds are the outer loop, so slow phases of the machine fall on every
workload alike. For each end-to-end metric it prints the ten values, their
median and the distance between the first and third quartile as a share
of the median, beside the bound in BENCHMARK.json.

``--record-digests`` adds the output digests of every correct run to
``digests.json``, for seeds not recorded yet; digests recorded in another
environment (see ``run.DIGEST_ENV_KEYS``) are replaced. ``--baseline`` writes the
medians, quartiles, environment and, with ``--trace``, one traced run per
workload. ``--compare`` prints how far each median moved from a baseline.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import BENCH_DIR, BENCHMARK_WORKLOADS, DIGEST_ENV_KEYS, DIGESTS_FILE, ROOT


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def invoke(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=200,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    detail = next(json.loads(line[7:]) for line in lines if line.startswith("detail "))
    return {"result": json.loads(lines[-1]), "detail": detail}


def spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "iqr_share": (q3 - q1) / med, "n": len(values)}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--workloads", default=",".join(BENCHMARK_WORKLOADS))
    parser.add_argument("--trace", action="store_true", help="also make one traced run per workload")
    parser.add_argument("--record-digests", action="store_true")
    parser.add_argument("--baseline", help="write medians, quartiles and environment here")
    parser.add_argument("--compare", help="a baseline to compare the medians with")
    args = parser.parse_args()

    seeds = parse_seeds(args.seeds)
    workloads = args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs: dict[str, list[dict]] = {w: [] for w in workloads}
    for seed in seeds:
        for workload in workloads:
            run = invoke(workload, seed, args.seconds, 0)
            runs[workload].append(run)
            result = run["result"]
            print(f"{workload} seed {seed}: correct={result['correct']} failed={result['failed']}/{result['attempted']} "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)

    traced = {w: invoke(w, seeds[0], args.seconds, 1) for w in workloads} if args.trace else {}
    previous = json.loads(Path(args.compare).read_text())["workloads"] if args.compare else {}

    baseline = {"seconds": args.seconds, "seeds": seeds, "workloads": {}}
    all_steady = True
    for workload in workloads:
        results = [r["result"] for r in runs[workload]]
        entry = {
            "why": runs[workload][0]["detail"]["why"],
            "env": runs[workload][0]["detail"]["env"],
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {},
        }
        print(f"\n{workload}: fail_ratio {entry['failed']}/{entry['attempted']}")
        for metric, bound in bounds.items():
            values = [r["metrics"][metric]["value"] for r in results]
            s = spread(values)
            s["unit"] = results[0]["metrics"][metric]["unit"]
            entry["metrics"][metric] = s
            steady = s["iqr_share"] < bound / 3
            all_steady &= steady
            line = (f"  {metric:22} median {s['median']:<12.6g} {s['unit']:10} iqr/median {s['iqr_share']:.4f} "
                    f"bound {bound} {'ok' if steady else 'over a third of the bound'}")
            if workload in previous:
                before = previous[workload]["metrics"][metric]["median"]
                better = next(m["better"] for m in spec["end_to_end"] if m["name"] == metric)
                worse = (s["median"] - before) / before * (1 if better == "lower" else -1)
                line += f"  worse than baseline by {worse:+.4f} {'ok' if worse <= bound else 'REGRESSED'}"
            print(line)
        if workload in traced:
            entry["traced"] = {
                "seed": seeds[0],
                "metrics": {k: v["value"] for k, v in traced[workload]["result"]["metrics"].items()},
            }
        baseline["workloads"][workload] = entry

    if args.record_digests:
        book = json.loads(DIGESTS_FILE.read_text()) if DIGESTS_FILE.is_file() else {}
        for workload in workloads:
            for seed, run in zip(seeds, runs[workload]):
                if not run["result"]["correct"]:
                    continue
                env = {key: run["detail"]["env"][key] for key in DIGEST_ENV_KEYS}
                if book.get("environment") != env:
                    book = {"environment": env, "workloads": {}}
                book["workloads"].setdefault(workload, {}).setdefault(str(seed), run["detail"]["digests"])
        DIGESTS_FILE.write_text(json.dumps(book, indent=1, sort_keys=True) + "\n")
    if args.baseline:
        Path(args.baseline).write_text(json.dumps(baseline, indent=1) + "\n")
    print("\nall spreads below a third of their bounds" if all_steady else "\nsome spreads are too wide")
    return 0


if __name__ == "__main__":
    sys.exit(main())
