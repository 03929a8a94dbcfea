"""Repeat the benchmark over seeds and record medians, quartiles and spreads.

    python3 bench/baseline.py --first-seed 1 --out bench/BENCH_1.json

Runs `bench/run.py --trace 0` once per seed and workload of BENCHMARK.json
(RUNS seeds from --first-seed on; workloads interleaved so drift of the
machine reaches all of them alike), then one `--trace 1` run on the default
seed for every workload of workloads.py.  For each end-to-end metric it
prints the median, the quartiles of statistics.quantiles(n=4) and the spread
(q3 - q1) / median, next to the metric's bound from BENCHMARK.json, and
last the largest spread / bound over all of them.  --out writes all of it as
JSON, the form of the BENCH_<n>.json files.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUNS = 10                  # seeds per set


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def stats(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main(argv=None) -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", help="write the summary JSON here")
    args = parser.parse_args(argv)
    names = [w["name"] for w in config["workloads"]]
    seconds = config["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}

    results: dict[str, list[dict]] = {name: [] for name in names}
    for seed in range(args.first_seed, args.first_seed + RUNS):
        for name in names:
            results[name].append(run(name, seed, seconds, 0))
            print(f"# {name} seed {seed} done", file=sys.stderr, flush=True)

    summary = {"python": platform.python_version(), "runs": RUNS,
               "first_seed": args.first_seed, "seconds": seconds,
               "workloads": {}}
    worst = 0.0
    for name in names:
        runs = results[name]
        entry = {"attempted": sum(r["attempted"] for r in runs),
                 "failed": sum(r["failed"] for r in runs), "end_to_end": {}}
        print(f"{name}: {entry['failed']} failed of {entry['attempted']} jobs")
        for metric, bound in bounds.items():
            s = stats([r["metrics"][metric]["value"] for r in runs])
            s["unit"] = runs[0]["metrics"][metric]["unit"]
            entry["end_to_end"][metric] = s
            worst = max(worst, s["spread"] / bound)
            print(f"  {metric:<14} median {s['median']:10.4f} {s['unit']:<3} "
                  f"q1 {s['q1']:10.4f} q3 {s['q3']:10.4f} spread {s['spread']:7.4f} "
                  f"bound {bound}")
        summary["workloads"][name] = entry
    for name in WORKLOADS:
        traced = run(name, 0, seconds, 1)
        summary["workloads"].setdefault(name, {})["per_layer"] = {
            k: v["value"] for k, v in traced["metrics"].items()}
        summary["workloads"][name]["traced_failed"] = traced["failed"]
    print(f"largest spread / bound: {worst:.3f}")
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
