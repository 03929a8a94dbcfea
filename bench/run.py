"""Benchmark of the `riesz` command line on seeded workloads.

    python3 bench/run.py --workload spectral --seed 0 --seconds 60 --trace 0
    python3 bench/run.py --workload all      # each workload of BENCHMARK.json,
                                             # untraced then traced

Run from the repository root.  Each workload is a fixed list of `riesz`
jobs (see workloads.py).  The load is a closed loop with one client: one
job at a time, each in its own `python -m rieszprod.cli` child with
PYTHONPATH=src, in passes over the job list that repeat while another
pass fits in --seconds.  Per-job CPU time and peak RSS come from the
child's rusage.

--trace 0 reports the end-to-end metrics: each timed child runs between
two runs of calibrate.py, its wall and CPU times are scaled to the machine
speed at which calibrate.py takes CALIBRATION_S of wall and of CPU time,
and each job's time is its median over the passes.  --trace 1 runs the
same job list in this process through `rieszprod.cli.main`, alternating
untraced passes with passes traced by spans.py, and reports the per-layer
metrics.  Metric names and units come from BENCHMARK.json.
The last line of standard output is the result as one JSON object; the
lines before it print every metric with its unit and sample count.
Inputs, reports, spans and results go to bench/.work/<workload>/.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import spans
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
DEFAULT_SEED = 0           # the seed whose reports are stored in reference/
SETUP_PER_PASS = 3         # cold `validate` runs timed for setup_s before each pass
CALIBRATION_S = 0.40       # calibrate.py's wall and CPU time on the reference box
                           # (2-vCPU KVM guest, Intel Xeon model 207, Python 3.11,
                           # numpy 2.4)
JOB_TIMEOUT = 150.0        # seconds before a child is killed and counted failed


@dataclass
class JobResult:
    name: str
    returncode: int
    wall: float
    cpu: float = 0.0
    rss_mb: float = 0.0
    scale: float = 1.0     # CALIBRATION_S over the calibration wall time beside this run
    cpu_scale: float = 1.0 # CALIBRATION_S over the calibration CPU time beside this run
    error: str | None = None


def load_config() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unavailable"


def riesz(argv) -> tuple[str, ...]:
    """Interpreter arguments of one `riesz` invocation."""
    return ("-m", "rieszprod.cli", *argv)


def run_child(name: str, args, work: Path) -> JobResult:
    """`python <args>` in a child process, timed by its own rusage.
    Its stderr goes to out/<name>.stderr."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with open(work / "out" / f"{name}.stderr", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args],
                                cwd=work, env=env, stdout=subprocess.DEVNULL,
                                stderr=err)
        timer = threading.Timer(JOB_TIMEOUT, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return JobResult(name, proc.returncode, wall,
                     usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0)


def check_pass(workload: workloads.Workload, results: list[JobResult],
               work: Path) -> None:
    """Mark each result whose exit code or output is wrong."""
    for job, result in zip(workload.jobs, results):
        if result.returncode != 0:
            result.error = f"exit code {result.returncode}"
            continue
        try:
            job.check(work)
        except Exception as err:  # a malformed report can raise anything
            result.error = f"{type(err).__name__}: {err}"


def report_digests(workload: workloads.Workload, work: Path) -> dict[str, str]:
    out = {}
    for job in workload.jobs:
        path = work / "out" / f"{job.name}.csv"
        if path.is_file():
            out[job.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


def byte_identity(name: str, seed: int, digests: dict[str, str]) -> tuple[int, int]:
    """(identical, compared) against the stored reports of the default seed."""
    path = BENCH / "reference" / f"{name}.json"
    if seed != DEFAULT_SEED or not path.is_file():
        return 0, 0
    reference = json.loads(path.read_text(encoding="utf-8"))
    same = sum(1 for job, digest in reference.items() if digests.get(job) == digest)
    return same, len(reference)


def fits(start: float, seconds: float, last: float) -> bool:
    """Whether another round as long as the last one ends within the budget."""
    return time.perf_counter() - start + last <= seconds


# ---------------------------------------------------------------------------
# untraced: one child per job
# ---------------------------------------------------------------------------


def timed_run(workload, work: Path, seconds: float):
    validate = riesz(("validate", "--spec", workload.first_spec,
                      "--out", "out/validate.csv"))
    # set-up samples taken in every pass see the same machine as the jobs
    steps = ([("validate", validate)] * SETUP_PER_PASS
             + [(job.name, riesz(job.argv)) for job in workload.jobs])

    def calibrate() -> JobResult:
        result = run_child("calibrate", (str(BENCH / "calibrate.py"),), work)
        if result.returncode != 0:
            raise RuntimeError(f"calibrate.py exited {result.returncode}")
        return result

    def run_step(name: str, args) -> JobResult:
        result = run_child(name, args, work)
        if name == "validate" and result.returncode != 0:
            raise RuntimeError(f"setup: `riesz validate` exited {result.returncode}")
        return result

    # warms the file cache and the bytecode cache
    run_step(*steps[0])
    before = calibrate()
    calibration: list[float] = []
    passes: list[list[JobResult]] = []
    start = round_start = time.perf_counter()
    while not passes or fits(start, seconds, time.perf_counter() - round_start):
        round_start = time.perf_counter()
        results = []
        for name, args in steps:
            result = run_step(name, args)
            after = calibrate()
            # a shared host changes speed from second to second; the runs of
            # calibrate.py just before and after a child see the speed it saw
            result.scale = 2.0 * CALIBRATION_S / (before.wall + after.wall)
            result.cpu_scale = 2.0 * CALIBRATION_S / (before.cpu + after.cpu)
            results.append(result)
            calibration.append(after.wall)
            before = after
        check_pass(workload, results[SETUP_PER_PASS:], work)
        passes.append(results)

    setup = [r.wall * r.scale for rs in passes for r in rs[:SETUP_PER_PASS]]
    per_job = list(zip(*(rs[SETUP_PER_PASS:] for rs in passes)))
    job_wall = [statistics.median(r.wall * r.scale for r in runs) for runs in per_job]
    values = {
        "setup_s": statistics.median(setup),
        "wall_s": sum(job_wall),
        "cpu_s": sum(statistics.median(r.cpu * r.cpu_scale for r in runs) for runs in per_job),
        "job_s.p50": statistics.median(job_wall),
        "peak_rss_mb": max(statistics.median(r.rss_mb for r in runs) for runs in per_job),
    }
    n = len(passes)
    samples = {"setup_s": len(setup), "wall_s": n, "cpu_s": n,
               "job_s.p50": n * len(workload.jobs), "peak_rss_mb": n}
    jobs = [r for rs in passes for r in rs[SETUP_PER_PASS:]]
    return values, samples, jobs, statistics.median(calibration)


# ---------------------------------------------------------------------------
# traced: in this process, through rieszprod.cli.main
# ---------------------------------------------------------------------------


def reset_caches() -> None:
    """Give each in-process job the cold caches a fresh child would have."""
    modules = [m for key, m in list(sys.modules.items())
               if m is not None and key.startswith("rieszprod.")]
    for module in modules:
        for value in list(vars(module).values()):
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()
    patterns = getattr(sys.modules.get("rieszprod.qi"), "_PATTERN_MATRICES", None)
    if isinstance(patterns, dict):
        patterns.clear()


def expansion_cache_counts() -> tuple[int, int]:
    cache = getattr(sys.modules.get("rieszprod.core"), "_expansion", None)
    if cache is None or not hasattr(cache, "cache_info"):
        return 0, 0
    info = cache.cache_info()
    return info.hits, info.misses


def inprocess_pass(workload, work: Path, tracer: spans.Tracer, pass_id: int):
    cli = importlib.import_module("rieszprod.cli")
    results, hits, misses = [], 0, 0
    previous = os.getcwd()
    os.chdir(work)
    try:
        start = time.perf_counter()
        for job in workload.jobs:
            reset_caches()
            tracer.job = f"{pass_id}/{job.name}"
            job_start = time.perf_counter()
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                try:
                    code = cli.main(list(job.argv))
                except SystemExit as exc:
                    code = exc.code if isinstance(exc.code, int) else 2
                except Exception:  # a traceback in the program fails the job
                    code = 1
            results.append(JobResult(job.name, code, time.perf_counter() - job_start))
            h, m = expansion_cache_counts()
            hits, misses = hits + h, misses + m
        wall = time.perf_counter() - start
    finally:
        os.chdir(previous)
        tracer.job = None
    reset_caches()
    check_pass(workload, results, work)
    return wall, results, hits, misses


def traced_run(workload, work: Path, seconds: float, name: str, seed: int):
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    importlib.import_module("rieszprod.cli")
    tracer = spans.Tracer()
    jobs: list[JobResult] = []
    start = time.perf_counter()
    # an unrecorded pass first, so import-time and first-call costs fall on neither side
    jobs += inprocess_pass(workload, work, tracer, 0)[1]
    plain, traced = [], []
    pair_start = start
    while not traced or fits(start, seconds, time.perf_counter() - pair_start):
        pair_start = time.perf_counter()
        wall, results, _, _ = inprocess_pass(workload, work, tracer, len(plain) + 1)
        plain.append(wall)
        jobs += results
        lo = len(tracer.spans)
        tracer.install()
        try:
            wall, results, hits, misses = inprocess_pass(workload, work, tracer,
                                                         len(traced) + 1)
        finally:
            tracer.uninstall()
        traced.append((wall, lo, len(tracer.spans), hits, misses))
        jobs += results
    tracer.write(work / "spans.jsonl", start)

    summaries = [spans.summarize(tracer.spans, lo, hi) for _, lo, hi, _, _ in traced]
    last = summaries[-1]
    values = {}
    for key in set().union(*summaries):
        if key.endswith(("busy_s", "self_s")):
            values[key] = statistics.median(s.get(key, 0.0) for s in summaries)
        else:
            values[key] = last.get(key, 0.0)
    _, lo, hi, hits, misses = traced[-1]
    values["core.expand_partial_product.cache_hit_ratio"] = (
        hits / (hits + misses) if hits + misses else 0.0)
    for checker in ("qi.qi_check_bruteforce", "qi.qi_check_mitm"):
        values[f"{checker}.exact_calls"] = last.get(f"{checker}.exact", 0.0)
    checks = sum(last.get(f"{c}.calls", 0.0)
                 for c in ("qi.qi_check_bruteforce", "qi.qi_check_mitm"))
    witnesses = sum(last.get(f"{c}.witness", 0.0)
                    for c in ("qi.qi_check_bruteforce", "qi.qi_check_mitm"))
    values["qi.witness_ratio"] = witnesses / checks if checks else 0.0
    values["trace.overhead_frac"] = (statistics.median(w for w, *_ in traced)
                                     / statistics.median(plain) - 1.0)
    values["trace.spans"] = hi - lo
    same, compared = byte_identity(name, seed, report_digests(workload, work))
    values["specio.reports.byte_identical"] = same
    values["specio.reports.compared"] = compared
    samples = {key: len(traced) if key.endswith(("busy_s", "self_s")) else 1
               for key in values}
    samples["trace.overhead_frac"] = len(traced) + len(plain)
    return values, samples, jobs


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------


def run_workload(config: dict, name: str, seed: int, seconds: float,
                 trace: bool) -> dict:
    work = BENCH / ".work" / name
    shutil.rmtree(work, ignore_errors=True)
    (work / "in").mkdir(parents=True)
    (work / "out").mkdir()
    meta = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
            "python": platform.python_version(), "numpy": np.__version__,
            "nproc": len(os.sched_getaffinity(0)), "loadavg_before": loadavg()}

    def setup_cli(argv):
        result = run_child("setup", riesz(argv), work)
        if result.returncode != 0:
            raise RuntimeError(f"setup: `riesz {' '.join(argv)}` exited "
                               f"{result.returncode}")

    workload = workloads.WORKLOADS[name](seed, work, setup_cli)
    if trace:
        values, samples, jobs = traced_run(workload, work, seconds, name, seed)
    else:
        values, samples, jobs, meta["calibration_s"] = timed_run(workload, work, seconds)
    units = {m["name"]: m["unit"] for m in config["per_layer" if trace else "end_to_end"]}
    meta["loadavg_after"] = loadavg()

    failures = [f"{r.name}: {r.error}" for r in jobs if r.error]
    metrics = {key: {"value": float(values.get(key, 0.0)), "unit": unit}
               for key, unit in units.items()}
    print(f"# {name} seed={seed} trace={int(trace)} python={meta['python']} "
          f"numpy={meta['numpy']} nproc={meta['nproc']}")
    print(f"# loadavg before: {meta['loadavg_before']}  after: {meta['loadavg_after']}")
    if "calibration_s" in meta:
        print(f"# calibrate.py median {meta['calibration_s']:.4f} s; times are scaled "
              f"to {CALIBRATION_S} s")
    for key, metric in metrics.items():
        note = " (computed)" if key in spans.COMPUTED else ""
        print(f"  {key:<48} {metric['value']:>16.6g} {metric['unit']:<6} "
              f"n={samples.get(key, 1)}{note}")
    print(f"  {'failed_frac':<48} {len(failures) / len(jobs):>16.6g} {'ratio':<6} "
          f"n={len(jobs)}")
    for failure in sorted(set(failures)):
        print(f"  FAILED {failure}")
    result = {"correct": not failures, "attempted": len(jobs),
              "failed": len(failures), "metrics": metrics}
    (work / f"result-trace{int(trace)}.json").write_text(
        json.dumps({"meta": meta, "samples": samples, "failures": failures,
                    "report_digests": report_digests(workload, work), **result},
                   indent=1) + "\n", encoding="utf-8")
    return result


def main(argv=None) -> int:
    config = load_config()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=config["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM ends the run through SystemExit, so run_child kills its child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    if not (SRC / "rieszprod" / "cli.py").is_file():
        print(f"error: no program to measure at {SRC / 'rieszprod'}", file=sys.stderr)
        return 2
    try:
        if args.workload == "all":
            combined = {f"{w['name']}.trace{t}": run_workload(config, w["name"], args.seed,
                                                              args.seconds, bool(t))
                        for w in config["workloads"] for t in (0, 1)}
            print(json.dumps(combined))
        else:
            print(json.dumps(run_workload(config, args.workload, args.seed,
                                          args.seconds, bool(args.trace))))
    except (RuntimeError, workloads.CheckFailed, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
