"""Benchmark of homfib's verdict pipelines, driven the way its users drive it.

    python3 perfbench/run.py --workload group-completion --seed 1 --seconds 60 --trace 0

Every job is one command-line pipeline run in-process: `homfib.dsl.parse`
on a generated document, `homfib.cli.run`, `homfib.cli.emit(stable=True)`.
The load is a closed loop with one client: one process, one thread, each job
starting when the previous one has finished.  A pass is the workload's
seeded job list; passes repeat until about `--seconds` have been measured:
another pass starts unless it would end more than half a pass late.

With `--trace 0` the last line of output reports the end-to-end metrics.
With `--trace 1` one pass runs with every job executed twice, untraced and
traced; the traced report must be byte-identical, and the last line reports
the per-layer metrics.  The span list and the Smith normal form shape
histogram are written under perfbench/out/.

Each report is checked by an oracle outside homfib (see workloads.py).  A
job that raises, exits with the wrong code or fails its oracle is counted
in `failed` and the run carries on.  The benchmark exits with 2, printing
no result, when it cannot run: HOMFIB_JOBS is set, or the checkout lacks
src/ or tests/oracles.py.
"""

from __future__ import annotations

import argparse
import gc
import gzip
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import Tracer, per_layer_metrics
from workloads import WORKLOADS, make_jobs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPEATS = 9

# What a fresh process does before its first job can start: import the
# command surface and parse the job's document.
SETUP_CHILD = """\
import sys
sys.path.insert(0, sys.argv[1])
from homfib import cli, dsl
dsl.parse(sys.stdin.read())
print("ready", flush=True)
"""

END_TO_END_UNITS = {
    "verdicts_per_s": "1/s",
    "verdict_s.p50": "s",
    "verdict_s.p90": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "ok_rate": "ratio",
}


def refuse(message: str):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def environment() -> dict:
    """What the numbers depend on besides the code."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "homfib").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                    capture_output=True, timeout=10).stdout.strip() or None
        except OSError:
            pass
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED"),
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
    }


def ready_seconds(first_text: str) -> float:
    """Wall time from spawning a fresh interpreter to its first job ready."""
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", SETUP_CHILD, str(SRC)],
                          stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                          text=True) as child:
        child.stdin.write(first_text)
        child.stdin.close()
        ready = child.stdout.readline()
        elapsed = time.perf_counter() - start
        child.stdout.read()
    if child.returncode != 0 or ready.strip() != "ready":
        refuse("the set-up process failed to import homfib")
    return elapsed


def run_job(cli, dsl, job) -> tuple[float, str | None, str | None]:
    """(seconds, stable report, error) of one pipeline, from parse to emit.

    The heap is collected first, untimed: a command-line job starts in a
    fresh process, not amid the garbage of the job before it.
    """
    gc.collect()
    start = time.perf_counter()
    try:
        doc = dsl.parse(job.text)
        report = cli.run(job.command, doc, dict(job.flags))
        out = cli.emit(report, "json", stable=True)
    except Exception as exc:  # a crashing job is a failed job, not a failed run
        return time.perf_counter() - start, None, f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - start, out, None


def quantile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with a share q at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def untraced(cli, dsl, jobs, seconds: float) -> tuple[dict, int, int]:
    # The first spawn also writes the bytecode caches and is not kept; the
    # kept ones are spread evenly over the run, like the jobs.
    ready_seconds(jobs[0].text)
    setups, failed = [], 0
    per_job = [[] for _ in jobs]
    start = time.perf_counter()
    passes = 0
    while True:
        pass_start = time.perf_counter()
        for times, job in zip(per_job, jobs):
            elapsed, out, error = run_job(cli, dsl, job)
            times.append(elapsed)
            error = error or job.problem(out)
            if error:
                failed += 1
                print(f"FAIL {job.command} {job.label}: {error}", file=sys.stderr)
            if len(setups) < SETUP_REPEATS and \
                    time.perf_counter() - start >= len(setups) * seconds / SETUP_REPEATS:
                setups.append(ready_seconds(jobs[0].text))
        passes += 1
        now = time.perf_counter()
        if now - start + (now - pass_start) / 2 > seconds:
            break
    while len(setups) < SETUP_REPEATS:
        setups.append(ready_seconds(jobs[0].text))
    wall = time.perf_counter() - start
    attempted = passes * len(jobs)
    busy = sum(map(sum, per_job))
    # A job's verdict time is its best over the passes, as timeit reports.
    # On a shared host the speed switches between a fast and a slow mode
    # every few seconds, and the share of time in the slow mode drifts over
    # minutes; the fast mode's speed holds.  A mean or a median moves with
    # that share, the best of several passes hardly does.
    verdict_s = [min(times) for times in per_job]
    metrics = {
        "verdicts_per_s": (attempted - failed) / passes / sum(verdict_s),
        "verdict_s.p50": quantile(verdict_s, 0.5),
        "verdict_s.p90": quantile(verdict_s, 0.9),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": statistics.median(setups),
        "ok_rate": (attempted - failed) / attempted,
    }
    print(f"passes {passes}, jobs {attempted} ({len(jobs)} per pass), {busy:.3f} s "
          f"in jobs of {wall:.3f} s wall ({(attempted - failed) / busy:.4g} verdicts/s "
          f"over all passes), verdict_s best of {passes} passes for each of {len(jobs)} "
          f"jobs, error_rate {failed / attempted:.4f}, setup_s median of {len(setups)}")
    return metrics, attempted, failed


def traced(cli, dsl, jobs, workload: str, seed: int, env: dict) -> tuple[dict, int, int]:
    tracer = Tracer()
    failed = 0
    plain_s = traced_s = 0.0
    for job_id, job in enumerate(jobs):
        elapsed, out, error = run_job(cli, dsl, job)
        plain_s += elapsed
        with tracer.job(job_id):
            elapsed, traced_out, traced_error = run_job(cli, dsl, job)
        traced_s += elapsed
        error = error or traced_error or job.problem(out)
        if not error and traced_out != out:
            error = "the traced report differs from the untraced one"
        if error:
            failed += 1
            print(f"FAIL {job.command} {job.label}: {error}", file=sys.stderr)
    metrics = tracer.metrics(traced_s - plain_s)
    OUT.mkdir(exist_ok=True)
    stem = f"{workload}.seed{seed}"
    header = {"workload": workload, "seed": seed, "env": env,
              "jobs": [f"{j.command} {j.label}" for j in jobs]}
    (OUT / f"{stem}.snf_shapes.json").write_text(json.dumps(
        {**header, "snf_shapes": tracer.shape_histogram()}, indent=1) + "\n")
    with gzip.open(OUT / f"{stem}.spans.jsonl.gz", "wt") as fh:
        fh.write(json.dumps({**header, "binding_sites": tracer.sites,
                             "span": ["id", "parent", "job", "name", "start_s",
                                      "duration_s"]}) + "\n")
        for span in tracer.spans:
            fh.write(json.dumps(span) + "\n")
    print(f"traced {len(jobs)} jobs, {len(tracer.spans)} spans; untraced {plain_s:.3f} s, "
          f"traced {traced_s:.3f} s; artifacts perfbench/out/{stem}.*")
    return metrics, len(jobs), failed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if "HOMFIB_JOBS" in os.environ:
        refuse("HOMFIB_JOBS is set; the benchmark measures one thread, unset it")
    if not (SRC / "homfib" / "__init__.py").is_file():
        refuse(f"no homfib sources under {SRC}")
    if not (ROOT / "tests" / "oracles.py").is_file():
        refuse("no tests/oracles.py to check reports against")

    env = environment()
    jobs = make_jobs(args.workload, args.seed)
    print("env " + json.dumps(env, sort_keys=True))
    sys.path.insert(0, str(SRC))
    from homfib import cli, dsl
    if args.trace:
        metrics, attempted, failed = traced(cli, dsl, jobs, args.workload, args.seed, env)
        units = {name: unit for name, (unit, _) in per_layer_metrics().items()}
    else:
        metrics, attempted, failed = untraced(cli, dsl, jobs, args.seconds)
        units = END_TO_END_UNITS
    for name, value in metrics.items():
        print(f"{args.workload} {name} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
