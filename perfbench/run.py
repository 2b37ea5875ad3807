"""Run the revaudit benchmark from the root of a source checkout.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Each workload run starts fresh interpreters (worker.py) that import revaudit
from ./src, generate the seeded inputs and call `revaudit.cli.main` in a
closed loop: one caller, each job started after the previous one returned.
A run makes passes over the whole job list until `--seconds` have elapsed,
at least MIN_PASSES of them.

The benchmark's caller passes all four options, with `--seconds` set to
`run_seconds` of BENCHMARK.json, which is also its default. The number of
passes, and so each job's median latency, depends on `--seconds`: compare only
results taken at the same value, which each results file records.

Every time is read on speed.SpeedClock, which measures the core's speed
from inside the worker and reads time at a fixed reference speed, so that
other tenants slowing the core do not show as the program slowing; each
job's raw wall time is recorded beside it. With `--trace 0` it reports the
end-to-end metrics of BENCHMARK.json:

- `setup_s`: median over PROBES + 1 fresh interpreters of the time to import
  revaudit, generate and write the configs and run one warm-up job. The
  probes are split between before and after the measuring process, which
  is the last of them.
- `wall_s`: the time to complete the whole job list, each job taken at its
  median latency over the passes.
- `job_p50_ms`, `job_p90_ms`: each job's median latency over the passes,
  then the nearest-rank percentile over the job list (at least ten jobs lie
  beyond p90).
- `peak_rss_mb`: peak resident memory of the measuring process.

With `--trace 1` one interpreter runs untraced and traced passes in turn
for `--seconds`, at least MIN_PASSES of each, and reports the per-layer
metrics (times at their median over the traced passes) plus
`trace.overhead`, the summed per-job median latencies traced over untraced.

Every run writes its samples, input properties, job digests and run
metadata to perfbench/results/. The last line of stdout is one JSON object
with `correct`, `attempted`, `failed` and `metrics`; the exit code is 0 only
when every job's output passed its checks.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import stats

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
RESULTS_DIR = os.path.join(HERE, "results")
WORKLOADS = ("paper", "sweep", "search", "declared")
PROBES = 6
MIN_PASSES = 2
DEADLINE_S = 170
DEFAULT_SEED = 1


def read_loadavg() -> str | None:
    try:
        with open("/proc/loadavg", encoding="ascii") as fh:
            return fh.read().strip()
    except OSError:
        return None


def git_sha() -> str | None:
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def spawn(deadline: float, *args) -> dict:
    """Run one worker process to completion and return its JSON result."""
    # A fixed hash seed keeps set and dict layouts, and so timings, the same
    # from run to run; the program's outputs do not depend on it.
    env = dict(os.environ, PYTHONHASHSEED="0")
    done = subprocess.run([sys.executable, WORKER, *map(str, args)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=max(1.0, deadline - time.monotonic()))
    if done.returncode != 0:
        raise RuntimeError(f"worker {' '.join(map(str, args))} exited {done.returncode}:\n{done.stderr[-2000:]}")
    return json.loads(done.stdout.splitlines()[-1])


def run_workload(spec: dict, workload: str, seed: int, seconds: float, trace: int, deadline: float) -> dict:
    meta = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
            "git_sha": git_sha(), "python": platform.python_version(), "nproc": os.cpu_count(),
            "loadavg_before": read_loadavg()}
    os.makedirs(RESULTS_DIR, exist_ok=True)
    stem = os.path.join(RESULTS_DIR, f"{workload}-seed{seed}-trace{trace}")
    if trace:
        traced = spawn(deadline, "traced", workload, seed, seconds, MIN_PASSES, stem + "-spans.tsv")
        workers = [traced]
        metrics = dict(traced["per_layer"], **{"trace.overhead": traced["trace_overhead"]})
        samples = {"untraced_pass_wall_s": traced["pass_wall_s"],
                   "traced_pass_wall_s": traced["traced_pass_wall_s"],
                   "untraced_job_latency_ms_per_pass": traced["job_latency_ms"],
                   "traced_job_latency_ms_per_pass": traced["traced_job_latency_ms"],
                   "slowdown_shares": traced["slowdown_shares"]}
        wanted = spec["per_layer"]
    else:
        probes = [spawn(deadline, "probe", workload, seed, 0, 0) for _ in range(PROBES // 2)]
        main = spawn(deadline, "measure", workload, seed, seconds, MIN_PASSES)
        probes += [spawn(deadline, "probe", workload, seed, 0, 0) for _ in range(PROBES - PROBES // 2)]
        workers = probes + [main]
        medians = stats.job_medians(main["job_latency_ms"])
        metrics = {
            "setup_s": statistics.median(w["setup_s"] for w in workers),
            "wall_s": sum(medians) / 1e3,
            "job_p50_ms": stats.percentile(medians, 50),
            "job_p90_ms": stats.percentile(medians, 90),
            "peak_rss_mb": main["peak_rss_mb"],
        }
        samples = {"setup_s": [w["setup_s"] for w in workers], "pass_wall_s": main["pass_wall_s"],
                   "job_latency_ms_per_pass": main["job_latency_ms"],
                   "job_wall_ms_per_pass": main["job_wall_ms"],
                   "slowdown_shares": main["slowdown_shares"]}
        wanted = spec["end_to_end"]
    meta["loadavg_after"] = read_loadavg()
    attempted = sum(w["attempted"] for w in workers)
    failures = [f for w in workers for f in w["failures"]]
    missing = [m["name"] for m in wanted if metrics.get(m["name"]) is None]
    if missing:
        raise RuntimeError(f"{workload}: no value for {missing} (too few jobs for the percentile rule?)")
    measured = workers[-1]
    record = {
        "meta": meta,
        "attempted": attempted,
        "failed": len(failures),
        "error_rate": len(failures) / attempted,
        "failures": failures[:50],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
        "samples": samples,
        "jobs_per_pass": measured["jobs_per_pass"],
        "properties": measured["properties"],
        "outputs": measured["outputs"],
    }
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    return record


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "revaudit", "cli.py")):
        print(f"error: no revaudit sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + DEADLINE_S * len(names)
    status = 0
    for workload in names:
        try:
            record = run_workload(spec, workload, args.seed, seconds, args.trace, deadline)
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"error: {workload}: {exc}", file=sys.stderr)
            return 2
        for name, metric in record["metrics"].items():
            print(f"{workload:9s} {name:52s} {metric['value']:>14.6g} {metric['unit']}")
        print(f"{workload:9s} {'error_rate':52s} {record['error_rate']:>14.6g} "
              f"({record['failed']} of {record['attempted']} jobs)")
        for failure in record["failures"][:10]:
            print(f"{workload:9s} FAILED {failure}")
        if record["failed"]:
            status = 1
        print(json.dumps({
            "correct": record["failed"] == 0,
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": record["metrics"],
        }))
    return status


if __name__ == "__main__":
    sys.exit(main())
