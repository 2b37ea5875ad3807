"""Job execution for one workload run, inside a fresh interpreter.

Each job is one `revaudit.cli.main(argv)` call with stdout and stderr
captured. The load is a closed loop: one caller, no threads, and each job
starts only after the previous one returns. Outputs are checked after each
pass, outside the timed region.

Jobs are timed on a clock passed in: the measuring workers use
`speed.SpeedClock`, which reads time at a fixed reference speed of the core,
and the raw wall time of each job is kept beside it.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass

from revaudit import cli

import checks
import speed
import stats
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
WORK_ROOT = os.path.join(HERE, "_work")
REFERENCE_PATH = os.path.join(HERE, "reference_digests.json")
WALL = speed.WallClock()


@dataclass(frozen=True)
class JobResult:
    latency_ns: float
    wall_ns: int
    exit_code: int | None
    stdout: str
    stderr: str
    exception: str | None


def run_job(argv, clock=WALL) -> JobResult:
    """Run one job; `latency_ns` is read on `clock`, `wall_ns` on the wall clock."""
    out, err = io.StringIO(), io.StringIO()
    exception = None
    clock.sample()
    start, wall_start = clock.now(), time.perf_counter_ns()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
    except Exception as exc:  # an escaping exception is a failed job, not a crash
        code, exception = None, f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter_ns() - wall_start
    latency = clock.now() - start
    return JobResult(latency, wall, code, out.getvalue(), err.getvalue(), exception)


def job_argvs(plan, work_dir: str) -> list[list[str]]:
    return [[os.path.join(work_dir, a) if a in plan.files else a for a in job.argv] for job in plan.jobs]


def write_plan(plan, work_dir: str) -> None:
    for name, data in plan.files.items():
        with open(os.path.join(work_dir, name), "wb") as fh:
            fh.write(data)


def load_reference(plan):
    """Reference (exit code, stdout digest) per job, or None for a seed
    without references."""
    try:
        with open(REFERENCE_PATH, encoding="utf-8") as fh:
            ref = json.load(fh)
    except FileNotFoundError:
        return None
    if ref["seed"] != plan.seed or plan.workload not in ref["workloads"]:
        return None
    entries = [tuple(entry) for entry in ref["workloads"][plan.workload]]
    if len(entries) != len(plan.jobs):
        raise ValueError(f"{REFERENCE_PATH} lists {len(entries)} jobs for {plan.workload}, "
                         f"the workload has {len(plan.jobs)}; regenerate it")
    return entries


def failures(jobs, results, reference=None) -> list[str]:
    """One message per failed job, naming the job by its index."""
    out = []
    for index, (job, r) in enumerate(zip(jobs, results)):
        if r.exception is not None:
            why = f"exception escaped: {r.exception}"
        else:
            why = checks.check(job, r.exit_code, r.stdout)
        if why is None and reference is not None:
            if (r.exit_code, checks.digest(r.stdout)) != reference[index]:
                why = "stdout digest differs from the reference"
        if why is not None:
            stderr = r.stderr.strip()[-300:]
            out.append(f"job {index} ({' '.join(job.argv)}): {why}" + (f" [stderr: {stderr}]" if stderr else ""))
    return out


@dataclass
class Pass:
    wall_ns: int
    results: list[JobResult]


def run_pass(argvs, clock=WALL, tracer=None) -> Pass:
    """One pass over the job list, timed on `clock`. A tracer is installed
    for the pass and told each job's index, so that its spans carry the job
    id."""
    if tracer is not None:
        tracer.install()
    try:
        start = time.perf_counter_ns()
        results = []
        for job_id, argv in enumerate(argvs):
            if tracer is not None:
                tracer.job_id = job_id
            results.append(run_job(argv, clock))
        return Pass(time.perf_counter_ns() - start, results)
    finally:
        if tracer is not None:
            tracer.restore()


def measured_properties(plan, results) -> dict:
    """Input properties only the program's answers reveal."""
    if plan.workload != "search":
        return {}
    sources = [json.loads(r.stdout)["profile_source"] for r in results if r.exit_code in (0, 2)]
    return {"profile_source_share": workloads.shares(sources)} if sources else {}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_worker(mode: str, workload: str, seed: int, seconds: float, clock, started: float,
               min_passes: int = 1, per_layer=(), spans_path: str | None = None) -> dict:
    """Set up (generate, write, one warm-up job), then run the mode.

    `clock` is the running SpeedClock and `started` its reading taken before
    revaudit was imported, so `setup_s` covers the import, input generation
    and the warm-up job.

    - probe: set up only.
    - measure: passes over the job list until `seconds` have elapsed, at
      least `min_passes`.
    - traced: untraced and traced passes in turn, until `seconds` have
      elapsed and at least `min_passes` of each have run. `trace_overhead`
      is the ratio of the summed per-job median latencies, traced over
      untraced.
    """
    os.makedirs(WORK_ROOT, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK_ROOT)
    try:
        plan = workloads.generate(workload, seed)
        write_plan(plan, work_dir)
        argvs = job_argvs(plan, work_dir)
        warm = run_job(argvs[0], clock)
        setup_s = (clock.now() - started) / 1e9
        failed = failures(plan.jobs[:1], [warm])
        result = {"setup_s": setup_s, "attempted": 1, "failures": failed}
        if mode == "probe":
            return result
        reference = load_reference(plan)
        walls, latencies, job_walls, first = [], [], [], None
        traced_walls, traced_latencies, layer_runs = [], [], []
        begin = time.perf_counter()
        while len(walls) < min_passes or time.perf_counter() - begin < seconds:
            passes = [None] if mode == "measure" else [None, tracing.Tracer(clock.now)]
            for tracer in passes:
                done = run_pass(argvs, clock, tracer)
                failed += failures(plan.jobs, done.results, reference)
                latency = [r.latency_ns / 1e6 for r in done.results]
                if tracer is None:
                    walls.append(done.wall_ns / 1e9)
                    latencies.append(latency)
                    job_walls.append([r.wall_ns / 1e6 for r in done.results])
                else:
                    traced_walls.append(done.wall_ns / 1e9)
                    traced_latencies.append(latency)
                    layer_runs.append(tracing.layer_metrics(tracer.spans, tracer.counts, per_layer))
                    if spans_path is not None and len(traced_walls) == 1:
                        tracer.write_spans(spans_path)
                # Later passes repeat the first; keeping only its outputs keeps
                # the harness's own memory out of peak_rss_mb. Without stored
                # references, later passes must reproduce the first byte for byte.
                if first is None:
                    first = done.results
                    reference = reference or [(r.exit_code, checks.digest(r.stdout)) for r in first]
        result.update(
            attempted=1 + len(plan.jobs) * (len(walls) + len(traced_walls)),
            failures=failed,
            pass_wall_s=walls,
            job_latency_ms=latencies,
            job_wall_ms=job_walls,
            jobs_per_pass=len(plan.jobs),
            peak_rss_mb=peak_rss_mb(),
            properties={**plan.properties, **measured_properties(plan, first)},
            outputs=[[r.exit_code, checks.digest(r.stdout)] for r in first],
        )
        if mode == "traced":
            result.update(
                per_layer=combine_layer_runs(layer_runs),
                trace_overhead=median_wall_s(traced_latencies) / median_wall_s(latencies),
                traced_pass_wall_s=traced_walls,
                traced_job_latency_ms=traced_latencies,
            )
        return result
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def combine_layer_runs(runs) -> dict:
    """Per-layer metrics over several traced passes: each time at its median,
    and each count, which must not differ between passes, as it is."""
    out = {}
    for name in runs[0]:
        values = [run[name] for run in runs]
        if name.endswith(("_s", ".us_per_profile")):
            out[name] = statistics.median(values)
        elif len(set(values)) == 1:
            out[name] = values[0]
        else:
            raise RuntimeError(f"{name} differs between traced passes: {values}")
    return out


def median_wall_s(latencies_ms) -> float:
    """The job list's time with each job at its median latency over the passes."""
    return sum(stats.job_medians(latencies_ms)) / 1e3
