"""Run the benchmark on several seeds and report how much each metric spreads.

    python3 perfbench/steadiness.py --workload sweep --seeds 1-10 [--trace 0|1]

Each seed is one `run.py` run with `--seconds` at `run_seconds` of
BENCHMARK.json. For every metric it prints the median over the seeds and the
quartile spread (q3 - q1) / median, with quartiles as
`statistics.quantiles(values, n=4)` gives them, beside the metric's bound.
All values go to perfbench/results/steadiness-<workload>-<seeds>-trace<t>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def summary(values) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else 0.0}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="first-last")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    first, last = map(int, args.seeds.split("-"))
    runs = []
    for seed in range(first, last + 1):
        began = time.monotonic()
        done = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
                               "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                               "--trace", str(args.trace)], cwd=ROOT, capture_output=True, text=True)
        if done.returncode != 0:
            print(done.stdout[-2000:], done.stderr[-2000:], file=sys.stderr)
            return 1
        result = json.loads(done.stdout.splitlines()[-1])
        result.update(seed=seed, elapsed_s=time.monotonic() - began)
        runs.append(result)
        print(f"seed {seed}: {result['elapsed_s']:.1f} s, "
              + ", ".join(f"{k} {v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    out = {"workload": args.workload, "seeds": args.seeds, "trace": args.trace,
           "run_seconds": spec["run_seconds"], "runs": runs, "metrics": {}}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        out["metrics"][name] = {"unit": runs[0]["metrics"][name]["unit"], **summary(values), "values": values}
        s = out["metrics"][name]
        print(f"{name:48s} median {s['median']:12.6g}  spread {s['spread']:.3f}  bound {bounds.get(name)}")
    print(f"elapsed per run: median {statistics.median(r['elapsed_s'] for r in runs):.1f} s, "
          f"max {max(r['elapsed_s'] for r in runs):.1f} s")
    os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
    path = os.path.join(HERE, "results", f"steadiness-{args.workload}-{args.seeds}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
