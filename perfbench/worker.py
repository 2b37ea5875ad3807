"""One workload process: `python3 perfbench/worker.py MODE WORKLOAD SEED SECONDS MIN_PASSES [SPANS_PATH]`.

Started by run.py in a fresh interpreter, so that import cost, warm caches
and peak memory belong to this workload alone. Prints one JSON result line.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def main(argv) -> int:
    # The speed clock runs from before anything of revaudit's is imported to
    # the end, and the setup clock starts at its first reading. The clock's
    # own imports (fractions, statistics, signal) thus fall outside set-up.
    import speed

    clock = speed.SpeedClock()
    clock.start()
    try:
        started = clock.now()
        sys.path.insert(0, SRC)
        import revaudit.cli  # noqa: F401  (imported inside the setup clock)

        if not os.path.abspath(revaudit.cli.__file__).startswith(SRC + os.sep):
            print(f"revaudit was imported from {revaudit.cli.__file__}, not {SRC}", file=sys.stderr)
            return 2
        import json

        import harness

        mode, workload, seed, seconds, min_passes = argv[0], argv[1], int(argv[2]), float(argv[3]), int(argv[4])
        spans_path = argv[5] if len(argv) > 5 else None
        per_layer = ()
        if mode == "traced":
            with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
                per_layer = [m["name"] for m in json.load(fh)["per_layer"] if m["name"] != "trace.overhead"]
        result = harness.run_worker(mode, workload, seed, seconds, clock, started, min_passes, per_layer, spans_path)
    finally:
        clock.stop()
    result["slowdown_shares"] = clock.slowdown_shares()
    print(json.dumps(result))
    return 0

if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
