"""Tests of the benchmark itself (not of revaudit).

    python3 perfbench/tests/test_perfbench.py
"""

import os
import shutil
import signal
import sys
import tempfile
import unittest
from fractions import Fraction
from unittest import mock

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(os.path.dirname(BENCH), "src"), BENCH]

import revaudit  # noqa: E402
from revaudit import cli, labor  # noqa: E402

import harness  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


class CommandLineTest(unittest.TestCase):
    def test_accepts_the_benchmark_calling_convention(self):
        args = run.parse_args(["--workload", "sweep", "--seed", "4", "--seconds", "15", "--trace", "1"])
        self.assertEqual((args.workload, args.seed, args.seconds, args.trace), ("sweep", 4, 15.0, 1))

    def test_seconds_defaults_to_run_seconds(self):
        self.assertIsNone(run.parse_args([]).seconds)


class GeneratorTest(unittest.TestCase):
    def test_same_seed_gives_identical_inputs(self):
        for name in workloads.WORKLOADS:
            a, b = workloads.generate(name, 7), workloads.generate(name, 7)
            self.assertEqual(a.files, b.files, name)
            self.assertEqual(a.jobs, b.jobs, name)
            self.assertEqual(a.properties, b.properties, name)

    def test_different_seeds_give_different_inputs_of_the_same_shape(self):
        for name in workloads.WORKLOADS:
            a, b = workloads.generate(name, 7), workloads.generate(name, 8)
            self.assertNotEqual(a.files, b.files, name)
            self.assertEqual(len(a.jobs), len(b.jobs), name)
            self.assertGreaterEqual(len(a.jobs), 100, name)

    def test_sweep_invalid_cells_are_exactly_the_non_positive_wages(self):
        plan = workloads.generate("sweep", 3)
        cells = [c for job in plan.jobs for c in job.expect["cells"]]
        self.assertTrue(any(not c["valid"] for c in cells))
        for c in cells:
            self.assertEqual(c["valid"], Fraction(c["w"]) > 0)


class SpeedClockTest(unittest.TestCase):
    def _fake_time(self, slowdown):
        """A fake wall clock, and a kernel that takes `slowdown` x REF_NS on it."""
        now = [0]

        def kernel():
            now[0] += slowdown * speed.REF_NS

        return now, mock.patch.multiple(speed, kernel=kernel), mock.patch.object(
            speed.time, "perf_counter_ns", lambda: now[0])

    def test_reads_wall_time_scaled_to_reference_speed_without_the_kernel(self):
        for slowdown in (1, 2):
            now, patch_kernel, patch_time = self._fake_time(slowdown)
            with patch_kernel, patch_time:
                clock = speed.SpeedClock()
                for _ in range(3):
                    clock.sample()
                start = clock.now()
                now[0] += 10_000_000
                clock.sample()
                now[0] += 10_000_000
                self.assertEqual(clock.now() - start, 20_000_000 / slowdown)
                self.assertEqual(clock.slowdown_shares(), {f"{slowdown:.1f}": 1.0})

    def test_median_of_three_ignores_one_slow_sample(self):
        now, patch_kernel, patch_time = self._fake_time(1)
        with patch_kernel, patch_time:
            clock = speed.SpeedClock()
            for _ in range(2):
                clock.sample()
            with mock.patch.object(speed, "kernel", lambda: now.__setitem__(0, now[0] + 5 * speed.REF_NS)):
                clock.sample()
            start = clock.now()
            now[0] += 1_000_000
            self.assertEqual(clock.now() - start, 1_000_000)

    def test_stop_disarms_the_timer_and_restores_the_handler(self):
        previous = signal.getsignal(signal.SIGALRM)
        clock = speed.SpeedClock()
        clock.start()
        try:
            self.assertEqual(signal.getsignal(signal.SIGALRM), clock.sample)
            first = clock.now()
            harness.run_job(["reproduce-paper"], clock)
            self.assertGreater(clock.now(), first)
            self.assertGreater(sum(clock.slowdown.values()), 3)
        finally:
            clock.stop()
        self.assertEqual(signal.getitimer(signal.ITIMER_REAL), (0.0, 0.0))
        self.assertIs(signal.getsignal(signal.SIGALRM), previous)


class PercentileTest(unittest.TestCase):
    def test_p90_needs_ten_samples_beyond_it(self):
        self.assertEqual(stats.percentile(range(1, 101), 90), 90)
        self.assertIsNone(stats.percentile(range(1, 100), 90))
        self.assertEqual(stats.percentile(range(1, 111), 90), 99)

    def test_p50_is_nearest_rank(self):
        self.assertEqual(stats.percentile(range(100, 0, -1), 50), 50)
        self.assertEqual(stats.percentile(range(1, 102), 50), 51)


class SelfTimeTest(unittest.TestCase):
    def test_self_time_subtracts_direct_children(self):
        #  0 root [0, 100)
        #  1   a  [10, 40)
        #  2     c [15, 25)
        #  3   b  [50, 90)
        spans = [
            [0, -1, 0, "cli.main", 0, 100, False],
            [1, 0, 0, "labor.build_scenario", 10, 40, False],
            [2, 1, 0, "core.TypeSpace", 15, 25, False],
            [3, 0, 0, "serialize.json_dumps", 50, 90, True],
        ]
        self.assertEqual(tracing.self_times_ns(spans), [30, 20, 10, 40])
        m = tracing.layer_metrics(spans, {}, [
            "cli.self_s", "labor.build_scenario.total_s", "labor.build_scenario.self_s",
            "core.TypeSpace.init_s", "core.TypeSpace.calls", "serialize.render.self_s",
            "serialize.errors", "cli.errors", "auditor.audit_proof_chain.calls",
            "equilibrium.find_all_pure_bne.us_per_profile",
        ])
        self.assertEqual(m, {
            "cli.self_s": 30e-9, "labor.build_scenario.total_s": 30e-9,
            "labor.build_scenario.self_s": 20e-9, "core.TypeSpace.init_s": 10e-9,
            "core.TypeSpace.calls": 1, "serialize.render.self_s": 40e-9,
            "serialize.errors": 1, "cli.errors": 0, "auditor.audit_proof_chain.calls": 0,
            "equilibrium.find_all_pure_bne.us_per_profile": 0.0,
        })

    def test_unknown_metric_is_an_error(self):
        with self.assertRaises(KeyError):
            tracing.layer_metrics([], {}, ["cli.selftime"])

    def test_traced_passes_combine_to_median_times_and_equal_counts(self):
        runs = [{"cli.self_s": 3.0, "equilibrium.find_all_pure_bne.us_per_profile": 9.0, "cli.errors": 2},
                {"cli.self_s": 2.0, "equilibrium.find_all_pure_bne.us_per_profile": 11.0, "cli.errors": 2},
                {"cli.self_s": 7.0, "equilibrium.find_all_pure_bne.us_per_profile": 10.0, "cli.errors": 2}]
        self.assertEqual(harness.combine_layer_runs(runs), {
            "cli.self_s": 3.0, "equilibrium.find_all_pure_bne.us_per_profile": 10.0, "cli.errors": 2})
        runs[1]["cli.errors"] = 3
        with self.assertRaises(RuntimeError):
            harness.combine_layer_runs(runs)


def _bindings():
    """Every attribute of every revaudit module and class, by identity."""
    out = {}
    modules = [revaudit] + [getattr(revaudit, m) for m in tracing.MODULES]
    for mod in modules:
        for attr, obj in vars(mod).items():
            out[(mod.__name__, attr)] = obj
            if isinstance(obj, type):
                for cattr, cobj in vars(obj).items():
                    out[(mod.__name__, attr, cattr)] = cobj
    return out


class TracerTest(unittest.TestCase):
    def test_install_wraps_every_binding_and_restore_puts_them_back(self):
        before = _bindings()
        original = labor.find_all_pure_bne
        tracer = tracing.Tracer()
        tracer.install()
        try:
            self.assertIsNot(labor.find_all_pure_bne, original)
            self.assertIs(labor.find_all_pure_bne, revaudit.equilibrium.find_all_pure_bne)
            self.assertIs(labor.find_all_pure_bne, revaudit.find_all_pure_bne)
            params = labor.LaborParams(theta_L=1, theta_H=2, e_H=1, w="3/2")
            labor.check_truthful_reporting(params)
            with self.assertRaises(revaudit.GameModelError):
                labor.LaborParams(theta_L=1, theta_H=2, e_H=1, w=0)
        finally:
            tracer.restore()
        after = _bindings()
        self.assertEqual(before.keys(), after.keys())
        changed = [k for k in before if before[k] is not after[k]]
        self.assertEqual(changed, [])

        names = {s[tracing.NAME]: s for s in tracer.spans}
        search = names["equilibrium.find_all_pure_bne"]
        parent = tracer.spans[search[tracing.PARENT]]
        self.assertEqual(parent[tracing.NAME], "labor.check_truthful_reporting")
        m = tracing.layer_metrics(tracer.spans, tracer.counts, [
            "equilibrium.profiles_enumerated", "labor.errors", "core.TypeSpace.conditional_weight.calls",
            "labor.build_scenario.calls",
        ])
        self.assertEqual(m["equilibrium.profiles_enumerated"], 16)
        self.assertEqual(m["labor.errors"], 1)
        self.assertEqual(m["labor.build_scenario.calls"], 1)
        self.assertGreater(m["core.TypeSpace.conditional_weight.calls"], 0)


class SmokeTest(unittest.TestCase):
    """A tiny run of each workload: its three smallest config jobs."""

    def setUp(self):
        os.makedirs(harness.WORK_ROOT, exist_ok=True)
        self.work_dir = tempfile.mkdtemp(dir=harness.WORK_ROOT)

    def tearDown(self):
        shutil.rmtree(self.work_dir, ignore_errors=True)

    def _tiny(self, name):
        plan = workloads.generate(name, 5)
        harness.write_plan(plan, self.work_dir)
        argvs = harness.job_argvs(plan, self.work_dir)
        picked = sorted(range(len(plan.jobs)), key=lambda k: len(plan.files.get(plan.jobs[k].argv[-1], b"")))
        picked = [k for k in picked if plan.jobs[k].argv[-1] in plan.files][:3]
        return [plan.jobs[k] for k in picked], [argvs[k] for k in picked]

    def test_clean_run_passes_every_check(self):
        for name in workloads.WORKLOADS:
            jobs, argvs = self._tiny(name)
            done = harness.run_pass(argvs)
            self.assertEqual(harness.failures(jobs, done.results), [], name)

    def test_corrupted_output_counts_as_a_failure(self):
        real_main = cli.main
        calls = []

        def corrupting_main(argv):
            code = real_main(argv)
            calls.append(argv)
            if len(calls) == 2:
                out = sys.stdout.getvalue()
                sys.stdout.seek(0)
                sys.stdout.truncate()
                sys.stdout.write(out[: len(out) // 2])
            return code

        for name in workloads.WORKLOADS:
            calls.clear()
            jobs, argvs = self._tiny(name)
            with mock.patch.object(cli, "main", corrupting_main):
                done = harness.run_pass(argvs)
            failed = harness.failures(jobs, done.results)
            self.assertEqual(len(failed), 1, (name, failed))
            self.assertTrue(failed[0].startswith("job 1 "), failed)

    def test_traced_pass_tags_spans_with_the_job_and_restores_bindings(self):
        jobs, argvs = self._tiny("sweep")
        before = _bindings()
        tracer = tracing.Tracer()
        done = harness.run_pass(argvs, tracer=tracer)
        self.assertEqual(harness.failures(jobs, done.results), [])
        self.assertEqual(sorted({s[tracing.JOB] for s in tracer.spans}), [0, 1, 2])
        after = _bindings()
        self.assertEqual([k for k in before if before[k] is not after[k]], [])

    def test_escaping_exception_and_digest_mismatch_are_failures(self):
        jobs, argvs = self._tiny("search")
        with mock.patch.object(cli, "main", side_effect=RuntimeError("boom")):
            done = harness.run_pass(argvs[:1])
        self.assertIn("exception escaped", harness.failures(jobs[:1], done.results)[0])
        done = harness.run_pass(argvs[:1])
        self.assertEqual(len(harness.failures(jobs[:1], done.results, [(0, "0" * 64)])), 1)


if __name__ == "__main__":
    unittest.main()
