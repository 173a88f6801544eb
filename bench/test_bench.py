"""Tests of the benchmark itself: deterministic layer counts and working checks.

    python3 -m unittest discover -s bench -p "test_*.py"

Run from the repository root; h2gap is imported from ``src/``.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

COUNT_SUFFIXES = (".calls", "_ratio", ".report_bytes")


def work_dir(name: str) -> Path:
    return BENCH / ".work" / f"test-{name}-{os.getpid()}"


def traced_counts(name: str, seed: int) -> dict:
    """Per-op count metrics of one traced pass over a fresh workload."""
    work = work_dir(name)
    try:
        wl = workloads.make(name, ROOT, seed, work)
        wl.setup()
        runner = run.Runner(wl)
        trace = tracer.Tracer()
        results = run.traced_pass(wl, runner, trace)
        metrics = trace.layer_metrics()
        metrics["cli.report_bytes"] = sum(r[2] for r in results) / wl.block
        assert runner.failed == 0, f"{name}: {runner.failed} failed ops"
        return {k: v for k, v in metrics.items() if k.endswith(COUNT_SUFFIXES)}
    finally:
        workloads.remove_work(work)


class LayerCounts(unittest.TestCase):

    def test_lcoh_calls_per_cumulative_subsidies(self):
        from h2gap import ParamSet, demand_supported_additions, fixtures, subsidies

        central = ParamSet.builtin("central")
        pipe = fixtures.builtin_pipeline()
        supported = demand_supported_additions(central, pipe)
        for horizon, lcoh_calls, years in ((2045, 225, 22), (2100, 405, 77)):
            traj = fixtures.median_extended_pipeline(horizon).with_supported(supported)
            trace = tracer.Tracer().install()
            try:
                subsidies.cumulative_subsidies(traj, central, False, horizon)
            finally:
                trace.uninstall()
            self.assertEqual(trace.stats["costs.lcoh"].calls, lcoh_calls)
            self.assertEqual(trace.stats["subsidies.annual_subsidies"].calls, years)

    def test_counts_repeat_between_traced_runs(self):
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                first = traced_counts(name, 11)
                self.assertEqual(first, traced_counts(name, 11))
                self.assertTrue(any(v > 0 for v in first.values()))

    def test_uninstall_restores_every_function(self):
        from h2gap import costs, subsidies

        before = (costs.lcoh, subsidies.lcoh, costs.TimeAnchoredSeries.at,
                  costs.ParamSet.__dict__["from_json"])
        tracer.Tracer().install().uninstall()
        after = (costs.lcoh, subsidies.lcoh, costs.TimeAnchoredSeries.at,
                 costs.ParamSet.__dict__["from_json"])
        self.assertEqual(before, after)


class ImportTime(unittest.TestCase):

    def test_nested_modules_are_not_double_counted(self):
        listing = "\n".join([
            "import time: self [us] | cumulative | imported package",
            "import time:       100 |        100 |       csv",
            "import time:      5000 |       5000 |       numpy",
            "import time:      2000 |       7100 |     h2gap.costs",
            "import time:       300 |        300 |     h2gap.units",
            "import time:       400 |       7800 |   h2gap",
            "import time:       500 |        500 |   h2gap.fixtures",
            "import time:      1000 |       9300 | h2gap.cli",
        ])
        got = tracer.parse_importtime(listing)
        self.assertEqual(got["import.numpy_ms"], 5.0)
        self.assertEqual(got["import.h2gap.costs_ms"], 2.1)   # own + csv
        self.assertEqual(got["import.h2gap.cli_ms"], 1.0)
        self.assertAlmostEqual(got["import.h2gap_ms"], 4.3)   # all h2gap, no numpy


class Checks(unittest.TestCase):
    """A wrong output must fail the workload's check."""

    def test_sweep_check_rejects_a_shifted_schedule(self):
        from dataclasses import replace

        work = work_dir("sweep-check")
        try:
            wl = workloads.make("subsidy_sweep", ROOT, 5, work)
            wl.setup()
            self.assertTrue(wl.anchors_ok)
            cell = replace(wl.prepare(0), brute_force=True, horizon=2100)
            out = wl.op(cell)
            self.assertTrue(wl.check(0, cell, out)[0])
            schedule = out[5]
            bad = replace(schedule, annual_busd=tuple(a * (1 + 1e-6)
                                                      for a in schedule.annual_busd))
            self.assertFalse(wl.check(0, cell, out[:5] + (bad,) + out[6:])[0])
        finally:
            workloads.remove_work(work)

    def test_track_check_rejects_an_edited_report(self):
        work = work_dir("track-check")
        try:
            wl = workloads.make("track_large", ROOT, 5, work)
            wl.setup()
            x = wl.prepare(0)
            out = wl.op(x)
            self.assertTrue(wl.check(0, x, out)[0])
            flows = x[2][3]
            text = flows.read_text().splitlines()
            # a flow into a status node of the middle vintage
            k = next(k for k, line in enumerate(text)
                     if line.split(",")[2] == "1" and line.split(",")[3][0].isupper())
            text[k] = text[k].rsplit(",", 1)[0] + ",999.0"
            flows.write_text("\n".join(text) + "\n")
            self.assertFalse(wl.check(0, x, out)[0])
        finally:
            workloads.remove_work(work)


class CommandLine(unittest.TestCase):

    def test_fails_without_sources(self):
        empty = work_dir("empty")
        try:
            shutil.copytree(BENCH, empty / "bench",
                            ignore=shutil.ignore_patterns(".work", "__pycache__"))
            shutil.copy(ROOT / "BENCHMARK.json", empty)
            proc = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", "subsidy_sweep",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=empty, capture_output=True, text=True, timeout=180)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout, "")
        finally:
            shutil.rmtree(empty, ignore_errors=True)

    def test_result_line(self):
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "subsidy_sweep",
             "--seed", "2", "--seconds", "1", "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=180)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = json.loads(proc.stdout.splitlines()[-1])
        self.assertEqual(sorted(result), ["attempted", "correct", "failed", "metrics"])
        self.assertTrue(result["correct"])
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()},
                         {m["name"]: m["unit"] for m in spec["end_to_end"]})


if __name__ == "__main__":
    unittest.main()
