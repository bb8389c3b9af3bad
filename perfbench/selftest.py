"""Smoke test of the benchmark itself: tiny inputs, one pass per workload.

Run from the repository root:

    python3 -m unittest perfbench/selftest.py

It checks that every run prints a well-formed result whose metrics are
exactly the ones BENCHMARK.json declares, each with its declared unit; that
the traced run's layer self times plus the untraced remainder add up to the
traced wall time; and that the benchmark refuses to run without sources.
"""

from __future__ import annotations

import contextlib
import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from tracing import LAYERS  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("euclid", "grid", "reductions")

# every per-layer metric the benchmark's design names, beyond the
# <layer>.self_s / .calls / .errors triple each layer gets
NAMED_LAYER_METRICS = (
    "geometry.visibility_s", "geometry.segment_tests", "geometry.visible_ratio",
    "geometry.fine_grid_s", "geometry.grid_bfs_s",
    "crystal_bonds.metric_builds_per_walk", "crystal_bonds.postman_s",
    "crystal_bonds.odd_crystals", "crystal_bonds.brute_force_s",
    "graphs.ham_s", "graphs.directed_dp_s", "graphs.enumerated",
    "tile_trial.solve_s", "tile_trial.gave_up",
    "hands_of_time.solve_s", "hands_of_time.audit_s", "hands_of_time.gave_up",
    "instance_io.self_s", "instance_io.bytes_in", "instance_io.bytes_out",
    "cli.self_s",
)


def run_bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


class SmokeTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        cls.runs = {}
        for workload in WORKLOADS:
            for trace in (0, 1):
                proc = run_bench(workload, trace)
                lines = proc.stdout.strip().splitlines()
                cls.runs[workload, trace] = (proc, lines)

    def result(self, workload, trace):
        proc, lines = self.runs[workload, trace]
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        result = json.loads(lines[-1])
        record = json.loads(lines[-2].removeprefix("record "))
        return result, record

    def test_result_shape_and_correctness(self):
        for key in self.runs:
            result, record = self.result(*key)
            self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(result["correct"], record["problems"])
            self.assertGreaterEqual(result["attempted"], 1)
            self.assertIsInstance(result["failed"], int)

    def test_metrics_match_benchmark_json(self):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            declared = {m["name"]: m["unit"] for m in self.spec[section]}
            for workload in WORKLOADS:
                metrics = self.result(workload, trace)[0]["metrics"]
                emitted = {name: m["unit"] for name, m in metrics.items()}
                self.assertEqual(emitted, declared, f"{workload} trace {trace}")
                for name, m in metrics.items():
                    self.assertIsInstance(m["value"], (int, float), name)

    def test_named_metrics_declared(self):
        end_to_end = {m["name"] for m in self.spec["end_to_end"]}
        self.assertEqual(
            end_to_end,
            {"items_per_s", "op_p50_ms", "op_tail_ms", "setup_s", "peak_rss_mb", "ok_ratio"},
        )
        per_layer = {m["name"] for m in self.spec["per_layer"]}
        for layer in LAYERS:
            for suffix in ("self_s", "calls", "errors"):
                self.assertIn(f"{layer}.{suffix}", per_layer)
        for name in NAMED_LAYER_METRICS:
            self.assertIn(name, per_layer)

    def test_self_times_add_up_to_traced_wall_time(self):
        for workload in WORKLOADS:
            result, record = self.result(workload, 1)
            metrics = {k: v["value"] for k, v in result["metrics"].items()}
            selves = [metrics[f"{layer}.self_s"] for layer in LAYERS]
            self.assertTrue(all(s >= 0 for s in selves), selves)
            total = sum(selves) + metrics["trace.remainder_s"]
            self.assertAlmostEqual(total, metrics["trace.wall_s"], delta=1e-6 * metrics["trace.wall_s"] + 1e-9)
            self.assertLess(metrics["trace.remainder_s"], 0.5 * metrics["trace.wall_s"])

    def test_known_defects_stay_visible(self):
        result, record = self.result("reductions", 0)
        self.assertGreater(result["failed"], 0)
        self.assertLess(result["metrics"]["ok_ratio"]["value"], 1.0)
        self.assertIn("solve: exception RecursionError", record["fail_reasons"])
        layer = self.result("reductions", 1)[0]["metrics"]
        self.assertGreater(layer["tile_trial.gave_up"]["value"], 0)

    def test_walks_build_the_metric_twice(self):
        for workload in ("euclid", "grid"):
            layer = self.result(workload, 1)[0]["metrics"]
            self.assertEqual(layer["crystal_bonds.metric_builds_per_walk"]["value"], 2.0)

    def test_refuses_to_run_without_sources(self):
        bare = BENCH_DIR / "work" / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        try:
            (bare / "perfbench").mkdir(parents=True)
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            for path in BENCH_DIR.iterdir():
                if path.is_file():
                    shutil.copy(path, bare / "perfbench")
            proc = run_bench("euclid", 0, cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"metrics"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
            with contextlib.suppress(OSError):  # a benchmark run may be using it
                bare.parent.rmdir()


if __name__ == "__main__":
    unittest.main()
