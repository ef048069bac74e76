#!/usr/bin/env python3
"""Self-tests of the HARMLESS benchmark.

    python3 perfbench/test_bench.py            # all tests, ~3 minutes
    python3 perfbench/test_bench.py -k fault   # one group

For each workload a shortened run must pass every output check and
print the metrics BENCHMARK.json names; the same seed must reproduce
every count and sim_* value (fingerprint), also between the untraced
and the traced run; a second seed must pass too; and a run whose
FaultPlan downs one access link mid-run must report failed > 0 and exit
non-zero. Finally, a directory holding only BENCHMARK.json and the
benchmark's own files must fail without printing a result.
"""
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SHORT_SECONDS = "0.5"


def run(workload, seed, trace=0, extra=(), cwd=ROOT, env=None):
    """Run the benchmark command; returns (exit code, run record, result)."""
    cmd = [*SPEC["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", SHORT_SECONDS, "--trace", str(trace), *extra]
    proc = subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True, timeout=600, check=False)
    lines = proc.stdout.strip().splitlines()
    record = result = None
    for line in lines:
        if line.startswith("run_record: "):
            record = json.loads(line[len("run_record: "):])
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines[-1])
    return proc.returncode, record, result


class WorkloadTests(unittest.TestCase):
    def check_clean(self, workload, seed, trace=0):
        code, record, result = run(workload, seed, trace)
        self.assertEqual(code, 0, f"{workload} seed {seed} trace {trace} exited {code}")
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        names = [m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]]
        self.assertEqual(sorted(result["metrics"]), sorted(names))
        units = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
        for name, metric in result["metrics"].items():
            self.assertEqual(metric["unit"], units[name], name)
        for key in ("seed", "workload", "source", "cpu", "nproc", "compiler", "build_type", "fingerprint"):
            self.assertIn(key, record)
        self.assertEqual(record["seed"], seed)
        self.assertEqual(record["workload"], workload)
        return record, result

    def test_clean_runs_are_deterministic(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                first, result = self.check_clean(workload, 7)
                for name in ("host_mpps", "setup_s", "peak_rss_mb", "sim_capacity_mpps",
                             "sim_latency_p50_us", "sim_latency_p99_us", "completed_ratio"):
                    self.assertGreater(result["metrics"][name]["value"], 0, name)
                again, _ = self.check_clean(workload, 7)
                self.assertEqual(first["fingerprint"], again["fingerprint"], "same seed, other counts")
                traced, _ = self.check_clean(workload, 7, trace=1)
                self.assertEqual(first["fingerprint"], traced["fingerprint"], "traced run moved a count")
                other, _ = self.check_clean(workload, 8)
                self.assertNotEqual(first["fingerprint"], other["fingerprint"], "seed had no effect")

    def test_fault_makes_the_run_fail(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, record, result = run(workload, 7, extra=("--fault-link-down",))
                self.assertNotEqual(code, 0)
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"], 0)
                self.assertGreater(record["failed_ratio"], 0)


class StandaloneTest(unittest.TestCase):
    def test_fails_without_the_simulator(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            for path in SPEC["paths"]:
                shutil.copytree(ROOT / path, Path(tmp) / path,
                                ignore=shutil.ignore_patterns("__pycache__"))
            env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
            code, _, result = run(WORKLOADS[0], 1, cwd=tmp, env=env)
            self.assertNotEqual(code, 0)
            self.assertIsNone(result)


if __name__ == "__main__":
    unittest.main(argv=[sys.argv[0], *sys.argv[1:]], verbosity=2)
