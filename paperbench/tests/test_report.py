#!/usr/bin/env python3
"""End-to-end checks of paperbench/run.py on shrunken workloads.

    PAPERBENCH_HARNESS=<built paperbench_harness> python3 paperbench/tests/test_report.py

Without PAPERBENCH_HARNESS, run.py builds the harness into .bench_build/.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
RUN = BENCH_DIR / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SMALL = ["--seconds", "0.5", "--scale-factor", "0.1"]

# Per-layer readings that are not deterministic work counts: wall times,
# the pool's wall and scheduling stats, and the tracing overhead.
NOT_COUNTS = {"pool.chunks", "pool.busy_frac", "bench.trace_overhead_frac"}


def run_bench(workload, trace, seed=5):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--trace", str(trace)] + SMALL,
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True, timeout=600)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def harness():
    exe = os.environ.get("PAPERBENCH_HARNESS")
    return Path(exe) if exe else ROOT / ".bench_build" / "paperbench" / "paperbench_harness"


class ReportTest(unittest.TestCase):
    def test_printed_metrics_match_benchmark_json(self):
        for workload in WORKLOADS:
            for trace, section in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    result = run_bench(workload, trace)
                    self.assertEqual(set(result),
                                     {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    declared = {m["name"]: m["unit"] for m in SPEC[section]}
                    printed = {n: m["unit"] for n, m in result["metrics"].items()}
                    self.assertEqual(printed, declared)
                    for name, m in result["metrics"].items():
                        self.assertIsInstance(m["value"], (int, float), name)
                        if trace == 0:
                            self.assertGreater(m["value"], 0, name)

    def test_work_counts_repeat_across_thread_counts(self):
        tmp = ROOT / ".bench_build" / "paperbench" / "tmp"
        tmp.mkdir(parents=True, exist_ok=True)
        units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
        for workload in WORKLOADS:
            counts = []
            for threads in ("1", "2"):
                env = {k: v for k, v in os.environ.items() if not k.startswith("PHOTODTN_")}
                env.update(PHOTODTN_THREADS=threads, PHOTODTN_OBS="1")
                proc = subprocess.run(
                    [str(harness()), "--workload", workload, "--seed", "5",
                     "--mode", "traced", "--reference", "0", "--tmp-dir", str(tmp)] + SMALL,
                    env=env, stdout=subprocess.PIPE, text=True, check=True, timeout=600)
                metrics = json.loads(proc.stdout)["metrics"]
                counts.append({m["name"]: m["value"] for m in metrics
                               if units[m["name"]] != "s" and m["name"] not in NOT_COUNTS})
            with self.subTest(workload=workload):
                self.assertGreater(len(counts[0]), 30)
                self.assertEqual(counts[0], counts[1])

    def test_fails_without_the_program_sources(self):
        (ROOT / ".bench_build").mkdir(exist_ok=True)
        scratch = Path(tempfile.mkdtemp(dir=ROOT / ".bench_build"))
        try:
            shutil.copy(ROOT / "BENCHMARK.json", scratch)
            shutil.copytree(BENCH_DIR, scratch / "paperbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = {k: v for k, v in os.environ.items() if k != "PAPERBENCH_HARNESS"}
            proc = subprocess.run(
                [sys.executable, "paperbench/run.py", "--workload", WORKLOADS[0],
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=scratch, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                text=True, timeout=180)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)
        finally:
            shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
