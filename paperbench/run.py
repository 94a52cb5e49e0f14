#!/usr/bin/env python3
"""Paper-scale benchmark of photodtn, one workload per invocation.

    python3 paperbench/run.py --workload ours-paper --seed 1 --seconds 20 --trace 0

Run it from the root of a photodtn checkout. It builds paperbench/ (and the
photodtn libraries it links) into .bench_build/paperbench, runs the C++
harness with a pinned environment, checks the outputs, and prints one JSON
object as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1 runs
the e2e harness and then a traced one (scheme proxy and metrics registry on,
PHOTODTN_OBS=1) and reports the per-layer metrics. The line before the
result is a report with the build, the seeds and every run's output digest.
See paperbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "paperbench"
WORKLOADS = ("ours-paper", "baselines", "faulted-ckpt")
PINNED_THREADS = 2  # 2 of 4 cores leaves headroom on a shared box
DEFAULT_SEED = 1
HELD_OUT_SEED = 7  # later gain claims must also hold on this seed
HARNESS_BUDGET_S = 170.0  # all harness processes of one invocation


def fail(message, code=2):
    print(f"paperbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    """Returns the harness binary, building it from the checkout if needed."""
    prebuilt = os.environ.get("PAPERBENCH_HARNESS")
    if prebuilt:
        return Path(prebuilt)
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no photodtn sources in {ROOT}")
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target",
                  "paperbench_harness", "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return BUILD_DIR / "paperbench_harness"


def child_env(traced):
    """The inherited environment minus every PHOTODTN_* switch, plus the pins."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PHOTODTN_")}
    env["PHOTODTN_THREADS"] = str(PINNED_THREADS)
    if traced:
        env["PHOTODTN_OBS"] = "1"  # registry metrics and pool wall stats
    return env


def run_harness(exe, args, tmp_dir, mode, reference, deadline):
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--mode", mode,
           "--reference", str(int(reference)), "--tmp-dir", tmp_dir,
           "--scale-factor", str(args.scale_factor)]
    try:
        proc = subprocess.run(cmd, env=child_env(mode == "traced"), stdout=subprocess.PIPE,
                              text=True, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail(f"harness exceeded the {HARNESS_BUDGET_S:.0f} s budget", 4)
    if proc.returncode != 0:
        fail(f"harness exited with {proc.returncode}", 4)
    return json.loads(proc.stdout.strip().splitlines()[-1]) if mode != "prepare" else None


def outputs(report):
    return [(r["scheme"], r["point"], r["aspect"], r["delivered"],
             r["delivered_digest"], r["digest"]) for r in report["runs"]]


def source_digest():
    """sha256 of the sources the harness is built from."""
    h = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt", ROOT / "tools" / "cli_config.cpp",
             ROOT / "tools" / "cli_config.h"]
    for tree in (ROOT / "src", BENCH_DIR):
        files += [p for p in tree.rglob("*")
                  if p.is_file() and "__pycache__" not in p.parts]
    for path in sorted(files):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_sha():
    if not (ROOT / ".git").exists():
        return None  # an exported checkout; source_sha256 identifies it
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Shrinks every workload; the benchmark's own tests use it.
    p.add_argument("--scale-factor", type=float, default=1.0, help=argparse.SUPPRESS)
    args = p.parse_args()
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def main():
    args = parse_args()
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail(f"{spec_path} is missing")
    spec = json.loads(spec_path.read_text())
    exe = build()

    deadline = time.monotonic() + HARNESS_BUDGET_S
    tmp_root = BUILD_DIR / "tmp"
    tmp_root.mkdir(parents=True, exist_ok=True)
    tmp_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=tmp_root)
    try:
        # The trace files are written by a process of their own, so that
        # generating them does not count in the measured peak RSS.
        run_harness(exe, args, tmp_dir, "prepare", False, deadline)
        # The run_single reference doubles a run's cost, so it rides only
        # with --trace 1 (see README.md, "Output checks").
        e2e = run_harness(exe, args, tmp_dir, "e2e", args.trace == 1, deadline)
        reports = [e2e]
        if args.trace:
            traced = run_harness(exe, args, tmp_dir, "traced", False, deadline)
            reports.append(traced)
    finally:
        shutil.rmtree(tmp_dir, ignore_errors=True)

    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    failures = [f for r in reports for f in r["failures"]]
    metrics = {m["name"]: {"value": m["value"], "unit": m["unit"]}
               for m in reports[-1]["metrics"]}
    if args.trace:
        attempted += 1  # the traced run must reproduce the e2e run
        if outputs(traced) != outputs(e2e):
            failed += 1
            failures.append("traced run differs from the e2e run")
        metrics["bench.trace_overhead_frac"] = {
            "value": traced["wall_s"] / e2e["wall_s"] - 1.0, "unit": "fraction"}

    declared = {m["name"]: m["unit"]
                for m in spec["per_layer" if args.trace else "end_to_end"]}
    printed = {name: m["unit"] for name, m in metrics.items()}
    if printed != declared:
        fail("printed metrics differ from BENCHMARK.json: "
             f"missing {sorted(set(declared) - set(printed))}, "
             f"extra {sorted(set(printed) - set(declared))}, "
             f"units {sorted(n for n in declared if printed.get(n, declared[n]) != declared[n])}",
             3)
    for f in failures:
        print(f"paperbench: check failed: {f}", file=sys.stderr)

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "default_seed": DEFAULT_SEED,
        "held_out_seed": HELD_OUT_SEED,
        "trace": args.trace,
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "pinned_threads": PINNED_THREADS,
        "build": e2e["build"],
        "passes": [r["passes"] for r in reports],
        "setup_samples": e2e["setup_samples"],
        "runs": e2e["runs"],
        "failures": failures,
    }
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
