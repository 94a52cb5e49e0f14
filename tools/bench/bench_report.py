#!/usr/bin/env python3
"""Perf-regression report for the selection engine and the e2e loop.

Runs bench_micro (google-benchmark) once, over the selection and e2e
benches, and distills it into one diff-friendly snapshot at the repo root:

  BENCH_micro.json (schema photodtn-bench/2) - per-bench median ns/op over
      the per-repetition runs, median user counters where a bench reports
      them, the recording tree's git_sha (suffixed "-dirty" when the tree
      has uncommitted changes), and one `derived` block:
        greedy_gain_speedup   the per-candidate gain sweep vs the legacy
                              per-segment scan at 64 PoIs / 256 candidates,
                              against speedup_target (meets_target)
        celf_reeval_rate      CELF stale re-evaluations / gain evaluations
        {faulted,obs,prov,persist}_vs_clean
                              advisory cost ratio to the clean run of the
                              e2e run with faults / metrics+trace /
                              provenance / checkpointing on
        clean_delta_vs_prior  signed drift of the clean e2e median vs the
                              prior one (negative = this commit is faster)
        clean_delta_same_session
                              the same drift against --prior-binary, run in
                              this session: the median of per-pair deltas
                              over order-alternated pairs (null without one)
        clean_delta_spread    the prior binary's interquartile range over
                              those pairs, as a fraction of its median: the
                              noise the same-session delta sits in (null
                              without --prior-binary)
        clean_overhead        the gating delta clamped at zero, so an
                              improvement never reads as budget consumption
        meets_clean_drift_target
                              clean_overhead < clean_drift_target (2%)

The clean run is the one drift gate: with faults, obs tiers, provenance and
checkpointing off, each of those layers costs one branch or null test per
hook site, so their residue is the clean run's drift. The prior median is
BM_OurSchemeE2E from the last well-formed BENCH_history.jsonl line. It was
recorded in an earlier session, so the delta folds in machine drift; a
--prior-binary (bench_micro built from the previous commit) is measured in
this session instead, and when given its delta drives the gate.

Every run also appends one line (git sha, UTC date, all medians, the derived
block) to BENCH_history.jsonl, the append-only perf trajectory.

Usage:
  tools/bench/bench_report.py --bench-binary build/bench/bench_micro \\
      [--prior-binary <prior>/bench_micro] [--out-dir .] [--repetitions 5] \\
      [--check]
"""

import argparse
import datetime
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_FILTER = (
    "BM_GreedyGain|BM_SelectionEnvBuild|BM_SelectionEnvReconcile|"
    "BM_GreedySelectEnv|BM_ExperimentSweep|BM_OurSchemeE2E(_Faults|_Obs|_Ckpt|_Prov)?$"
)
E2E_CLEAN = "BM_OurSchemeE2E"
# Advisory enabled-cost ratios: derived key prefix -> e2e variant bench.
E2E_VARIANTS = {
    "faulted": "BM_OurSchemeE2E_Faults",
    "obs": "BM_OurSchemeE2E_Obs",
    "prov": "BM_OurSchemeE2E_Prov",
    "persist": "BM_OurSchemeE2E_Ckpt",
}
CELF_BENCH = "BM_GreedyGainCelf/250/256"
# Production gain sweep vs the legacy scan; ~27x on the reference box, so
# 15x keeps headroom for runner noise.
TARGET_PAIR = ("BM_GreedyGain/64/256", "BM_GreedyGainScan/64/256")
TARGET_SPEEDUP = 15.0
# The clean-run drift budget: the strictest bound any disabled layer had.
CLEAN_DRIFT_TARGET = 0.02
# Order-alternated (current, prior) pairs behind clean_delta_same_session.
SAME_SESSION_PAIRS = 10
SNAPSHOT = "BENCH_micro.json"
HISTORY = "BENCH_history.jsonl"

# google-benchmark's fixed per-benchmark JSON keys; anything else numeric is
# a user counter (reeval_rate, segs_per_poi, ...).
_STANDARD_KEYS = {
    "name", "family_index", "per_family_instance_index", "run_name",
    "run_type", "repetitions", "repetition_index", "threads", "iterations",
    "real_time", "cpu_time", "time_unit", "aggregate_name", "label",
    "error_occurred", "error_message",
}
_NS_PER_UNIT = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def git_sha(repo_root: Path) -> str:
    """HEAD's sha, suffixed "-dirty" when the work tree differs from it: a
    recording of uncommitted code must not carry its parent's sha."""
    def git(*args: str) -> str:
        return subprocess.run(["git", *args], cwd=repo_root, capture_output=True,
                              text=True, check=True).stdout.strip()
    try:
        sha = git("rev-parse", "HEAD")
        return sha + "-dirty" if git("status", "--porcelain") else sha
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def run_bench(binary: Path, bench_filter: str, repetitions: int) -> dict:
    """name -> {median_ns, runs[, counters]} over per-repetition runs."""
    cmd = [
        str(binary),
        f"--benchmark_filter={bench_filter}",
        "--benchmark_format=json",
        f"--benchmark_repetitions={repetitions}",
        "--benchmark_report_aggregates_only=false",
    ]
    out = subprocess.run(cmd, capture_output=True, text=True)
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        raise SystemExit(f"bench run failed: {' '.join(cmd)}")
    samples: dict[str, list[float]] = {}
    counters: dict[str, dict[str, list[float]]] = {}
    for b in json.loads(out.stdout).get("benchmarks", []):
        if b.get("run_type") == "aggregate":
            continue  # we aggregate ourselves
        name = b["name"].split("/repeats:")[0]
        scale = _NS_PER_UNIT[b.get("time_unit", "ns")]
        samples.setdefault(name, []).append(float(b["real_time"]) * scale)
        for key, val in b.items():
            if key not in _STANDARD_KEYS and isinstance(val, (int, float)):
                counters.setdefault(name, {}).setdefault(key, []).append(float(val))
    medians = {}
    for name, vals in sorted(samples.items()):
        entry = {"median_ns": statistics.median(vals), "runs": len(vals)}
        if name in counters:
            entry["counters"] = {
                k: statistics.median(v) for k, v in sorted(counters[name].items())
            }
        medians[name] = entry
    return medians


def ratio(num: float | None, den: float | None) -> float | None:
    return num / den if num is not None and den else None


def drift(cur: float | None, prior: float | None) -> float | None:
    r = ratio(cur, prior)
    return r - 1.0 if r is not None else None


def same_session_clean_delta(
        current: Path, prior: Path,
        repetitions: int) -> tuple[float | None, float | None]:
    """(delta, spread) of the clean e2e median, `current` vs `prior`, run now.

    Each pair runs both binaries back to back, and the first of the pair
    alternates (current first in even pairs, prior first in odd ones), so
    neither side always gets the warmer or the quieter slot. The delta is
    the median of the per-pair signed deltas: one lucky or unlucky run moves
    it by at most one rank. The spread is the prior binary's interquartile
    range over its pairs as a fraction of its median, the noise floor the
    delta should be read against.
    """
    binaries = {"cur": current, "pri": prior}
    deltas, pri_meds = [], []
    for k in range(SAME_SESSION_PAIRS):
        meds = {}
        for side in ("cur", "pri") if k % 2 == 0 else ("pri", "cur"):
            entry = run_bench(binaries[side], f"{E2E_CLEAN}$",
                              repetitions).get(E2E_CLEAN)
            if entry:
                meds[side] = entry["median_ns"]
        if len(meds) == 2:
            deltas.append(drift(meds["cur"], meds["pri"]))
            pri_meds.append(meds["pri"])
    if not deltas:
        return None, None
    spread = None
    if len(pri_meds) >= 2:
        q1, _, q3 = statistics.quantiles(pri_meds, n=4)
        spread = ratio(q3 - q1, statistics.median(pri_meds))
    return statistics.median(deltas), spread


def prior_clean_ns(history: Path) -> float | None:
    """BM_OurSchemeE2E's median from the last well-formed history line."""
    prior = None
    if history.exists():
        for line in history.read_text().splitlines():
            try:
                val = json.loads(line)["medians_ns"][E2E_CLEAN]
            except (json.JSONDecodeError, KeyError, TypeError):
                continue
            if isinstance(val, (int, float)) and val > 0:
                prior = float(val)
    return prior


def derive(benchmarks: dict, prior_ns: float | None,
           same_session: float | None, spread: float | None) -> dict:
    def median(name: str) -> float | None:
        return benchmarks.get(name, {}).get("median_ns")

    engine, scan = (median(n) for n in TARGET_PAIR)
    speedup = ratio(scan, engine)
    clean = median(E2E_CLEAN)
    clean_delta = drift(clean, prior_ns)
    gate_delta = same_session if same_session is not None else clean_delta
    overhead = max(0.0, gate_delta) if gate_delta is not None else None
    derived = {
        "greedy_gain_speedup": speedup,
        "speedup_target": TARGET_SPEEDUP,
        "meets_target": speedup is not None and speedup >= TARGET_SPEEDUP,
        "celf_reeval_rate": benchmarks.get(CELF_BENCH, {})
        .get("counters", {}).get("reeval_rate"),
        "clean_delta_vs_prior": clean_delta,
        "clean_delta_same_session": same_session,
        "clean_delta_spread": spread,
        "clean_overhead": overhead,
        "clean_drift_target": CLEAN_DRIFT_TARGET,
        "meets_clean_drift_target": overhead is not None
        and overhead < CLEAN_DRIFT_TARGET,
    }
    for prefix, bench in E2E_VARIANTS.items():
        derived[f"{prefix}_vs_clean"] = ratio(median(bench), clean)
    return derived


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--bench-binary", required=True, type=Path)
    parser.add_argument(
        "--prior-binary", type=Path, default=None,
        help="bench_micro built from the previous commit; when given, the "
        "clean-drift gate compares against its clean e2e run measured in "
        "this session instead of the history line's (cross-session) median")
    parser.add_argument("--out-dir", type=Path, default=Path("."))
    parser.add_argument("--repetitions", type=int, default=5)
    parser.add_argument(
        "--check", action="store_true",
        help="exit non-zero when the greedy-gain speedup misses the target")
    args = parser.parse_args()

    for binary in (args.bench_binary, args.prior_binary):
        if binary is not None and not binary.exists():
            raise SystemExit(f"bench binary not found: {binary}")
    args.out_dir.mkdir(parents=True, exist_ok=True)
    sha = git_sha(args.out_dir.resolve())
    history = args.out_dir / HISTORY

    benchmarks = run_bench(args.bench_binary, BENCH_FILTER, args.repetitions)
    same_session = spread = None
    if args.prior_binary is not None:
        same_session, spread = same_session_clean_delta(
            args.bench_binary, args.prior_binary, args.repetitions)
    derived = derive(benchmarks, prior_clean_ns(history), same_session, spread)

    snapshot = args.out_dir / SNAPSHOT
    snapshot.write_text(json.dumps(
        {"schema": "photodtn-bench/2", "git_sha": sha,
         "benchmarks": benchmarks, "derived": derived},
        indent=2, sort_keys=True) + "\n")
    print(f"wrote {snapshot}")
    record = {
        "schema": "photodtn-bench-history/1",
        "git_sha": sha,
        "date_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"),
        "medians_ns": {name: e["median_ns"] for name, e in benchmarks.items()},
        "derived": derived,
    }
    with history.open("a") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")
    print(f"appended {history}")

    for key, val in sorted(derived.items()):
        print(f"  {key}: {val}")
    if args.check and not derived["meets_target"]:
        print(f"FAIL: speedup target {TARGET_SPEEDUP}x missed", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
