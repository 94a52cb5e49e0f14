#!/usr/bin/env python3
"""Self-test for bench_report.py against a fake bench binary.

Each case writes a fake `bench_micro` (a Python script that prints canned
google-benchmark JSON for any --benchmark_filter) and, optionally, a seeded
BENCH_history.jsonl into a temporary out-dir, runs the report there, and
asserts on what it wrote: exactly one snapshot and one appended history
line, the clean-drift gate's edges (+1.9% passes, +2.1% fails), a negative
signed delta with zero clamped overhead on an improvement, the prior read
from the last well-formed history line, the --prior-binary same-session
delta driving the gate, and --check failing on a missed speedup. The fake
binaries log every call, so the same-session estimator's pair order
(alternating which binary goes first) is asserted from that log, along with
its median-of-pairs delta and the prior's spread. A recording made in a git
work tree carries HEAD's sha, suffixed "-dirty" when the tree has changes.

Exit status: 0 all assertions hold, 1 otherwise.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

REPORT = Path(__file__).resolve().parent / "bench_report.py"
PRIOR_NS = 1_000_000.0

SAME_SESSION_FILTER = "--benchmark_filter=BM_OurSchemeE2E$"

# The fake logs "<role> <filter arg>" per call. SEQ, when non-empty, gives
# the clean e2e time of its successive same-session calls.
FAKE_BENCH = """#!{python}
import json, sys
MEDIANS = {medians!r}
ROLE, LOG, SEQ = {role!r}, {log!r}, {seq!r}
reps = 1
filt = ""
for arg in sys.argv[1:]:
    if arg.startswith("--benchmark_repetitions="):
        reps = int(arg.split("=", 1)[1])
    if arg.startswith("--benchmark_filter="):
        filt = arg
with open(LOG, "a+") as fh:
    fh.seek(0)
    calls = [l.split() for l in fh.read().splitlines()]
    fh.write(ROLE + " " + filt + "\\n")
if SEQ and filt == {same_session!r}:
    k = sum(1 for c in calls if c == [ROLE, filt])
    MEDIANS["BM_OurSchemeE2E"] = SEQ[k % len(SEQ)]
rows = []
for name, ns in MEDIANS.items():
    for i in range(reps):
        row = {{"name": name, "run_type": "iteration", "repetition_index": i,
                "iterations": 1, "real_time": ns, "cpu_time": ns,
                "time_unit": "ns"}}
        if name.startswith("BM_GreedyGainCelf"):
            row["reeval_rate"] = 0.5
        rows.append(row)
    rows.append({{"name": name + "_median", "run_type": "aggregate",
                  "real_time": -1.0, "time_unit": "ns"}})
print(json.dumps({{"context": {{}}, "benchmarks": rows}}))
"""


def medians(clean_ns: float, speedup: float = 20.0) -> dict[str, float]:
    return {
        "BM_GreedyGain/64/256": 1000.0,
        "BM_GreedyGainScan/64/256": 1000.0 * speedup,
        "BM_GreedyGainCelf/250/256": 5000.0,
        "BM_OurSchemeE2E": clean_ns,
        "BM_OurSchemeE2E_Faults": clean_ns * 1.1,
        "BM_OurSchemeE2E_Obs": clean_ns * 1.2,
        "BM_OurSchemeE2E_Prov": clean_ns * 1.3,
        "BM_OurSchemeE2E_Ckpt": clean_ns * 1.4,
    }


def history_line(clean_ns: float) -> str:
    return json.dumps({"schema": "photodtn-bench-history/1", "git_sha": "x",
                       "medians_ns": {"BM_OurSchemeE2E": clean_ns},
                       "derived": {}})


def fake_binary(path: Path, meds: dict[str, float], role: str, log: Path,
                seq: list[float] | None = None) -> Path:
    path.write_text(FAKE_BENCH.format(
        python=sys.executable, medians=meds, role=role, log=str(log),
        seq=seq or [], same_session=SAME_SESSION_FILTER))
    path.chmod(0o755)
    return path


def git(cwd: Path, *args: str) -> str:
    return subprocess.run(
        ["git", "-c", "user.name=selftest", "-c", "user.email=selftest@localhost",
         *args], cwd=cwd, capture_output=True, text=True, check=True).stdout.strip()


def run_report(tmp: Path, clean_ns: float, history: list[str] | None = None,
               prior_clean_ns: float | None = None, speedup: float = 20.0,
               check: bool = False, cur_seq: list[float] | None = None,
               prior_seq: list[float] | None = None, setup=None,
               calls: list[list[str]] | None = None,
               ) -> tuple[int, dict, list[str], list[str]]:
    """Runs the report in a fresh out-dir; returns (exit code, derived,
    out-dir listing, history lines). `setup(out)` runs before the report;
    `calls`, when given, receives the fake binaries' call log."""
    case = Path(tempfile.mkdtemp(dir=tmp))
    out = case / "out"
    out.mkdir()
    if setup is not None:
        setup(out)
    if history is not None:
        (out / "BENCH_history.jsonl").write_text("".join(h + "\n" for h in history))
    log = case / "calls.log"
    cmd = [sys.executable, str(REPORT), "--repetitions", "3", "--out-dir", str(out),
           "--bench-binary",
           str(fake_binary(case / "bench_micro", medians(clean_ns, speedup), "cur",
                           log, cur_seq))]
    if prior_clean_ns is not None:
        cmd += ["--prior-binary",
                str(fake_binary(case / "prior_micro", medians(prior_clean_ns), "pri",
                                log, prior_seq))]
    if check:
        cmd.append("--check")
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=case)
    if proc.returncode not in (0, 1):
        raise AssertionError(f"report crashed:\n{proc.stdout}\n{proc.stderr}")
    snapshot = json.loads((out / "BENCH_micro.json").read_text())
    lines = (out / "BENCH_history.jsonl").read_text().splitlines()
    if calls is not None:
        calls.extend(line.split() for line in log.read_text().splitlines())
    return (proc.returncode, snapshot["derived"], sorted(os.listdir(out)), lines)


def main() -> int:
    failures: list[str] = []

    def expect(cond: bool, what: str) -> None:
        print(("ok   " if cond else "FAIL ") + what)
        if not cond:
            failures.append(what)

    with tempfile.TemporaryDirectory() as tmp_name:
        tmp = Path(tmp_name)

        code, d, files, lines = run_report(tmp, PRIOR_NS * 1.019,
                                           [history_line(PRIOR_NS)])
        expect(code == 0, "a passing run exits 0")
        expect(files == ["BENCH_history.jsonl", "BENCH_micro.json"],
               f"exactly one snapshot is written (out-dir: {files})")
        expect(len(lines) == 2, "exactly one history line is appended")
        expect(json.loads(lines[-1])["derived"] == d,
               "the history line carries the snapshot's derived block")
        expect(abs(d["clean_delta_vs_prior"] - 0.019) < 1e-9,
               "clean_delta_vs_prior is the signed drift vs the history prior")
        expect(d["meets_clean_drift_target"] is True, "+1.9% clean drift passes")
        expect(d["greedy_gain_speedup"] == 20.0 and d["meets_target"] is True,
               "the speedup is derived from the gain/scan pair")
        expect(d["celf_reeval_rate"] == 0.5, "the CELF re-evaluation rate is read")
        expect([round(d[f"{k}_vs_clean"], 9) for k in
                ("faulted", "obs", "prov", "persist")] == [1.1, 1.2, 1.3, 1.4],
               "the four advisory *_vs_clean ratios are derived")

        _, d, _, _ = run_report(tmp, PRIOR_NS * 1.021, [history_line(PRIOR_NS)])
        expect(d["meets_clean_drift_target"] is False, "+2.1% clean drift fails")

        _, d, _, _ = run_report(tmp, PRIOR_NS * 0.95, [history_line(PRIOR_NS)])
        expect(d["clean_delta_vs_prior"] < 0 and d["clean_overhead"] == 0.0
               and d["meets_clean_drift_target"] is True,
               "an improvement records a negative delta and zero overhead")

        _, d, _, lines = run_report(
            tmp, PRIOR_NS * 1.01,
            [history_line(PRIOR_NS / 2), history_line(PRIOR_NS),
             json.dumps({"medians_ns": {}}), "{not json"])
        expect(abs(d["clean_delta_vs_prior"] - 0.01) < 1e-9,
               "the prior is the last well-formed history line's clean median")
        expect(len(lines) == 5, "malformed history lines are kept, not rewritten")

        _, d, _, _ = run_report(tmp, PRIOR_NS * 1.019)
        expect(d["clean_delta_vs_prior"] is None
               and d["meets_clean_drift_target"] is False,
               "no prior fails the gate instead of passing it silently")

        calls: list[list[str]] = []
        _, d, _, _ = run_report(tmp, PRIOR_NS * 1.10, [history_line(PRIOR_NS)],
                                prior_clean_ns=PRIOR_NS * 1.09, calls=calls)
        expect(abs(d["clean_delta_same_session"] - (1.10 / 1.09 - 1)) < 1e-9
               and d["meets_clean_drift_target"] is True,
               "a same-session delta under 2% passes despite +10% vs history")
        session = [role for role, *filt in calls if filt == [SAME_SESSION_FILTER]]
        expect(len(session) == 20, f"ten same-session pairs run ({len(session)} calls)")
        expect(all(session[2 * k:2 * k + 2] ==
                   (["cur", "pri"] if k % 2 == 0 else ["pri", "cur"])
                   for k in range(len(session) // 2)),
               f"each pair alternates which binary goes first ({session})")
        expect(d["clean_delta_spread"] == 0.0,
               "a steady prior binary has zero spread")

        _, d, _, _ = run_report(tmp, PRIOR_NS, [history_line(PRIOR_NS)],
                                prior_clean_ns=PRIOR_NS,
                                cur_seq=[PRIOR_NS * 0.9] + [PRIOR_NS] * 9)
        expect(d["clean_delta_same_session"] == 0.0,
               "one lucky current run does not move the median-of-pairs delta")

        _, d, _, _ = run_report(
            tmp, PRIOR_NS, [history_line(PRIOR_NS)], prior_clean_ns=PRIOR_NS,
            prior_seq=[PRIOR_NS * (1 + 0.02 * i) for i in range(10)])
        # Exclusive quartiles of 1.00..1.18 are 1.035 and 1.145; median 1.09.
        expect(abs(d["clean_delta_spread"] - 0.11 / 1.09) < 1e-9,
               "clean_delta_spread is the prior's IQR over its median")

        _, d, _, _ = run_report(tmp, PRIOR_NS * 1.019)
        expect(d["clean_delta_spread"] is None
               and d["clean_delta_same_session"] is None,
               "no --prior-binary leaves the same-session keys null")
        _, d, _, _ = run_report(tmp, PRIOR_NS, [history_line(PRIOR_NS)],
                                prior_clean_ns=PRIOR_NS / 1.05)
        expect(d["clean_delta_vs_prior"] == 0.0
               and d["meets_clean_drift_target"] is False,
               "a same-session delta over 2% fails despite 0% vs history")

        code, d, _, _ = run_report(tmp, PRIOR_NS, [history_line(PRIOR_NS)],
                                   speedup=10.0, check=True)
        expect(code == 1 and d["meets_target"] is False,
               "--check exits non-zero on a speedup miss")
        code, _, _, _ = run_report(tmp, PRIOR_NS * 1.05, [history_line(PRIOR_NS)],
                                   check=True)
        expect(code == 0, "--check does not gate on clean drift")

        head = []

        def committed_repo(out: Path) -> None:
            git(out, "init", "-q")
            (out / "tracked.txt").write_text("v1\n")
            git(out, "add", "tracked.txt")
            git(out, "commit", "-q", "-m", "base")
            head.append(git(out, "rev-parse", "HEAD"))

        def edited_repo(out: Path) -> None:
            committed_repo(out)
            (out / "tracked.txt").write_text("v2\n")

        _, _, _, lines = run_report(tmp, PRIOR_NS, setup=committed_repo)
        expect(json.loads(lines[-1])["git_sha"] == head[-1],
               "a clean work tree records HEAD's sha")
        _, _, _, lines = run_report(tmp, PRIOR_NS, setup=edited_repo)
        expect(json.loads(lines[-1])["git_sha"] == head[-1] + "-dirty",
               "an uncommitted change records <sha>-dirty")

    if failures:
        print(f"{len(failures)} assertion(s) failed", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
