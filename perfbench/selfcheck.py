"""Self-check of the benchmark at tiny sizes.

Usage, from the repository root:

    python3 perfbench/selfcheck.py

For every workload it runs the untraced and the traced measurement at a
tiny size and checks that every metric BENCHMARK.json names is reported
with its unit, that no pass failed, that tracing left the artifacts
byte-identical and that the bypassed layers read 0 calls.  It then checks
that verification can fail: a digit flipped in steady.csv, or in
fuzz_report.json, makes the pass count as failed.  Finally it checks that
the benchmark refuses to run, without printing a result, in a directory
that holds only BENCHMARK.json and the benchmark's own files.  Exits 0
when every check holds.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import run
from tracing import bypass_violations
from workloads import WORKLOADS

ROOT = Path.cwd()


def _flip_digit(path: Path, pattern: str) -> None:
    """Add 1 (mod 10) to the first digit of the first match of pattern."""
    text = path.read_text()
    match = re.search(pattern, text)
    if match is None:
        raise AssertionError(f"{path.name}: nothing matches {pattern!r}")
    i = match.start("digit")
    path.write_text(text[:i] + str((int(text[i]) + 1) % 10) + text[i + 1:])


def check_metrics(spec: dict) -> list:
    problems = []
    for name in WORKLOADS:
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            payload, lines = run.measure(name, 3, 0.0, trace, ROOT, tiny=True, min_passes=2)
            label = f"{name} trace {int(trace)}"
            if not (payload["correct"] and payload["failed"] == 0 and payload["attempted"] >= 2):
                problems.append(f"{label}: {payload['failed']} of {payload['attempted']} passes "
                                f"failed or correct is false\n  " + "\n  ".join(lines))
            for metric in spec[key]:
                got = payload["metrics"].get(metric["name"])
                if got is None or got["unit"] != metric["unit"]:
                    problems.append(f"{label}: {metric['name']} missing or not in {metric['unit']}")
            if trace and bypass_violations(name, {m: v["value"] for m, v in payload["metrics"].items()}):
                problems.append(f"{label}: a bypassed layer was called")
            if trace and payload["metrics"]["scheme.step.calls"]["value"] == 0:
                problems.append(f"{label}: no scheme.step calls traced")
    return problems


def check_tampering() -> list:
    import child

    problems = []
    cases = (("steady", "steady.csv", r"\n[0-9.e+-]+,-?0\.\d\d(?P<digit>\d)"),
             ("campaign", "fuzz_report.json", r'"worst_abs_state": (?P<digit>\d)'))
    for name, artifact, pattern in cases:
        workload = WORKLOADS[name]
        work = ROOT / run.WORK_DIR / "selfcheck" / name
        work.mkdir(parents=True, exist_ok=True)
        out = work / "out"
        config = work / "config.ini"
        config.write_text(workload.config(3, str(out), True))
        records = child.run_passes(workload, str(config), out, 0.0, 1, 60.0,
                                   after_pass=lambda o: _flip_digit(o / artifact, pattern))
        if not records[0]["failures"]:
            problems.append(f"{name}: a digit flipped in {artifact} was not detected")
        records = child.run_passes(workload, str(config), out, 0.0, 1, 60.0)
        if records[0]["failures"]:
            problems.append(f"{name}: an untouched pass failed: {records[0]['failures']}")
    return problems


def check_refuses_bare_directory() -> list:
    bare = ROOT / run.WORK_DIR / "selfcheck" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(run.HERE, bare / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(spec["command"] + ["--workload", "evolve", "--seed", "1", "--seconds", "1",
                                             "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout.strip()[-200:]!r}"]
    return []


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = check_metrics(spec) + check_tampering() + check_refuses_bare_directory()
    for problem in problems:
        print("FAIL", problem)
    print("selfcheck:", "ok" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
