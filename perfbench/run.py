"""Benchmark of horizonfv's command line workloads.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

NAME is one of campaign, evolve, oracle, steady (see perfbench/README.md).
The orchestrator writes the workload's config from the seed, then starts
fresh child processes one after another, never two at once:

* ``--trace 0``: set-up probes, each a fresh interpreter that imports the
  package and parses the config, then one child that runs timed passes
  for ``--seconds``.  Prints the end-to-end metrics.
* ``--trace 1``: an untraced child and a traced child, each for
  half of ``--seconds``.  Prints the per-layer metrics, checks that tracing
  left every artifact byte-identical, and lists any layer a workload
  should bypass but called.

Every pass's artifacts are checked; a failed check, a non-zero exit or an
exception counts as a failed pass.  The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics.
Scratch files go to .perfbench_work/ under the current directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibrate import NOMINAL_S, reference_times
from tracing import LAYER_METRICS, bypass_violations
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
WORK_DIR = ".perfbench_work"
SETUP_PROBES = 7
# wall_s_tail is the highest percentile with ten samples beyond it
TAIL_BEYOND = 10
MIN_PASSES = TAIL_BEYOND + 1
TRACE_MIN_PASSES = 3
RUN_LIMIT_S = 170.0  # every run ends within the 180 s it is allowed
END_TO_END = {"setup_s": "s", "wall_s": "s", "cell_steps_per_s": "1/s", "peak_rss_mb": "MB"}
SINGLE_THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def _loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unavailable"


def _provenance(root: Path) -> dict:
    try:
        # the ceiling keeps git from reading repositories above the checkout
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env, capture_output=True,
                             text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    src = hashlib.sha256()
    for path in sorted((root / "src" / "horizonfv").rglob("*.py")):
        src.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return {"git_sha": sha, "src_sha256": src.hexdigest(), "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0))}


def _run_child(job: dict, work: Path, deadline: float) -> tuple[dict, float]:
    """Run child.py on job; return its result and the time it was started."""
    job_path = work / f"job_{job['tag']}.json"
    job_path.write_text(json.dumps(job))
    Path(job["result"]).unlink(missing_ok=True)
    env = dict(os.environ, **SINGLE_THREAD_ENV)
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a child process")
    started = time.monotonic()
    proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), str(job_path)], env=env,
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    try:
        _, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"child {job['tag']} ran past the run's time limit") from None
    except BaseException:  # interrupted or terminated: end the child before leaving
        proc.kill()
        proc.communicate()
        raise
    if proc.returncode != 0 or not Path(job["result"]).is_file():
        raise BenchError(f"child {job['tag']} exited with status {proc.returncode}: {err.strip()[-2000:]}")
    return json.loads(Path(job["result"]).read_text()), started


def tail(times: list) -> tuple[float, float, int]:
    """The highest percentile of times with TAIL_BEYOND samples beyond it:
    (value, percentile, samples beyond).  Too few samples give the maximum."""
    xs = sorted(times)
    i = len(xs) - 1 - TAIL_BEYOND
    if i < 0:
        return xs[-1], 100.0, 0
    return xs[i], 100.0 * i / max(len(xs) - 1, 1), TAIL_BEYOND


def corrected(seconds: float, ref_s: float) -> float:
    """A time measured next to a reference kernel run of ref_s, at nominal machine speed."""
    return seconds / ref_s * NOMINAL_S


def _pass_times(records: list) -> list:
    return [corrected(r["wall_s"], r["ref_s"]) for r in records]


def _first_work(records: list) -> dict:
    return next((r["work"] for r in records if not r["failures"]), {})


def _digest_sets(records: list) -> list:
    return sorted({json.dumps(r["digests"], sort_keys=True) for r in records if not r["failures"]})


def measure(name: str, seed: int, seconds: float, trace: bool, root: Path, tiny: bool = False,
            min_passes: int | None = None) -> tuple[dict, list]:
    """Run one workload; return (result object, report lines)."""
    if not (root / "src" / "horizonfv" / "__init__.py").is_file():
        raise BenchError(f"no horizonfv sources under {root / 'src'}; run from the repository root")
    deadline = time.monotonic() + RUN_LIMIT_S
    workload = WORKLOADS[name]
    work = root / WORK_DIR / name
    work.mkdir(parents=True, exist_ok=True)
    out = (work / "out").relative_to(root).as_posix()
    config = work / "config.ini"
    config.write_text(workload.config(seed, out, tiny))
    base = {"src": str(root / "src"), "workload": name, "configs": [str(config)],
            "out": out, "setup_only": False, "trace": False}
    env_start = _loadavg()
    lines = [f"workload {name} seed {seed} seconds {seconds} trace {int(trace)}"]

    def child(tag, **extra):
        job = dict(base, tag=tag, result=str(work / f"result_{tag}.json"), **extra)
        return _run_child(job, work, deadline)

    if not trace:
        setups, raw_setups = [], []
        reference_times(1)  # the first run of the kernel in a process is slow
        for i in range(SETUP_PROBES):
            ref_before = reference_times(2)
            result, started = child(f"setup{i}", setup_only=True)
            raw_setups.append(result["setup_end"] - started)
            ref_s = statistics.median(ref_before + reference_times(2))
            setups.append(corrected(raw_setups[-1], ref_s))
        limit = deadline - time.monotonic() - 25.0
        result, _ = child("timed", seconds=seconds, limit_s=limit,
                          min_passes=MIN_PASSES if min_passes is None else min_passes)
        records = result["passes"]
        walls = _pass_times(records)
        wall = statistics.median(walls)
        tail_s, pct, beyond = tail(walls)
        counts = _first_work(records)
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": wall,
            "cell_steps_per_s": counts.get("cell_steps", 0) / wall,
            "peak_rss_mb": result["peak_rss_mb"],
        }
        units = END_TO_END
        lines.append(f"uncorrected medians: setup {statistics.median(raw_setups):.6g} s, pass "
                     f"{statistics.median(r['wall_s'] for r in records):.6g} s; reference kernel "
                     f"{statistics.median(r['ref_s'] for r in records):.6g} s (nominal {NOMINAL_S} s)")
        lines.append(f"wall_s_tail {tail_s:.6g} s (p{pct:.1f} of {len(walls)} passes, {beyond} beyond it)")
        if "targets" in counts:
            lines.append(f"targets_per_s {counts['targets'] / wall:.6g} 1/s")
        if "points" in counts:
            lines.append(f"points_per_s {counts['points'] / wall:.6g} 1/s")
        correct = True
    else:
        half = seconds / 2.0
        limit = (deadline - time.monotonic() - 40.0) / 2.0
        plain, _ = child("plain", seconds=half, limit_s=limit,
                         min_passes=TRACE_MIN_PASSES if min_passes is None else min_passes)
        limit = deadline - time.monotonic() - 25.0
        result, _ = child("traced", trace=True, seconds=half, limit_s=limit,
                          min_passes=TRACE_MIN_PASSES if min_passes is None else min_passes)
        records = plain["passes"] + result["passes"]
        metrics = dict(result["layers"])
        metrics["trace.overhead_ratio"] = statistics.median(_pass_times(result["passes"])) \
            / statistics.median(_pass_times(plain["passes"]))
        units = {m: unit for m, (unit, _) in LAYER_METRICS.items()}
        same = _digest_sets(plain["passes"]) == _digest_sets(result["passes"])
        lines.append(f"traced artifacts identical to untraced: {'yes' if same else 'NO'}")
        violations = bypass_violations(name, metrics)
        lines.append("bypassed layers: " + ("all read 0 calls" if not violations
                                             else "CALLED " + ", ".join(violations)))
        missing = sorted(set(units) - set(metrics))
        if missing:
            lines.append("absent (target no longer exists): " + ", ".join(missing))
        lines.append(f"spans recorded: {result['span_count']}")
        top = sorted(result["span_table"].items(), key=lambda kv: -kv[1]["self_s"])[:8]
        for span, row in top:
            lines.append(f"  self {row['self_s']:.4f} s  total {row['total_s']:.4f} s  "
                         f"calls {row['calls']:>7}  {span}")
        correct = same

    failed = sum(1 for r in records if r["failures"])
    digest_sets = _digest_sets(records)
    lines.append(f"fail_ratio {failed / len(records):.6g} ({failed} of {len(records)} passes failed)")
    for r in records:
        if r["failures"]:
            lines.append("  failed: " + "; ".join(r["failures"])[:500])
    lines.append("artifact digests " + ("identical across passes" if len(digest_sets) == 1
                                        else f"DIFFER across passes ({len(digest_sets)} sets)"))
    if digest_sets:
        for fname, digest in json.loads(digest_sets[0]).items():
            lines.append(f"  sha256 {digest}  {fname}")
    env = dict(_provenance(root), python=result["versions"]["python"],
               numpy=result["versions"]["numpy"], loadavg_start=env_start, loadavg_end=_loadavg())
    lines.append("env " + json.dumps(env, sort_keys=True))
    for metric, value in metrics.items():
        lines.append(f"{metric} {value:.6g} {units[metric]}")

    payload = {
        "correct": bool(correct and failed == 0 and records),
        "attempted": len(records),
        "failed": failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    }
    report = {"result": payload, "env": env, "lines": lines,
              "passes": [{k: r[k] for k in ("wall_s", "ref_s", "failures", "work", "bytes")}
                         for r in records]}
    (work / f"report_trace{int(trace)}.json").write_text(json.dumps(report, indent=1))
    return payload, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        payload, lines = measure(args.workload, args.seed, args.seconds, bool(args.trace), Path.cwd())
    except BenchError as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 1
    print("\n".join(lines))
    print(json.dumps(payload))
    return 0


if __name__ == "__main__":
    sys.exit(main())
