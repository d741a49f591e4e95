"""One measured process of the benchmark.

Usage: python3 perfbench/child.py JOB.json

The job file names the workload, its config files, the time budget and
where to write the result.  The process imports ``horizonfv`` and numpy
and parses the workload's configs, then records the monotonic clock: the
orchestrator subtracts the time it started this process to get the set-up
time.  A set-up probe stops there.  Otherwise the process runs passes of
the workload's subcommands through ``horizonfv.cli.main``, one after
another, until the budget is spent and enough passes are done, and checks
each pass's artifacts outside the timed region.
"""

import json
import sys
import time

if __name__ == "__main__":
    with open(sys.argv[1]) as fh:
        job = json.load(fh)
    sys.path.insert(0, job["src"])
    import numpy  # noqa: F401  (part of what set-up time measures)
    from horizonfv import cli

    for _path in job["configs"]:
        cli.parse_config(_path)
    setup_end = time.monotonic()

import hashlib
import os
import platform
import resource
import shutil
import statistics
from pathlib import Path


def digests(out: Path) -> dict:
    """sha256 of every artifact, by file name."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir()) if p.is_file()}


def run_passes(workload, config: str, out: Path, seconds: float, min_passes: int,
               limit_s: float, tracer=None, after_pass=None) -> list:
    """Run timed passes of a workload; return one record per pass.

    Each record holds the pass's wall time and ``ref_s``, the median time
    of the reference kernel runs just before and just after the pass.
    Passes continue until ``seconds`` have gone by and ``min_passes`` are
    done, but no pass starts after ``limit_s``.  ``after_pass(out)`` runs
    between a pass and its verification, which lets a self-check tamper
    with the artifacts.
    """
    from horizonfv import cli

    from calibrate import repeats_for, reference_times

    facts = workload.facts(config)
    records = []
    repeats = repeats_for(0.0)
    began = time.monotonic()
    while True:
        elapsed = time.monotonic() - began
        if len(records) >= min_passes and elapsed >= seconds or elapsed >= limit_s:
            break
        shutil.rmtree(out, ignore_errors=True)
        if tracer is not None:
            tracer.begin_pass(len(records))
        error = None
        ref_before = reference_times(repeats)
        start = time.perf_counter()
        try:
            for command in workload.commands:
                status = cli.main([command, config])
                if status != 0:
                    error = f"{command} exited with status {status}"
                    break
        except Exception as exc:  # a crash counts as a failed pass
            error = f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - start
        if tracer is not None:
            tracer.end_pass()
        ref_s = statistics.median(ref_before + reference_times(repeats))
        repeats = repeats_for(wall)
        if after_pass is not None:
            after_pass(out)
        record = {"wall_s": wall, "ref_s": ref_s, "failures": [error] if error else [],
                  "digests": {}, "work": {}, "bytes": 0}
        try:
            if not error:
                record["failures"] = workload.verify(out, facts)
                record["work"] = workload.work(out, facts)
            record["digests"] = digests(out)
            record["bytes"] = sum(p.stat().st_size for p in out.iterdir() if p.is_file())
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            record["failures"].append(f"artifacts unreadable: {type(exc).__name__}: {exc}")
        records.append(record)
    return records


def main(job: dict) -> dict:
    from calibrate import NOMINAL_S
    from tracing import LAYER_METRICS, TIME_UNITS, Tracer, median_metrics
    from workloads import WORKLOADS

    result = {"setup_end": setup_end}
    if job["setup_only"]:
        return result
    workload = WORKLOADS[job["workload"]]
    tracer = None
    if job["trace"]:
        tracer = Tracer()
        tracer.install()
    records = run_passes(workload, job["configs"][0], Path(job["out"]), job["seconds"],
                         job["min_passes"], job["limit_s"], tracer=tracer)
    result["passes"] = records
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["versions"] = {"python": platform.python_version(), "numpy": numpy.__version__,
                          "horizonfv": os.path.dirname(cli.__file__)}
    if tracer is not None:
        per_pass = []
        for i, r in enumerate(records):
            speed = NOMINAL_S / r["ref_s"]
            per_pass.append({name: value * speed if LAYER_METRICS[name][0] in TIME_UNITS else value
                             for name, value in tracer.pass_metrics(i, r["bytes"]).items()})
        result["layers"] = median_metrics(per_pass)
        result["span_table"] = tracer.span_table(len(records) - 1)
        result["span_count"] = len(tracer.spans)
    return result


if __name__ == "__main__":
    payload = main(job)
    tmp = job["result"] + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(payload, fh)
    os.replace(tmp, job["result"])
