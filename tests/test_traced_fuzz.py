"""The benchmark's tracer on the two certificate paths: the campaign, run
at one trial, and ``horizonfv run`` with entropy diagnostics under a fixed
ghost, which no benchmark workload drives.  The tracer wraps the package's
entropy functions by name and measures their work from their arguments, so
a signature change that breaks a traced certificate fails here.  The tracer
patches module attributes, so it runs in a child process (with no bytecode
written), and perfbench/tracing.py is loaded unmodified."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

CHILD = r"""
import importlib.util
import json
import sys

spec = importlib.util.spec_from_file_location("_perfbench_tracing", sys.argv[1])
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
tracer = tracing.Tracer()
tracer.install()

from horizonfv.cli import main

tracer.begin_pass(0)
status = main([sys.argv[2], sys.argv[3]])
tracer.end_pass()
table = tracer.span_table(0)
print(json.dumps({
    "status": status,
    "installed": sorted(tracer.installed),
    "steps": table.get("scheme.step", {}).get("calls", 0),
    "entropy": {name: {"calls": table.get(name, {}).get("calls", 0),
                       "work": table.get(name, {}).get("work", 0),
                       "measured": work is not None}
                for name, (_, work) in tracing.SPANS.items() if name.startswith("entropy.")},
}))
"""

CONFIG = """
[model]
model = burgers

[geometry]
mass = 1.0
r_max = 12.0
cells = 200
outer_boundary = {outer}

[evolution]
t_end = 0.4

[diagnostics]
entropy_diagnostics = true

[run]
seed = 3
output_dir = {out}

[fuzz]
trials = 1
"""


def traced_command(tmp_path, command, outer="copy"):
    config = tmp_path / f"{command}.ini"
    config.write_text(CONFIG.format(outer=outer, out=tmp_path / "out"))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH"))))}
    child = subprocess.run([sys.executable, "-B", "-c", CHILD, str(ROOT / "perfbench" / "tracing.py"),
                            command, str(config)], capture_output=True, text=True, env=env, timeout=300)
    assert child.returncode == 0, child.stderr
    traced = json.loads(child.stdout.splitlines()[-1])
    assert traced["status"] == 0
    assert traced["steps"] > 0
    return traced


def test_traced_one_trial_fuzz_records_every_entropy_span(tmp_path):
    traced = traced_command(tmp_path, "fuzz")
    assert traced["entropy"]
    for name, span in traced["entropy"].items():
        assert name in traced["installed"]
        assert span["calls"] > 0, name
        if span["measured"]:
            assert span["work"] > 0, name
    # one certificate, and one face reconstruction, per step
    assert traced["entropy"]["entropy.cell_entropy_residuals"]["calls"] == traced["steps"]
    assert traced["entropy"]["entropy.face_reconstruction"]["calls"] == traced["steps"]


def test_traced_run_certifies_each_fixed_ghost_step_once(tmp_path):
    traced = traced_command(tmp_path, "run", outer="fixed:0.25")
    assert (tmp_path / "out" / "entropy_ledger.csv").is_file()
    assert traced["entropy"]["entropy.cell_entropy_residuals"]["calls"] == traced["steps"]
    assert traced["entropy"]["entropy.face_reconstruction"]["calls"] == traced["steps"]
    assert traced["entropy"]["entropy.cell_entropy_residuals"]["work"] == 200 * traced["steps"]
