import json
import math
import re
import tracemalloc
from dataclasses import fields
from itertools import groupby
from pathlib import Path

import numpy as np
import pytest

from horizonfv import (Background, CharState, ConfigError, StateVector, build_fhat_table, build_uniform_mesh,
                       burgers_model, exterior_invariant, numerical_flux, polynomial_model, project_initial, run,
                       trace_exterior)
from horizonfv.cli import _CSV_BLOCK, _write_csv, _write_snapshots, dispatch, main
from horizonfv.config import _KEYS, RunConfig, parse_config, resolved_config_text
from csv_reference import reference_write_csv, reference_write_snapshots

MINIMAL = """
[model]
model = burgers

[geometry]
mass = 1.0
r_max = 12.0
cells = 200

[evolution]
t_end = 1.0
"""


def write_config(tmp_path: Path, body: str, name: str = "run.ini") -> Path:
    path = tmp_path / name
    path.write_text(body)
    return path


def test_minimal_config_defaults(tmp_path):
    cfg = parse_config(write_config(tmp_path, MINIMAL))
    assert cfg.model == "burgers"
    assert cfg.flux == "godunov"
    assert cfg.cfl_fraction == 0.9
    assert cfg.outer_boundary == "copy"
    assert cfg.kruzhkov_levels == (-0.75, -0.25, 0.0, 0.25, 0.75)
    assert cfg.seed == 0


def test_resolved_config_roundtrip(tmp_path):
    cfg = parse_config(write_config(tmp_path, MINIMAL))
    text = resolved_config_text(cfg)
    reparsed = parse_config(write_config(tmp_path, text, "resolved.ini"))
    assert resolved_config_text(reparsed) == text


DEFAULT_RESOLVED = """\
[model]
model = burgers
f_coeffs = -0.5, 0, 0.5
h_coeffs = 0

[geometry]
mass = 1
r_max = 12
cells = 200
outer_boundary = copy

[evolution]
flux = godunov
cfl_fraction = 0.90000000000000002
t_end = 1
snapshot_every = 10

[initial]
kind = bump
constant = 0.5
left = 0.80000000000000004
right = -0.40000000000000002
jump_r = 7
amplitude = 0.5
center = 6
width = 1

[diagnostics]
entropy_diagnostics = false
kruzhkov_levels = -0.75, -0.25, 0, 0.25, 0.75

[run]
seed = 0
output_dir = out

[characteristics]
r0 = 8
u0 = 0.59999999999999998
ds = 0.001
s_max = 5
r_stop = 120
coordinates = exterior
interior_shift = 0.5

[steady]
r0 = 4
u0 = 0.90000000000000002

[converge]
preset = smooth
levels = 4

[oracle]
preset = smooth
cells = 400

[fuzz]
trials = 100
tau_scale = 1
"""


def test_resolved_config_of_defaults_is_pinned():
    # any reordered section or key, or a changed value format, shows here
    assert resolved_config_text(RunConfig()) == DEFAULT_RESOLVED


def test_every_field_is_one_distinct_key():
    declared = [(f.metadata.get("section"), f.metadata.get("key") or f.name) for f in fields(RunConfig)]
    assert all(section for section, _ in declared)
    assert len(set(declared)) == len(declared)
    # each section's keys are declared together, so the dump names a section once
    runs = [section for section, _ in groupby(section for section, _ in declared)]
    assert len(runs) == len(set(runs))


def test_cells_constraint_names_key(tmp_path):
    body = MINIMAL.replace("cells = 200", "cells = 1")
    with pytest.raises(ConfigError) as err:
        parse_config(write_config(tmp_path, body))
    assert str(err.value) == "geometry.cells: 1 is not in [2, 10000000]"


def test_unknown_key_named_with_line(tmp_path):
    body = MINIMAL + "\nfluxx = godunov\n"
    with pytest.raises(ConfigError) as err:
        parse_config(write_config(tmp_path, body))
    assert "fluxx" in str(err.value)
    assert "line" in str(err.value)


def test_unknown_key_line_is_found_in_its_own_section(tmp_path):
    body = """[geometry]
mass = 1.0
r_max = 12.0
cells = 200

[evolution]
t_end = 1.0

[steady]
r0 = 4.0

[characteristics]
r = 8.0
"""
    with pytest.raises(ConfigError) as err:
        parse_config(write_config(tmp_path, body))
    assert str(err.value) == "unknown key 'r' in section [characteristics] (line 13)"
    # keys are read case-insensitively, so the lookup is too
    with pytest.raises(ConfigError) as err:
        parse_config(write_config(tmp_path, body.replace("r = 8.0", "R : 8.0")))
    assert str(err.value) == "unknown key 'r' in section [characteristics] (line 13)"
    # a key valid in another section is looked up in its own one
    with pytest.raises(ConfigError) as err:
        parse_config(write_config(tmp_path, body.replace("r = 8.0", "cells = 8")))
    assert str(err.value) == "unknown key 'cells' in section [characteristics] (line 13)"


def test_unknown_key_without_a_line_is_named_alone(tmp_path):
    # configparser reads '[x = 1' as the key '[x'; a line opening with '[' is no key line to the lookup
    with pytest.raises(ConfigError) as err:
        parse_config(write_config(tmp_path, MINIMAL + "\n[x = 1\n"))
    assert str(err.value) == "unknown key '[x' in section [evolution]"


def test_dispatch_refuses_an_unknown_subcommand(tmp_path):
    cfg = parse_config(write_config(tmp_path, MINIMAL + f"\n[run]\noutput_dir = {tmp_path / 'out'}\n"))
    with pytest.raises(ConfigError, match="^unknown subcommand 'evolve'$"):
        dispatch("evolve", cfg)
    assert not (tmp_path / "out").exists()


def test_default_section_rejected_by_name(tmp_path):
    # configparser would copy [DEFAULT] keys into every other section
    body = "[DEFAULT]\nr0 = 3.0\n" + MINIMAL
    with pytest.raises(ConfigError) as err:
        parse_config(write_config(tmp_path, body))
    assert str(err.value) == "unknown section [DEFAULT] (line 1)"
    with pytest.raises(ConfigError) as err:
        parse_config(write_config(tmp_path, "[DEFAULT]\nseed = 3\n"))
    assert str(err.value) == "unknown section [DEFAULT] (line 1)"


def test_unknown_section_rejected(tmp_path):
    body = MINIMAL + "\n[vibes]\nlevel = 11\n"
    with pytest.raises(ConfigError) as err:
        parse_config(write_config(tmp_path, body))
    assert "vibes" in str(err.value)


def test_type_mismatch_names_key(tmp_path):
    body = MINIMAL.replace("mass = 1.0", "mass = heavy")
    with pytest.raises(ConfigError) as err:
        parse_config(write_config(tmp_path, body))
    assert "geometry.mass" in str(err.value)


def test_missing_required_keys(tmp_path):
    with pytest.raises(ConfigError) as err:
        parse_config(write_config(tmp_path, "[geometry]\nmass = 1.0\n"))
    assert "r_max" in str(err.value)


def test_fixed_boundary_parse(tmp_path):
    body = MINIMAL.replace("[evolution]", "outer_boundary = fixed:0.25\n\n[evolution]")
    cfg = parse_config(write_config(tmp_path, body))
    assert cfg.outer_ghost() == 0.25 and RunConfig().outer_ghost() is None
    bad = MINIMAL.replace("[evolution]", "outer_boundary = fixed:2.5\n\n[evolution]")
    with pytest.raises(ConfigError):
        parse_config(write_config(tmp_path, bad))


def test_custom_model_coeff_parsing(tmp_path):
    body = """
[model]
model = custom
f_coeffs = -0.5, 0.0, 0.5
h_coeffs = 0.0

[geometry]
mass = 1.0
r_max = 12.0
cells = 100

[evolution]
t_end = 0.5
"""
    cfg = parse_config(write_config(tmp_path, body))
    m = cfg.build_model()
    assert m.f(0.0) == -0.5
    assert m.f_poly == (-0.5, 0.0, 0.5)


def _run_cli(tmp_path, body, command, name="cfg.ini"):
    path = write_config(tmp_path, body, name)
    return main([command, str(path)])


def test_cli_exit_codes(tmp_path):
    body = MINIMAL + f"\n[run]\noutput_dir = {tmp_path/'out'}\n"
    assert _run_cli(tmp_path, body, "check-model") == 0
    bad = body.replace("cells = 200", "cells = 1")
    assert _run_cli(tmp_path, bad, "check-model", "bad.ini") == 2


@pytest.mark.parametrize("command, section, key, value", [
    ("run", "geometry", "cells", "inf"),
    ("run", "evolution", "t_end", "inf"),
    ("run", "geometry", "r_max", "inf"),
    ("characteristics", "characteristics", "s_max", "inf"),
    ("characteristics", "characteristics", "ds", "inf"),
    ("characteristics", "characteristics", "r0", "inf"),
    ("characteristics", "characteristics", "r_stop", "nan"),
])
def test_cli_refuses_a_number_that_is_not_finite(tmp_path, capsys, command, section, key, value):
    out = tmp_path / "out"
    body, replaced = re.subn(rf"^{key} = .*$", f"{key} = {value}", MINIMAL, flags=re.M)
    if not replaced:
        body += f"\n[{section}]\n{key} = {value}\n"
    assert _run_cli(tmp_path, body + f"\n[run]\noutput_dir = {out}\n", command) == 2
    assert capsys.readouterr().err == f"config error: {section}.{key}: cannot parse {value!r} as " \
        f"{'int' if key == 'cells' else 'float'} (not finite)\n"
    assert not out.exists()


def test_cli_characteristics_step_count_overflow_is_a_failure(tmp_path):
    out = tmp_path / "overflow"
    body = MINIMAL + f"\n[characteristics]\nds = 1e-300\ns_max = 1e300\n\n[run]\noutput_dir = {out}\n"
    assert _run_cli(tmp_path, body, "characteristics") == 1
    report = json.loads((out / "failure_report.json").read_text())
    assert report["error"] == "DomainError" and report["detail"].endswith("is not finite")
    assert not (out / "characteristic.csv").exists()


def test_cli_characteristics_step_count_above_the_cap_is_a_failure(tmp_path):
    # 10**7 steps would hold about 1.9 GB of rows; the refusal comes before the first step
    out = tmp_path / "capped"
    body = MINIMAL + f"\n[characteristics]\nds = 1e-7\ns_max = 1\n\n[run]\noutput_dir = {out}\n"
    assert _run_cli(tmp_path, body, "characteristics") == 1
    report = json.loads((out / "failure_report.json").read_text())
    assert report["error"] == "DomainError"
    assert report["detail"] == "step count (s_max - s0) / ds = 10000000 exceeds the cap of 1000000 steps"
    assert not (out / "characteristic.csv").exists()


def test_cli_characteristics_float_overflow_is_a_failure(tmp_path, capsys):
    # an admissible model whose (r - 2M)**2 term overflows a Python float in the tracer
    out = tmp_path / "overflow"
    body = MINIMAL.replace("model = burgers", "model = custom\nf_coeffs = -5e199, 0, 5e199\nh_coeffs = 0")
    assert _run_cli(tmp_path, body + f"\n[run]\noutput_dir = {out}\n", "characteristics") == 1
    report = json.loads((out / "failure_report.json").read_text())
    assert report["error"] == "NumericsError"
    assert report["detail"].startswith("trace from r=8.0, u=0.6 with ds=0.001 overflowed")
    assert not (out / "characteristic.csv").exists()



def test_cli_characteristics_underflow_to_a_zero_divisor_is_a_failure(tmp_path):
    out = tmp_path / "underflow"
    body = MINIMAL.replace("mass = 1.0", "mass = 1e-200")
    assert _run_cli(tmp_path, body + f"\n[characteristics]\nr0 = 1e-199\n\n[run]\noutput_dir = {out}\n",
                    "characteristics") == 1
    report = json.loads((out / "failure_report.json").read_text())
    assert report["error"] == "NumericsError"
    assert report["detail"] == ("trace from r=1e-199, u=0.6 with ds=0.001 overflowed: "
                                "the trace left the finite numbers")
    assert not (out / "characteristic.csv").exists()

def test_cli_usage_errors_exit_2_and_help_lists_every_subcommand(tmp_path, capsys):
    body = MINIMAL + f"\n[run]\noutput_dir = {tmp_path/'out'}\n"
    path = write_config(tmp_path, body)
    for argv in (["bogus", str(path)], ["run"], []):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
    assert "invalid choice: 'bogus'" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    usage = capsys.readouterr().out
    for name in ("run", "check-model", "characteristics", "steady", "converge", "oracle",
                 "steady-drift", "fuzz"):
        assert name in usage.split("{")[1].split("}")[0].split(","), name
    assert not (tmp_path / "out").exists()


def test_cli_check_model_reports_flags(tmp_path, capsys):
    body = MINIMAL + f"\n[run]\noutput_dir = {tmp_path/'out'}\n"
    assert _run_cli(tmp_path, body, "check-model") == 0
    payload = json.loads((tmp_path / "out" / "structure_report.json").read_text())
    assert payload["ok"] is True
    assert payload["boundary_roots_ok"] is True
    assert payload["flux_monotone_shape_ok"] is True
    # a model failing the structure checks exits 1
    broken = body.replace('model = burgers', 'model = custom\nf_coeffs = 0.0, 1.0\nh_coeffs = 0.0')
    assert _run_cli(tmp_path, broken, "check-model", "broken.ini") == 1


@pytest.mark.parametrize("f_coeffs, h_coeffs", (("0, 1e308, 1e308", "0"), ("-0.5, 0, 0.5", "1e308, 1e308")),
                         ids=("flux", "source"))
def test_cli_check_model_refuses_overflowing_coefficients(tmp_path, capsys, f_coeffs, h_coeffs):
    out = tmp_path / "out"
    body = MINIMAL.replace("model = burgers", f"model = custom\nf_coeffs = {f_coeffs}\nh_coeffs = {h_coeffs}") \
        + f"\n[run]\noutput_dir = {out}\n"
    assert _run_cli(tmp_path, body, "check-model") == 1
    report = json.loads((out / "failure_report.json").read_text())
    assert report["error"] == "DomainError"
    assert "overflows a float" in report["detail"]
    assert capsys.readouterr().err == f"error: {report['detail']}\n"
    assert not (out / "structure_report.json").exists()


def test_cli_run_artifacts(tmp_path):
    out = tmp_path / "artifacts"
    body = MINIMAL.replace("cells = 200", "cells = 60") + f"""
t_end_override_marker = ignored

[diagnostics]
entropy_diagnostics = true

[run]
seed = 11
output_dir = {out}
"""
    body = body.replace("t_end_override_marker = ignored\n", "")
    body = body.replace("t_end = 1.0", "t_end = 0.2")
    assert _run_cli(tmp_path, body, "run") == 0
    snapshots = (out / "snapshots.csv").read_text().splitlines()
    assert snapshots[0] == "t,r,v"
    assert len(snapshots) > 60
    ledger = (out / "entropy_ledger.csv").read_text().splitlines()
    assert ledger[0] == "step,k,worst_residual,balance_gap,dissipation_sum"
    summary = json.loads((out / "summary.json").read_text())
    assert summary["worst_entropy_residual"] <= 1e-13
    assert (out / "resolved_config.ini").exists()
    # final snapshot lands exactly on t_end
    last_t = float(snapshots[-1].split(",")[0])
    assert last_t == 0.2


def test_cli_run_goes_through_scheme_run(tmp_path):
    out = tmp_path / "through_run"
    body = MINIMAL.replace("cells = 200", "cells = 40\nouter_boundary = fixed:-0.3") \
        .replace("t_end = 1.0", "t_end = 0.3\nsnapshot_every = 4") + f"""
[diagnostics]
entropy_diagnostics = true
kruzhkov_levels = -0.5, 0.1, 0.6

[run]
output_dir = {out}
"""
    assert _run_cli(tmp_path, body, "run") == 0
    cfg = parse_config(write_config(tmp_path, body))
    mesh = build_uniform_mesh(Background(cfg.mass), cfg.r_max, cfg.cells)
    model = cfg.build_model()
    result = run(mesh, numerical_flux(cfg.flux, model), project_initial(mesh, cfg.build_v0())[0],
                 t_end=cfg.t_end, cfl_fraction=cfg.cfl_fraction, snapshot_every=cfg.snapshot_every,
                 outer_ghost=cfg.outer_ghost())
    rows = [(snap.time, r, v) for snap in result.snapshots for r, v in zip(mesh.centers, snap.values)]
    assert (out / "snapshots.csv").read_text() == reference_csv("t,r,v", rows)
    ledger = (out / "entropy_ledger.csv").read_text().splitlines()
    assert len(ledger) - 1 == result.steps * 3
    assert [int(line.split(",")[0]) for line in ledger[1:]] == \
        [n for n in range(1, result.steps + 1) for _ in range(3)]
    summary = json.loads((out / "summary.json").read_text())
    assert summary["steps"] == result.steps and summary["snapshots"] == len(result.snapshots)
    assert summary["tau_base"] == result.tau_base


def reference_csv(header, rows):
    """The per-value writer that _write_csv must reproduce byte for byte."""
    lines = [header]
    for row in rows:
        lines.append(",".join("%.17g" % x for x in row))
    return "\n".join(lines) + "\n"


# the rows of one block of _write_snapshots
SNAPSHOT_BLOCK = _CSV_BLOCK // 2


def test_snapshot_writer_matches_per_value_writer(tmp_path):
    # more cells than one row block, and states at -0.0, +-1 and subnormals
    mesh = build_uniform_mesh(Background(1.0), 12.0, SNAPSHOT_BLOCK + 5)
    special = np.array([-0.0, 1.0, -1.0, 5e-324, -5e-324, 2.2250738585072014e-308, 0.0])
    values = np.resize(special, mesh.n_cells)
    values[SNAPSHOT_BLOCK - 2:SNAPSHOT_BLOCK + 2] = (-1.0, -0.0, 5e-324, 1.0)
    snapshots = [StateVector(values=values, time=0.0, step_index=0),
                 StateVector(values=-values, time=1.0 / 3.0, step_index=4),
                 StateVector(values=np.full(mesh.n_cells, -0.0), time=0.5, step_index=7)]
    path = tmp_path / "snapshots.csv"
    _write_snapshots(path, snapshots, mesh.centers)
    rows = [(snap.time, r, v) for snap in snapshots for r, v in zip(mesh.centers, snap.values)]
    assert path.read_text() == reference_csv("t,r,v", rows)


@pytest.mark.parametrize("rows", [
    [(-0.0, 5e-324, 1.7976931348623157e308), (1.0 / 3.0, float("nan"), float("inf")),
     (-float("inf"), -1.7976931348623157e308, -5e-324)],
    [(1, -0.75, 1e-17, -0.0, 2.5), (2, 0.0, float("nan"), 1e300, 12), (1186, 0.75, -3.0, 7.0, 0.1)],
    [(0.1 * i, np.float64(i) / 7.0) for i in range(_CSV_BLOCK + 3)],  # three blocks of two columns
    [],
])
def test_write_csv_matches_per_value_writer(tmp_path, rows):
    header = "h"
    path = tmp_path / "table.csv"
    _write_csv(path, header, np.array(rows, dtype=float).T)
    assert path.read_text() == reference_csv(header, rows)


# -0.0, +-1, subnormals, the smallest normal, values just outside the vectorised range, ties and NaN/inf
EDGE_VALUES = np.array([-0.0, 0.0, 1.0, -1.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-5, -1e-5, 1e-4,
                        1e16 + 2, 99999999999999984.0, 1e17, 1e15 + 0.25, np.nan, np.inf, -np.inf])


def _mixed_columns(n_columns, n_rows, seed=7):
    rng = np.random.default_rng(seed)
    columns = rng.uniform(-1.0, 1.0, (n_columns, n_rows)) * 10.0 ** rng.integers(-6, 18, (n_columns, n_rows))
    columns.ravel()[::97] = np.resize(EDGE_VALUES, columns.ravel()[::97].size)
    return columns


@pytest.mark.parametrize("columns", [
    _mixed_columns(5, 2 * (_CSV_BLOCK // 5) + 3),  # three blocks
    _mixed_columns(1, _CSV_BLOCK + 1),  # one column, two blocks
    _mixed_columns(3, _CSV_BLOCK // 3),  # exactly one block
    np.array([EDGE_VALUES]),
    EDGE_VALUES[:, None],  # one row
    np.array([]).T,  # the ledger of a run with no steps: header only
    np.empty((3, 0)),
], ids=["three-blocks", "one-column", "one-block", "edge-values", "one-row", "empty-1d", "empty-2d"])
def test_write_csv_matches_reference_writer(tmp_path, columns):
    _write_csv(tmp_path / "new.csv", "a,b", columns)
    reference_write_csv(tmp_path / "old.csv", "a,b", columns)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


@pytest.mark.parametrize("cells", [2, 3, SNAPSHOT_BLOCK, SNAPSHOT_BLOCK + 1, 2 * SNAPSHOT_BLOCK + 1])
def test_snapshot_writer_matches_reference_writer(tmp_path, cells):
    mesh = build_uniform_mesh(Background(1.0), 12.0, cells)
    values = np.clip(np.nan_to_num(_mixed_columns(3, cells, seed=cells), nan=-0.0), -1.0, 1.0)  # states
    snapshots = [StateVector(values=v, time=t, step_index=i)
                 for i, (v, t) in enumerate(zip(values, (0.0, 1.0 / 3.0, 1e-5)))]
    snapshots.append(StateVector(values=np.resize(EDGE_VALUES[np.abs(EDGE_VALUES) <= 1.0], cells), time=0.5,
                                 step_index=9))
    _write_snapshots(tmp_path / "new.csv", snapshots, mesh.centers)
    reference_write_snapshots(tmp_path / "old.csv", snapshots, mesh.centers)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


# one field of each length %.17g writes, up to the 24 bytes that fill a slot, and each kind of value
# _format_g17 hands to %
SLOT_FIELDS = np.array([-2.2250738585072014e-308, np.nan, np.inf, -np.inf, -0.0, 5e-324, -5e-324,
                        -1.7976931348623157e308, -0.00012345678901234567, 1e16 + 2, -1.0, 0.5, 0.0])


@pytest.mark.parametrize("n_columns", [1, 2, 3, 5])
def test_write_csv_matches_reference_writer_across_number_blocks(tmp_path, n_columns):
    # a block is the whole rows that hold at most _CSV_BLOCK numbers; the slot fields sit in the
    # first, a middle and the last column of the last row of each block and the first row of the next
    assert max(len(b"%.17g" % x) for x in SLOT_FIELDS.tolist()) == 24
    rows = _CSV_BLOCK // n_columns
    columns = _mixed_columns(n_columns, 3 * rows + 1, seed=n_columns)
    fields = iter(np.resize(SLOT_FIELDS, 18))
    for boundary in (rows, 2 * rows, 3 * rows):
        for column in sorted({0, n_columns // 2, n_columns - 1}):
            for row in (boundary - 1, boundary):
                columns[column, row] = next(fields)
    _write_csv(tmp_path / "new.csv", "a,b", columns)
    reference_write_csv(tmp_path / "old.csv", "a,b", columns)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
    assert (tmp_path / "new.csv").read_text() == reference_csv("a,b", columns.T.tolist())


def _peak_bytes(write, *args):
    """The tracemalloc peak of a second call of write(*args); the first warms the caches."""
    write(*args)
    tracemalloc.start()
    try:
        write(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_writers_peak_no_higher_than_the_per_column_writers(tmp_path):
    # the steady workload's characteristic.csv (5001 x 5) and evolve-sized snapshots (7 of 6400
    # cells); the bounds are the peaks of the writers that formatted 1024 rows per column and joined
    # the fields with a % template, 482 271 and 442 888 bytes under numpy 2.4 and Python 3.11
    # (459 962 and 431 825 bytes with the rows buffer)
    burgers = burgers_model()
    path = trace_exterior(burgers, 1.0, CharState(0.0, 0.0, 8.0, 0.6), 1e-3, 5.0, 120.0)
    table = np.array((path.s, path.t, path.r, path.u, exterior_invariant(build_fhat_table(burgers), 1.0, path)))
    mesh = build_uniform_mesh(Background(1.0), 12.0, 6400)
    snapshots = [StateVector(values=v, time=i / 7.0, step_index=200 * i)
                 for i, v in enumerate(np.sin(np.outer(np.arange(1, 8), mesh.centers)))]
    assert table.shape == (5, 5001)
    assert _peak_bytes(_write_csv, tmp_path / "table.csv", "s,t,r,u,invariant", table) <= 482_271
    assert _peak_bytes(_write_snapshots, tmp_path / "snapshots.csv", snapshots, mesh.centers) <= 442_888


def test_cli_run_with_constant_initial_data_writes_the_reference_snapshots(tmp_path):
    # initial.kind = constant, the first branch of RunConfig.build_v0
    out = tmp_path / "constant"
    body = MINIMAL.replace("cells = 200", "cells = 30").replace("t_end = 1.0", "t_end = 1.0\nsnapshot_every = 3") \
        + f"""
[initial]
kind = constant
constant = -0.3

[run]
output_dir = {out}
"""
    assert _run_cli(tmp_path, body, "run") == 0
    cfg = parse_config(write_config(tmp_path, body))
    mesh = build_uniform_mesh(Background(cfg.mass), cfg.r_max, cfg.cells)
    values, clamped = project_initial(mesh, cfg.build_v0())
    assert cfg.initial_kind == "constant" and clamped == 0
    assert np.allclose(values, -0.3, rtol=0.0, atol=1e-15)
    result = run(mesh, numerical_flux(cfg.flux, cfg.build_model()), values, t_end=cfg.t_end,
                 cfl_fraction=cfg.cfl_fraction, snapshot_every=cfg.snapshot_every, outer_ghost=cfg.outer_ghost())
    assert len(result.snapshots) > 2 and not np.array_equal(result.final.values, values)
    reference_write_snapshots(tmp_path / "reference.csv", result.snapshots, mesh.centers)
    assert (out / "snapshots.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()


def test_cli_run_determinism(tmp_path):
    out = tmp_path / "det"
    body = MINIMAL.replace("cells = 200", "cells = 50").replace("t_end = 1.0", "t_end = 0.1") + f"""
[diagnostics]
entropy_diagnostics = true

[run]
seed = 3
output_dir = {out}
"""
    assert _run_cli(tmp_path, body, "run") == 0
    first = {p.name: p.read_bytes() for p in out.iterdir()}
    assert _run_cli(tmp_path, body, "run") == 0
    second = {p.name: p.read_bytes() for p in out.iterdir()}
    assert first == second


def test_cli_characteristics_csv(tmp_path):
    out = tmp_path / "chars"
    body = MINIMAL + f"""
[characteristics]
r0 = 8.0
u0 = 0.6
ds = 0.001
s_max = 1.0

[run]
output_dir = {out}
"""
    assert _run_cli(tmp_path, body, "characteristics") == 0
    lines = (out / "characteristic.csv").read_text().splitlines()
    assert lines[0] == "s,t,r,u,invariant"
    summary = json.loads((out / "summary.json").read_text())
    assert summary["invariant_drift"] <= 1e-8


def test_cli_characteristics_interior(tmp_path):
    out = tmp_path / "chars_int"
    body = MINIMAL + f"""
[characteristics]
r0 = 8.0
u0 = 0.6
ds = 0.001
s_max = 1.0
coordinates = interior
interior_shift = 0.5

[run]
output_dir = {out}
"""
    assert _run_cli(tmp_path, body, "characteristics") == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["coordinates"] == "interior"
    assert summary["invariant_drift"] <= 1e-8


def test_cli_characteristics_interior_decides_burgers_by_its_coefficients(tmp_path):
    # model = burgers and custom with Burgers' coefficients, trailing zeros and all, trace the same
    traces = []
    for model in ({}, {"model.f_coeffs": "-0.5, -0, 0.5, 0", "model.h_coeffs": "0, 0"},
                  {"model.model": "custom", "model.f_coeffs": "-0.5, 0, 0.5, 0", "model.h_coeffs": "0, 0"}):
        out = tmp_path / f"out{len(traces)}"
        body = config_with({**model, "characteristics.s_max": "1.0", "characteristics.coordinates": "interior",
                            "run.output_dir": str(out)})
        assert _run_cli(tmp_path, body, "characteristics") == 0
        traces.append([(out / name).read_bytes() for name in ("characteristic.csv", "summary.json")])
    assert traces[0] == traces[1] == traces[2]


def test_cli_steady_and_drift(tmp_path):
    out = tmp_path / "steady"
    body = MINIMAL.replace("cells = 200", "cells = 50").replace("t_end = 1.0", "t_end = 0.5") + f"""
[steady]
r0 = 4.0
u0 = 0.9

[run]
output_dir = {out}
"""
    assert _run_cli(tmp_path, body, "steady") == 0
    lines = (out / "steady.csv").read_text().splitlines()
    assert lines[0] == "r,u"
    u_values = np.array([float(line.split(",")[1]) for line in lines[1:]])
    assert np.all(np.diff(u_values) < 0.0)  # decreasing for a positive anchor

    assert _run_cli(tmp_path, body, "steady-drift") == 0
    drift = json.loads((out / "steady_drift.json").read_text())
    assert 0.0 < drift["l1_drift"] < 0.1
    assert (out / "drift_profile.csv").read_text().splitlines()[0] == "r,v_initial,v_final"


def test_cli_steady_drift_at_mass_zero_builds_no_fhat_table(tmp_path):
    # q = (f + h) / (s**2 - 1) of this admissible model has a repeated root, which an Fhat table
    # refuses; at mass 0 the steady profile is u0 throughout and needs no table
    out = tmp_path / "flat"
    model = "model = custom\nf_coeffs = -0.5, 0, 0.5\nh_coeffs = -3.5, 4, 2.5, -4, 1"
    body = MINIMAL.replace("model = burgers", model).replace("mass = 1.0", "mass = 0.0") \
        .replace("cells = 200", "cells = 50").replace("t_end = 1.0", "t_end = 0.2") \
        + f"\n[steady]\nr0 = 4.0\nu0 = 0.5\n\n[run]\noutput_dir = {out}\n"
    for command in ("check-model", "run", "steady-drift"):
        assert _run_cli(tmp_path, body, command) == 0, command
    rows = np.loadtxt(out / "drift_profile.csv", delimiter=",", skiprows=1)
    assert rows.shape == (50, 3) and np.all(rows[:, 1] == 0.5)
    assert json.loads((out / "steady_drift.json").read_text())["l1_drift"] >= 0.0


def test_cli_converge_summary(tmp_path):
    out = tmp_path / "conv"
    body = MINIMAL + f"""
[converge]
preset = flat
levels = 3

[run]
output_dir = {out}
"""
    assert _run_cli(tmp_path, body, "converge") == 0
    payload = json.loads((out / "convergence.json").read_text())
    assert payload["preset"] == "flat"
    assert payload["pass"] is True
    assert len(payload["levels"]) == 2
    assert all(rec["l1_diff"] == 0.0 for rec in payload["levels"])
    for cells in (100, 200, 400):
        assert (out / f"level_{cells}.csv").exists()


def test_cli_oracle_summary(tmp_path):
    out = tmp_path / "oracle"
    body = MINIMAL + f"""
[oracle]
preset = smooth
cells = 60

[run]
output_dir = {out}
"""
    assert _run_cli(tmp_path, body, "oracle") == 0
    payload = json.loads((out / "oracle.json").read_text())
    assert payload["cells"] == 60
    assert payload["l1_error"] > 0.0
    lines = (out / "oracle_solution.csv").read_text().splitlines()
    assert lines[0] == "r,v,v_exact"
    assert len(lines) == 61


def test_cli_fuzz(tmp_path):
    out = tmp_path / "fuzz"
    body = MINIMAL + f"""
[fuzz]
trials = 2

[run]
seed = 5
output_dir = {out}
"""
    assert _run_cli(tmp_path, body, "fuzz") == 0
    payload = json.loads((out / "fuzz_report.json").read_text())
    assert payload["ok"] is True
    assert payload["trials"] == 2


# custom models in [model] text: f and h as ascending coefficients
CUSTOM_MODELS = {
    "quartic": "model = custom\nf_coeffs = -0.5, 0, 0, 0, 0.5\nh_coeffs = 0",
    "sextic": f"model = custom\nf_coeffs = {-13 / 6!r}, 0, 5.5, 0, -5, 0, {5 / 3!r}\nh_coeffs = 0",
    "shifted": "model = custom\nf_coeffs = 0, 0, 0.5\nh_coeffs = -0.5",
}


def _model_run(tmp_path, model, command, section):
    """Run command on MINIMAL under model (a CUSTOM_MODELS key or "burgers") with the given
    subcommand section; returns the exit status and the output directory."""
    out = tmp_path / f"{command}-{model}"
    body = MINIMAL.replace("model = burgers", CUSTOM_MODELS.get(model, "model = burgers")) \
        + f"\n{section}\n[run]\nseed = 42\noutput_dir = {out}\n"
    return _run_cli(tmp_path, body, command, f"{command}-{model}.ini"), out


def test_cli_oracle_evolves_and_shoots_the_configured_model(tmp_path):
    errors = {}
    for model in ("burgers", "quartic"):
        status, out = _model_run(tmp_path, model, "oracle", "[oracle]\npreset = smooth\ncells = 60")
        assert status == 0, model
        errors[model] = json.loads((out / "oracle.json").read_text())["l1_error"]
    assert 0.0 < errors["quartic"] != errors["burgers"] > 0.0


def test_cli_oracle_refuses_a_model_whose_characteristics_cross_before_t_end(tmp_path):
    status, out = _model_run(tmp_path, "sextic", "oracle", "[oracle]\npreset = smooth\ncells = 60")
    assert status == 1
    report = json.loads((out / "failure_report.json").read_text())
    assert report["error"] == "PresetError"
    assert "characteristic crossing detected before t_end" in report["detail"]
    assert not (out / "oracle.json").exists()


@pytest.mark.parametrize("model", ["quartic", "sextic", "shifted"])
def test_cli_converge_refines_the_configured_model(tmp_path, model):
    # riemann: Kuznetsov's rate 1/2 for a monotone scheme; smooth: the CLI's own threshold
    for preset, threshold in (("smooth", 0.8), ("riemann", 0.5)):
        payloads = []
        for name in (model, "burgers"):
            status, out = _model_run(tmp_path, name, "converge", f"[converge]\npreset = {preset}\nlevels = 3")
            assert status == 0, (name, preset)
            payloads.append(json.loads((out / "convergence.json").read_text()))
        assert payloads[0]["pass"] is True and payloads[0]["observed_order"] >= threshold, (model, preset)
        assert payloads[0]["levels"] != payloads[1]["levels"], (model, preset)


def test_cli_fuzz_runs_the_configured_model(tmp_path):
    reports = {}
    for model in ("burgers", "quartic"):
        status, out = _model_run(tmp_path, model, "fuzz", "[fuzz]\ntrials = 3")
        assert status == 0, model
        reports[model] = json.loads((out / "fuzz_report.json").read_text())
    assert reports["quartic"]["ok"] is True and not reports["quartic"]["violations"]
    assert reports["quartic"]["total_steps"] != reports["burgers"]["total_steps"]


def test_cli_outputs_name_the_model_they_ran(tmp_path, burgers, quartic, shifted):
    # each record rebuilds, by polynomial_model, the model whose f_poly and h_poly the run used
    runs = (("oracle", "[oracle]\npreset = smooth\ncells = 20", "oracle.json"),
            ("converge", "[converge]\npreset = smooth\nlevels = 3", "convergence.json"),
            ("fuzz", "[fuzz]\ntrials = 1", "fuzz_report.json"))
    for m, name in ((burgers, "burgers"), (quartic, "custom"), (shifted, "custom")):
        for command, section, artifact in runs:
            status, out = _model_run(tmp_path, m.name, command, section)
            assert status == 0, (m.name, command)
            record = json.loads((out / artifact).read_text())["model"]
            rebuilt = polynomial_model(record["name"], record["f_coeffs"], record["h_coeffs"])
            assert (rebuilt.name, rebuilt.f_poly, rebuilt.h_poly) == (name, m.f_poly, m.h_poly), (m.name, command)


def test_cli_fuzz_refuses_a_negative_seed_as_a_config_error(tmp_path, capsys):
    out = tmp_path / "out"
    body = MINIMAL + f"\n[fuzz]\ntrials = 1\n\n[run]\nseed = -1\noutput_dir = {out}\n"
    assert _run_cli(tmp_path, body, "fuzz") == 2
    assert capsys.readouterr().err == "config error: run.seed: -1 is not in [0, inf)\n"
    assert not out.exists()


def test_integer_keys_parse_exactly(tmp_path):
    body = MINIMAL + "\n[run]\nseed = 9007199254740993\n[fuzz]\ntrials = 1e3\n"
    cfg = parse_config(write_config(tmp_path, body))
    assert cfg.seed == 2 ** 53 + 1 and cfg.fuzz_trials == 1000
    assert "seed = 9007199254740993\n" in resolved_config_text(cfg)
    with pytest.raises(ConfigError, match=r"^run\.seed: cannot parse '2\.5' as int \(not an integer\)$"):
        parse_config(write_config(tmp_path, MINIMAL + "\n[run]\nseed = 2.5\n"))


def test_config_degree_cap_counts_the_degree_after_trimming_and_names_the_key(tmp_path):
    custom = MINIMAL.replace("model = burgers", "model = custom\nf_coeffs = -0.5, 0, 0.5, 0, 0, 0, 0, 0, 0, 0")
    assert parse_config(write_config(tmp_path, custom)).build_model().f_poly == (-0.5, 0.0, 0.5)
    long_h = custom.replace("model = custom", "model = custom\nh_coeffs = 0, 0, 0, 0, 0, 0, 0, 0, 0, 1")
    with pytest.raises(ConfigError, match=r"^model\.h_coeffs: polynomial degree must be <= 8$"):
        parse_config(write_config(tmp_path, long_h))


def test_cli_fuzz_tau_override_is_config_error(tmp_path):
    body = MINIMAL + "\n[fuzz]\ntrials = 1\ntau_scale = 2.0\n"
    assert _run_cli(tmp_path, body, "fuzz") == 2


def test_cli_refuses_inadmissible_model_before_stepping(tmp_path):
    out = tmp_path / "refused"
    # f = s^2/2, h = 0: f + h vanishes at 0 and is positive elsewhere
    body = MINIMAL.replace("model = burgers", "model = custom\nf_coeffs = 0, 0, 0.5\nh_coeffs = 0") \
        .replace("t_end = 1.0", "t_end = 3\nflux = rusanov") + f"\n[run]\noutput_dir = {out}\n"
    for command in ("run", "converge", "oracle", "fuzz", "steady-drift", "steady"):
        assert _run_cli(tmp_path, body, command) == 1
        report = json.loads((out / "failure_report.json").read_text())
        assert report["error"] == "UnsupportedModelError"
        assert "boundary_roots_ok" in report["detail"]
        assert "interior_negative_ok" in report["detail"]
        (out / "failure_report.json").unlink()
    assert not (out / "snapshots.csv").exists()
    assert _run_cli(tmp_path, body, "check-model") == 1
    assert not (out / "failure_report.json").exists()


def test_cli_characteristics_refuses_inadmissible_model(tmp_path):
    out = tmp_path / "refused_chars"
    # f = s: f + h vanishes at 0 and nowhere near +/-1
    body = MINIMAL.replace("model = burgers", "model = custom\nf_coeffs = 0.0, 1.0\nh_coeffs = 0.0") + f"""
[characteristics]
r0 = 8.0
u0 = 0.6
ds = 0.001
s_max = 1.0

[run]
output_dir = {out}
"""
    assert _run_cli(tmp_path, body, "characteristics") == 1
    report = json.loads((out / "failure_report.json").read_text())
    assert report["error"] == "UnsupportedModelError"
    for flag in ("boundary_roots_ok", "interior_negative_ok", "flux_monotone_shape_ok"):
        assert flag in report["detail"]
    assert not (out / "characteristic.csv").exists()


def test_cli_writes_only_inside_output_dir(tmp_path):
    out = tmp_path / "only"
    body = MINIMAL.replace("t_end = 1.0", "t_end = 0.05").replace("cells = 200", "cells = 40") + f"""
[run]
output_dir = {out}
"""
    cfg_path = write_config(tmp_path, body)
    before = set(p for p in tmp_path.rglob("*") if p.is_file())
    assert main(["run", str(cfg_path)]) == 0
    after = set(p for p in tmp_path.rglob("*") if p.is_file())
    new_files = after - before
    assert new_files
    assert all(out in p.parents for p in new_files)


def config_with(settings: dict) -> str:
    """MINIMAL with each "section.key" of settings set to its value, in its section."""
    sections = {"model": {"model": "burgers"}, "geometry": {"mass": "1.0", "r_max": "12.0", "cells": "200"},
                "evolution": {"t_end": "1.0"}}
    for name, value in settings.items():
        section, key = name.split(".")
        sections.setdefault(section, {})[key] = value
    return "".join(f"[{section}]\n" + "".join(f"{key} = {value}\n" for key, value in keys.items()) + "\n"
                   for section, keys in sections.items())


@pytest.mark.parametrize("command, settings, key, message", [
    ("check-model", {"model.model": "cubic"}, "model.model", "'cubic' is not in ('burgers', 'custom')"),
    ("check-model", {"geometry.mass": "-1"}, "geometry.mass", "-1.0 is not in [0, inf)"),
    ("check-model", {"geometry.r_max": "2"}, "geometry.r_max", "r_max must exceed 2*mass"),
    ("check-model", {"geometry.outer_boundary": "open"}, "geometry.outer_boundary", "must be 'copy' or"),
    ("check-model", {"geometry.outer_boundary": "fixed:low"}, "geometry.outer_boundary", "is not a number"),
    ("check-model", {"evolution.flux": "upwind"}, "evolution.flux", "'upwind' is not in ('godunov', 'eo', 'rusanov')"),
    ("check-model", {"evolution.cfl_fraction": "1.5"}, "evolution.cfl_fraction", "1.5 is not in (0, 1]"),
    ("check-model", {"evolution.t_end": "0"}, "evolution.t_end", "0.0 is not in (0, inf)"),
    ("check-model", {"evolution.snapshot_every": "0"}, "evolution.snapshot_every", "0 is not in [1, inf)"),
    ("check-model", {"initial.kind": "sine"}, "initial.kind",
     "'sine' is not in ('constant', 'riemann', 'bump')"),
    ("check-model", {"initial.constant": "1.5"}, "initial.constant", "1.5 is not in [-1, 1]"),
    ("check-model", {"initial.width": "0"}, "initial.width", "0.0 is not in (0, inf)"),
    ("check-model", {"diagnostics.kruzhkov_levels": "0, 2"}, "diagnostics.kruzhkov_levels",
     "2.0 is not in [-1, 1]"),
    ("check-model", {"diagnostics.kruzhkov_levels": ","}, "diagnostics.kruzhkov_levels", "(empty list)"),
    ("check-model", {"diagnostics.entropy_diagnostics": "maybe"}, "diagnostics.entropy_diagnostics",
     "(not a boolean)"),
    ("check-model", {"characteristics.ds": "0"}, "characteristics.ds", "0.0 is not in (0, inf)"),
    ("check-model", {"characteristics.s_max": "-1"}, "characteristics.s_max", "-1.0 is not in (0, inf)"),
    ("check-model", {"characteristics.coordinates": "polar"}, "characteristics.coordinates",
     "'polar' is not in ('exterior', 'interior')"),
    ("check-model", {"characteristics.u0": "1.5"}, "characteristics.u0", "1.5 is not in [-1, 1]"),
    ("check-model", {"steady.u0": "0"}, "steady.u0", "u0 must be nonzero"),
    ("check-model", {"converge.preset": "shock"}, "converge.preset",
     "'shock' is not in ('smooth', 'riemann', 'flat')"),
    ("check-model", {"converge.levels": "2"}, "converge.levels", "2 is not in [3, 17]"),
    ("check-model", {"oracle.preset": "shock"}, "oracle.preset",
     "'shock' is not in ('smooth', 'riemann', 'flat')"),
    ("check-model", {"oracle.cells": "1"}, "oracle.cells", "1 is not in [2, 10000000]"),
    ("check-model", {"fuzz.trials": "0"}, "fuzz.trials", "0 is not in [1, inf)"),
    ("characteristics", {"model.model": "custom", "model.f_coeffs": "-1, 0, 1",
                         "characteristics.coordinates": "interior"},
     "characteristics.coordinates", "=interior supports only the burgers model"),
    ("characteristics", {"characteristics.coordinates": "interior", "characteristics.interior_shift": "2"},
     "characteristics.interior_shift", "must lie in (0, mass]"),
    ("check-model", {"steady.u0": "0.99999999999"}, "steady.u0", "|u0| <= 1 - 1e-09"),
    ("steady", {"steady.r0": "1.5"}, "steady.r0", "r0 must exceed 2.0, got 1.5"),
    ("steady-drift", {"steady.r0": "1.5"}, "steady.r0", "r0 must exceed 2.0, got 1.5"),
    ("characteristics", {"characteristics.r0": "2.0000001"}, "characteristics.r0", "r0 must exceed 2.000002"),
    ("check-model", {"model.f_coeffs": "-1, 0, 1"}, "model.f_coeffs",
     "(-1.0, 0.0, 1.0) is not Burgers' (-0.5, 0.0, 0.5); set model = custom to use it"),
    ("run", {"model.h_coeffs": "0, 0.5"}, "model.h_coeffs", "(0.0, 0.5) is not Burgers' (0.0,)"),
])
def test_cli_refuses_each_bad_key_as_a_config_error(tmp_path, capsys, command, settings, key, message):
    body = config_with({**settings, "run.output_dir": str(tmp_path / "out")})
    assert _run_cli(tmp_path, body, command) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {key}") and message in err, err


def test_cli_refuses_an_unreadable_or_malformed_config_file(tmp_path, capsys):
    assert main(["check-model", str(tmp_path)]) == 2  # a directory cannot be read as a file
    assert capsys.readouterr().err.startswith(f"config error: cannot read config {tmp_path}: ")
    assert _run_cli(tmp_path, "cells = 200\n" + MINIMAL, "check-model") == 2  # a key before any section
    assert capsys.readouterr().err.startswith("config error: malformed config: ")


@pytest.mark.parametrize("key, value, limit", [
    ("geometry.cells", "100000000000000000000", "cells <= 10000000"),
    ("oracle.cells", "100000000000000000000", "cells <= 10000000"),
    ("oracle.cells", "10000001", "cells <= 10000000"),
    ("converge.levels", "18", "levels <= 17"),
])
def test_config_caps_the_mesh_sizes_it_accepts(tmp_path, key, value, limit):
    # the largest accepted values parse; one beyond them is refused by name, with the cap as the set's upper end
    largest = config_with({"geometry.cells": "10000000", "oracle.cells": "10000000", "converge.levels": "17"})
    largest = parse_config(write_config(tmp_path, largest))
    assert (largest.cells, largest.oracle_cells, largest.converge_levels) == (10 ** 7, 10 ** 7, 17)
    low, cap = {"geometry.cells": 2, "oracle.cells": 2, "converge.levels": 3}[key], limit.split(" <= ")[1]
    with pytest.raises(ConfigError, match=rf"^{re.escape(key)}: {value} is not in \[{low}, {cap}\]$"):
        parse_config(write_config(tmp_path, config_with({key: value})))


def _declared_sets():
    for f in fields(RunConfig):
        if f.metadata["admits"] is not None:
            yield pytest.param(f, id=f"{f.metadata['section']}.{f.metadata['key'] or f.name}")


def _ends(f):
    """The values of f's kind at the ends of its declared set that it admits, and those just
    outside it: each choice and an unlisted one; each closed end and the next value beyond it
    (nextafter for floats, +-1 for ints), and each open end itself."""
    admits = f.metadata["admits"]
    if isinstance(admits, tuple):
        return list(admits), ["unlisted"]
    inside, outside = [], []
    ends = map(float, admits[1:-1].split(", "))
    for end, closed, outward in zip(ends, (admits[0] == "[", admits[-1] == "]"), (-1, 1)):
        if math.isinf(end):
            continue
        if f.type == "int":
            end, beyond = int(end), int(end) + outward
        else:
            beyond = math.nextafter(end, outward * math.inf)
        (inside if closed else outside).append(end)
        if closed:
            outside.append(beyond)
    return inside, outside


@pytest.mark.parametrize("f", _declared_sets())
def test_each_declared_set_admits_its_closed_ends_and_refuses_just_beyond(tmp_path, f):
    key = f"{f.metadata['section']}.{f.metadata['key'] or f.name}"
    inside, outside = _ends(f)
    assert outside
    for value in inside:
        cfg = parse_config(write_config(tmp_path, config_with({key: str(value)})))
        assert getattr(cfg, f.name) in (value, (value,))
    for value in outside:
        with pytest.raises(ConfigError) as err:
            parse_config(write_config(tmp_path, config_with({key: repr(value) if f.type != "str" else value})))
        assert str(err.value) == f"{key}: {value!r} is not in {f.metadata['admits']}"


def test_readme_config_table_lists_every_key_with_its_default_and_declared_set():
    def shown(value):
        return (str(value).lower() if isinstance(value, bool) else
                ", ".join(map(str, value)) if isinstance(value, tuple) else str(value))

    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("### Config format\n")[1].split("\n## ")[0]
    rows = [[cell.strip() for cell in line.strip("|").split("|")] for line in section.splitlines()
            if line.startswith("| `")]
    declared = [[f"`{section}.{key}`", f"`{shown(RunConfig.__dataclass_fields__[attr].default)}`",
                 "" if admits is None else f"`{admits}`"] for (section, key), (attr, _, admits) in _KEYS.items()]
    assert rows == declared


@pytest.mark.parametrize("make", ["under a file", "a file"])
def test_cli_refuses_an_output_dir_it_cannot_create_as_a_config_error(tmp_path, capsys, make):
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    out = blocker / "out" if make == "under a file" else blocker
    assert _run_cli(tmp_path, config_with({"run.output_dir": str(out)}), "check-model") == 2
    assert capsys.readouterr().err.startswith(f"config error: run.output_dir: cannot write into {out}: ")
    assert blocker.read_text() == ""
