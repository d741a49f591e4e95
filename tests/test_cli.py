import json
import re
from dataclasses import fields
from itertools import groupby
from pathlib import Path

import numpy as np
import pytest

from horizonfv import Background, ConfigError, StateVector, build_uniform_mesh, numerical_flux, run
from horizonfv.cli import _CSV_BLOCK_ROWS, _write_csv, _write_snapshots, main
from horizonfv.config import RunConfig, parse_config, resolved_config_text

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
    assert "cells" in str(err.value)
    assert ">= 2" in str(err.value)


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
    outer = cfg.build_outer_boundary()
    assert outer.kind == "fixed" and outer.value == 0.25
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
    result = run(mesh, model, numerical_flux(cfg.flux, model), v0=cfg.build_v0(), t_end=cfg.t_end,
                 cfl_fraction=cfg.cfl_fraction, snapshot_every=cfg.snapshot_every,
                 outer=cfg.build_outer_boundary())
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


def test_snapshot_writer_matches_per_value_writer(tmp_path):
    # more cells than one row block, and states at -0.0, +-1 and subnormals
    mesh = build_uniform_mesh(Background(1.0), 12.0, _CSV_BLOCK_ROWS + 5)
    special = np.array([-0.0, 1.0, -1.0, 5e-324, -5e-324, 2.2250738585072014e-308, 0.0])
    values = np.resize(special, mesh.n_cells)
    values[_CSV_BLOCK_ROWS - 2:_CSV_BLOCK_ROWS + 2] = (-1.0, -0.0, 5e-324, 1.0)
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
    [(0.1 * i, np.float64(i) / 7.0) for i in range(2 * _CSV_BLOCK_ROWS + 3)],
    [],
])
def test_write_csv_matches_per_value_writer(tmp_path, rows):
    header = "h"
    path = tmp_path / "table.csv"
    _write_csv(path, header, np.array(rows, dtype=float).T)
    assert path.read_text() == reference_csv(header, rows)


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


def test_cli_fuzz_tau_override_is_config_error(tmp_path):
    body = MINIMAL + "\n[fuzz]\ntrials = 1\ntau_scale = 2.0\n"
    assert _run_cli(tmp_path, body, "fuzz") == 2


def test_cli_refuses_inadmissible_model_before_stepping(tmp_path):
    out = tmp_path / "refused"
    # f = s^2/2, h = 0: f + h vanishes at 0 and is positive elsewhere
    body = MINIMAL.replace("model = burgers", "model = custom\nf_coeffs = 0, 0, 0.5\nh_coeffs = 0") \
        .replace("t_end = 1.0", "t_end = 3\nflux = rusanov") + f"\n[run]\noutput_dir = {out}\n"
    for command in ("run", "converge", "steady-drift", "steady"):
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
