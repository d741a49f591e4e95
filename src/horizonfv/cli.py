"""Config-driven command line front end.

Subcommands: run, converge, oracle, steady-drift, characteristics, steady,
fuzz, check-model.  Each takes a config file, writes its artifacts (plus
the resolved configuration) into the configured output directory, and
exits 0 on success, 1 on an invariant violation (with a failure report
written), 2 on a configuration error.  Numeric CSV output carries 17
significant digits so doubles round-trip losslessly; identical configs and
seeds reproduce identical bytes.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import entropy as entropy_mod
from .characteristics import (
    CharState,
    build_fhat_table,
    exterior_invariant,
    interior_invariant,
    steady_profile,
    trace_exterior,
    trace_interior,
)
from .config import RunConfig, parse_config, resolved_config_text
from .errors import ConfigError, HorizonFVError
from .geometry import Background, build_uniform_mesh
from .harness import (
    exact_solution_by_shooting,
    fuzz_invariants,
    presets,
    run_preset,
    self_convergence,
    steady_drift_detail,
)
from .scheme import numerical_flux, run

_FMT = "%.17g"
_CSV_BLOCK_ROWS = 4096

_CONVERGE_THRESHOLDS = {"smooth": 0.8, "riemann": 0.5, "flat": None}


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_csv(path: Path, header: str, columns: np.ndarray) -> None:
    """Write columns (a 2-D array whose rows are the table's columns) as
    "%.17g" fields under header.  One % call formats a block of
    _CSV_BLOCK_ROWS rows, which keeps the temporaries, and so the peak
    memory, small on long tables."""
    table = np.asarray(columns, dtype=np.float64).T
    with open(path, "w") as fh:
        fh.write(header + "\n")
        if table.size:
            line = ",".join([_FMT] * table.shape[1]) + "\n"
            for start in range(0, table.shape[0], _CSV_BLOCK_ROWS):
                block = table[start:start + _CSV_BLOCK_ROWS]
                fh.write((line * block.shape[0]) % tuple(block.ravel().tolist()))


def _write_snapshots(path: Path, snapshots, centers: np.ndarray) -> None:
    """snapshots.csv: a (t, r, v) row per snapshot and cell, as _write_csv
    writes them.  The radii are formatted once and each time once per
    snapshot, so a row formats only v; a block of _CSV_BLOCK_ROWS rows is
    formatted and written at a time."""
    radii = centers.tolist()
    blocks = []  # (first row, template of its rows with the time and v left open)
    for start in range(0, len(radii), _CSV_BLOCK_ROWS):
        rows = ["%s," + _FMT % r + "," + _FMT + "\n" for r in radii[start:start + _CSV_BLOCK_ROWS]]
        blocks.append((start, "".join(rows)))
    with open(path, "w") as fh:
        fh.write("t,r,v\n")
        for snap in snapshots:
            time_text = _FMT % snap.time
            values = snap.values.tolist()
            for start, template in blocks:
                block = values[start:start + _CSV_BLOCK_ROWS]
                fields = [time_text] * (2 * len(block))
                fields[1::2] = block
                fh.write(template % tuple(fields))


def _prepare_outdir(cfg: RunConfig) -> Path:
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "resolved_config.ini").write_text(resolved_config_text(cfg))
    return out


def _cmd_run(cfg: RunConfig, out: Path) -> int:
    model = cfg.build_model().require_admissible()
    mesh = build_uniform_mesh(Background(cfg.mass), cfg.r_max, cfg.cells)
    nf = numerical_flux(cfg.flux, model)

    ledger_rows = []

    def ledger(state_before, state_after, report):
        entry = entropy_mod.cell_entropy_residuals(state_before, state_after, report, mesh, model, nf,
                                                   cfg.kruzhkov_levels)
        for k, worst in zip(cfg.kruzhkov_levels, entry.worst_residuals.tolist()):
            ledger_rows.append((state_after.step_index, k, worst, entry.global_balance_gap,
                                entry.dissipation_sum))

    result = run(mesh, model, nf, v0=cfg.build_v0(), t_end=cfg.t_end, cfl_fraction=cfg.cfl_fraction,
                 snapshot_every=cfg.snapshot_every, outer=cfg.build_outer_boundary(),
                 on_step=ledger if cfg.entropy_diagnostics else None)

    _write_snapshots(out / "snapshots.csv", result.snapshots, mesh.centers)
    if cfg.entropy_diagnostics:
        _write_csv(out / "entropy_ledger.csv", "step,k,worst_residual,balance_gap,dissipation_sum",
                   np.array(ledger_rows, dtype=float).T)

    summary = {
        "t_end": cfg.t_end,
        "steps": result.steps,
        "tau_base": result.tau_base,
        "clamped_cells": result.clamped_cells,
        "snapshots": len(result.snapshots),
    }
    if cfg.entropy_diagnostics:
        summary["worst_entropy_residual"] = max([-np.inf] + [row[2] for row in ledger_rows])
    _write_json(out / "summary.json", summary)
    return 0


def _cmd_check_model(cfg: RunConfig, out: Path) -> int:
    model = cfg.build_model()
    report = model.structure
    payload = {"model": model.name, **vars(report), "ok": report.all_ok}
    _write_json(out / "structure_report.json", payload)
    sys.stdout.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return 0 if report.all_ok else 1


def _cmd_characteristics(cfg: RunConfig, out: Path) -> int:
    if cfg.coordinates == "exterior":
        model = cfg.build_model().require_admissible()
        start = CharState(s=0.0, t=0.0, r=cfg.char_r0, u=cfg.char_u0)
        path = trace_exterior(model, cfg.mass, start, cfg.char_ds, cfg.char_s_max,
                              r_stop=cfg.char_r_stop)
        table = build_fhat_table(model)
        inv = exterior_invariant(table, cfg.mass, path)
    else:
        if cfg.model != "burgers":
            raise ConfigError("characteristics.coordinates=interior supports only the burgers model")
        if not 0.0 < cfg.interior_shift <= cfg.mass:
            raise ConfigError(
                f"characteristics.interior_shift must lie in (0, mass]; got {cfg.interior_shift} with mass {cfg.mass}")
        path = trace_interior(cfg.mass, cfg.interior_shift, (0.0, cfg.char_r0, cfg.char_u0),
                              cfg.char_ds, cfg.char_s_max, r_stop=cfg.char_r_stop)
        inv = interior_invariant(cfg.mass, path)
    _write_csv(out / "characteristic.csv", "s,t,r,u,invariant",
               np.array((path.s, path.t, path.r, path.u, inv)))
    _write_json(out / "summary.json", {
        "coordinates": cfg.coordinates,
        "samples": len(path),
        "stop_reason": path.stop_reason,
        "invariant_drift": float(np.max(np.abs(inv - inv[0]))),
    })
    return 0


def _cmd_steady(cfg: RunConfig, out: Path) -> int:
    model = cfg.build_model().require_admissible()
    mesh = build_uniform_mesh(Background(cfg.mass), cfg.r_max, cfg.cells)
    table = build_fhat_table(model)
    profile = steady_profile(table, cfg.mass, cfg.steady_r0, cfg.steady_u0, mesh.centers)
    _write_csv(out / "steady.csv", "r,u", np.array((mesh.centers, profile)))
    return 0


def _cmd_converge(cfg: RunConfig, out: Path) -> int:
    cfg.build_model().require_admissible()  # the config is refused as a whole, though converge evolves a preset
    preset = presets()[cfg.converge_preset]
    result = self_convergence(preset, cfg.converge_levels)
    threshold = _CONVERGE_THRESHOLDS[cfg.converge_preset]
    if threshold is None:
        passed = all(rec.l1_diff <= 1e-13 for rec in result.levels)
    else:
        passed = bool(result.observed_order >= threshold)
    payload = {
        "preset": cfg.converge_preset,
        "levels": [{"cells": rec.cells, "tau": rec.tau, "l1_diff": rec.l1_diff}
                   for rec in result.levels],
        "observed_order": None if np.isnan(result.observed_order) else result.observed_order,
        "order_threshold": threshold,
        "pass": passed,
    }
    _write_json(out / "convergence.json", payload)
    for cells, centers, values in result.finals:
        _write_csv(out / f"level_{cells}.csv", "r,v", np.array((centers, values)))
    return 0 if passed else 1


def _cmd_oracle(cfg: RunConfig, out: Path) -> int:
    preset = presets()[cfg.oracle_preset]
    mesh, result = run_preset(preset, cfg.oracle_cells)
    exact = exact_solution_by_shooting(preset.model, preset.mass, preset.v0, preset.t_end,
                                       mesh.centers)
    error = float(np.sum(mesh.widths * np.abs(result.final.values - exact)))
    _write_csv(out / "oracle_solution.csv", "r,v,v_exact",
               np.array((mesh.centers, result.final.values, exact)))
    _write_json(out / "oracle.json", {
        "preset": cfg.oracle_preset,
        "cells": cfg.oracle_cells,
        "l1_error": error,
    })
    return 0


def _cmd_steady_drift(cfg: RunConfig, out: Path) -> int:
    model = cfg.build_model().require_admissible()
    drift, mesh, profile, final = steady_drift_detail(
        model, cfg.mass, cfg.steady_r0, cfg.steady_u0, cfg.cells, cfg.t_end,
        r_max=cfg.r_max, flux_kind=cfg.flux, cfl_fraction=cfg.cfl_fraction)
    _write_csv(out / "drift_profile.csv", "r,v_initial,v_final",
               np.array((mesh.centers, profile, final)))
    _write_json(out / "steady_drift.json", {
        "r0": cfg.steady_r0,
        "u0": cfg.steady_u0,
        "cells": cfg.cells,
        "t_end": cfg.t_end,
        "l1_drift": drift,
    })
    return 0


def _cmd_fuzz(cfg: RunConfig, out: Path) -> int:
    report = fuzz_invariants(cfg.fuzz_trials, cfg.seed, tau_scale=cfg.fuzz_tau_scale)
    _write_json(out / "fuzz_report.json", report.to_dict())
    return 0 if report.ok else 1


_COMMANDS = {
    "run": _cmd_run,
    "check-model": _cmd_check_model,
    "characteristics": _cmd_characteristics,
    "steady": _cmd_steady,
    "converge": _cmd_converge,
    "oracle": _cmd_oracle,
    "steady-drift": _cmd_steady_drift,
    "fuzz": _cmd_fuzz,
}


def dispatch(subcommand: str, cfg: RunConfig) -> int:
    """Execute one subcommand pipeline; returns the process exit status."""
    if subcommand not in _COMMANDS:
        raise ConfigError(f"unknown subcommand {subcommand!r}")
    out = _prepare_outdir(cfg)
    try:
        return _COMMANDS[subcommand](cfg, out)
    except ConfigError:
        raise
    except HorizonFVError as exc:
        _write_json(out / "failure_report.json", {
            "subcommand": subcommand,
            "error": type(exc).__name__,
            "detail": str(exc),
        })
        sys.stderr.write(f"error: {exc}\n")
        return 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="horizonfv",
        description="Finite volume solver and diagnostics for scalar balance laws on a black hole exterior",
    )
    parser.add_argument("command", choices=_COMMANDS, help="the subcommand to run")
    parser.add_argument("config", help="path to the configuration file")
    args = parser.parse_args(argv)
    try:
        cfg = parse_config(args.config)
        return dispatch(args.command, cfg)
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
