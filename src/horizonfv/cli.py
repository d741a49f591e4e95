"""Config-driven command line front end.

Subcommands: run, converge, oracle, steady-drift, characteristics, steady,
fuzz, check-model.  Each takes a config file, writes its artifacts (plus
the resolved configuration) into the configured output directory, and
exits 0 on success, 1 on an invariant violation (with a failure report
written), 2 on a configuration error.  Numeric CSV output carries 17
significant digits so doubles round-trip losslessly; identical configs and
seeds reproduce identical bytes.  Each number is written exactly as
Python's "%.17g" writes it: one with 1e-4 <= |x| < 1e17 by an exact
vectorised formatter (_format_g17), every other one by Python's % itself.
The writers format blocks of whole rows, at most _CSV_BLOCK numbers, in
one call each; every text, NUL-padded to 24 bytes, goes into a reused
rows buffer followed by its separator byte, and a block is written with
the padding deleted.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import entropy as entropy_mod
from .characteristics import (
    _HORIZON_GUARD,
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
from .model import BURGERS_COEFFS, FluxModel, _trimmed
from .scheme import numerical_flux, project_initial, run

_CSV_BLOCK = 2048  # at most this many numbers in a block of the CSV writers

_CONVERGE_THRESHOLDS = {"smooth": 0.8, "riemann": 0.5, "flat": None}

# _format_g17 writes an x with 1e-4 <= |x| < 1e17 as %.17g does, in fixed
# notation: the 17 digits of D = round(|x| * 10**(16 - k)), k = floor(log10 |x|)
# in [-4, 16], with the point after digit k + 1.  D is a first digit d0 and a
# tail of four 4-digit groups.  The text of a value is three little-endian
# uint64 words, laid out from tables indexed by c = 2 * (k + 4) + (x < 0).
_VELTKAMP = 134217729.0  # 2**27 + 1


def _veltkamp_split(a):
    """a as high + low, each with at most 26 significant bits (Dekker 1971)."""
    c = _VELTKAMP * a
    high = c - (c - a)
    return high, a - high


_SCALE = np.array([float(10 ** p) for p in range(20, -1, -1)])  # 10**(16 - k) at k + 4, exact as p <= 22
_SCALE_HIGH, _SCALE_LOW = _veltkamp_split(_SCALE)


def _exponent_tables():
    """k + 4 is _K_GUESS[e] + (|x| >= _K_NEXT[e]) for the biased binary
    exponent e of an x with 1e-4 <= |x| < 1e17, or one off where a power of
    ten is not a double; _format_g17 tests it exactly."""
    ks = [min(max(math.floor((e - 1023) * math.log10(2.0)), -4), 16) for e in range(1009, 1080)]
    guess, above = np.zeros(2048, np.intp), np.full(2048, np.inf)
    guess[1009:1080] = [k + 4 for k in ks]  # the binades that meet [1e-4, 1e17)
    above[1009:1080] = [10.0 ** (k + 1) for k in ks]
    return guess, above


_K_GUESS, _K_NEXT = _exponent_tables()


def _group_tables():
    """For the 4-digit groups 0000 to 9999: the ASCII text in the low four
    bytes of a word, first digit lowest; and for each of the four group
    slots of the tail, the 1-based position in the tail of the group's last
    nonzero digit (0 for 0000)."""
    text = np.zeros((10, 10, 10, 10, 8), np.uint8)
    last = np.zeros((4, 10, 10, 10, 10), np.uint8)
    for i in range(4):  # digit i of a group; later digits overwrite the positions of earlier ones
        text[..., i] = np.arange(48, 58, dtype=np.uint8).reshape((10,) + (1,) * (3 - i))
        nonzero = (slice(None),) * (i + 1) + (slice(1, None),)
        last[nonzero] = np.arange(i + 1, 17, 4, dtype=np.uint8).reshape(4, 1, 1, 1, 1)
    return text.view("<u8").astype(np.uint64).ravel(), last.ravel()


_GROUP_TEXT, _GROUP_LAST = _group_tables()
_GROUP_SLOT = np.arange(0, 40000, 10000)[:, None]
_DIGIT_TEXT = np.arange(48, 59, dtype=np.uint64)  # d0 in ASCII; 10 is the d0 of a D that the exact test refuses


def _layouts():
    """Per layout c: the fixed bytes (sign, the "0." and zeros before d0
    of a k < 0, the point of a k >= 0) as three words, the two words that
    mask the tail digits before the point, the shifts in bits of d0, of the
    tail part before the point, of the part after it and their complements
    to 64, and the text length for each 1-based position of the tail's last
    nonzero digit."""
    fixed, masks, shifts, lengths = b"", b"", [], []
    for k in range(-4, 17):
        for sign in (b"", b"-"):
            head = sign + (b"0." + b"0" * (-1 - k) if k < 0 else b"") + b"\0"  # d0 last
            fixed += (head + b"\0" * k + b"." if k >= 0 else head).ljust(24, b"\0")
            h, before, point = len(head), max(k, 0), int(k >= 0)  # tail digits before the point; point in tail
            masks += (b"\xff" * before).ljust(16, b"\0")
            shifts.append((8 * h - 8, 8 * h, 8 * (h + point), 64 - 8 * h, 64 - 8 * (h + point)))
            lengths += [h + before] * (before + 1) + list(range(h + before + 1 + point, h + 17 + point))
    return (np.frombuffer(fixed, "<u8").reshape(42, 3).T.astype(np.uint64),
            np.frombuffer(masks, "<u8").reshape(42, 2).T.astype(np.uint64),
            np.array(shifts, dtype=np.uint64).T.copy(), np.array(lengths))


_FIXED, _BEFORE_POINT, _SHIFTS, _LENGTH = _layouts()
_LENGTH_MASK = np.frombuffer(b"".join([(b"\xff" * n).ljust(24, b"\0") for n in range(25)]), "<u8").reshape(25, 3)
_LENGTH_MASK = _LENGTH_MASK.astype(np.uint64)


def _format_g17(values: np.ndarray) -> np.ndarray:
    """The bytes of b"%.17g" % x for each x of values, as an "S24" array.

    For 1e-4 <= |x| < 1e17 the text is computed on the whole array:
    y = |x| * 10**(16 - k) is formed exactly as hi + lo by Dekker's
    TwoProduct (Ogita, Rump and Oishi 2005), D = hi + rint(lo) rounds it
    half to even (hi > 2**53 is an even integer), and the digits of D come
    from a table of 4-digit groups.  Python's % formats every other value
    (0, NaN, inf, subnormals, other magnitudes) and the few whose k is off
    by one or whose D would carry to 10**17."""
    x = np.asarray(values, dtype=np.float64).ravel()
    mag = np.abs(x)
    fast = (mag >= 1e-4) & (mag < 1e17)
    negative = x < 0.0
    if not fast.all():
        mag, negative = mag[fast], negative[fast]
    k, digits, sure = _decimal_digits(mag)
    d0, tail_1, tail_2, last = _digit_words(digits)

    c = 2 * k + negative
    before_1, before_2 = tail_1 & _BEFORE_POINT[0].take(c), tail_2 & _BEFORE_POINT[1].take(c)
    after_1, after_2 = tail_1 ^ before_1, tail_2 ^ before_2
    sd, sb, sa, cb, ca = (shift.take(c) for shift in _SHIFTS)  # a shift by 64 gives 0
    words = np.empty((digits.size, 3), np.uint64)
    words[:, 0] = _FIXED[0].take(c) | _DIGIT_TEXT.take(d0) << sd | before_1 << sb | after_1 << sa
    words[:, 1] = _FIXED[1].take(c) | before_2 << sb | before_1 >> cb | after_2 << sa | after_1 >> ca
    words[:, 2] = _FIXED[2].take(c) | before_2 >> cb | after_2 >> ca
    words &= _LENGTH_MASK.take(_LENGTH.take(17 * c + last), axis=0)
    text = words.astype("<u8", copy=False).view("S24").ravel()

    slow = ~fast
    if not sure.all():
        slow[np.flatnonzero(fast)[~sure]] = True
    if not slow.any():
        return text
    out = np.empty(x.size, "S24")
    out[fast] = text
    out[slow] = [b"%.17g" % v for v in x[slow].tolist()]
    return out


def _decimal_digits(mag: np.ndarray):
    """k + 4, D = round(mag * 10**(16 - k)) half to even, and where both
    are right: the exact product mag * 10**(16 - k) = hi + lo lies in
    [1e16, 10**17) and D cannot carry to 10**17."""
    e = mag.view(np.uint64) >> 52
    k = _K_GUESS.take(e) + (mag >= _K_NEXT.take(e))
    hi = mag * _SCALE.take(k)
    mag_high, mag_low = _veltkamp_split(mag)
    scale_high, scale_low = _SCALE_HIGH.take(k), _SCALE_LOW.take(k)
    lo = mag_low * scale_low - (((hi - mag_high * scale_high) - mag_low * scale_high) - mag_high * scale_low)
    # exact tests: hi + lo >= 1e16, so k is not too big; hi < 10**17 - 16, so D <= 10**17 - 24
    sure = ((hi - 1e16) + lo >= 0.0) & (hi < 99999999999999984.0)
    return k, hi.astype(np.int64) + np.rint(lo).astype(np.int64), sure


def _digit_words(digits: np.ndarray):
    """The first digit d0 of each 17-digit D, its 16-digit tail as two
    words of ASCII (first digit lowest), and the 1-based position in the
    tail of its last nonzero digit."""
    d0 = digits // 10 ** 16
    n = digits.size
    halves = np.empty((2, n), np.int64)
    tail = digits - d0 * 10 ** 16
    halves[0] = tail // 10 ** 8
    halves[1] = tail - halves[0] * 10 ** 8
    groups = np.empty((2, 2, n), np.int64)
    groups[:, 0] = halves // 10000
    groups[:, 1] = halves - groups[:, 0] * 10000
    groups = groups.reshape(4, n)
    text = _GROUP_TEXT.take(groups)
    last = np.maximum.reduce(_GROUP_LAST.take(groups + _GROUP_SLOT))
    return d0, text[0] | text[1] << 32, text[2] | text[3] << 32, last


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _model_record(m: FluxModel) -> dict:
    """The model a run built, as its outputs name it: what polynomial_model rebuilds it from."""
    return {"name": m.name, "f_coeffs": list(m.f_poly), "h_coeffs": list(m.h_poly)}


def _rows_buffer(rows: int, columns: int):
    """A bytearray of rows lines of columns fields and its (rows, columns, 25) uint8 view: each field
    is a 24-byte text slot followed by its separator, a comma or, after the last column, a newline.
    No text holds a NUL, so the lines with their NULs deleted are the fields' texts and separators."""
    raw = bytearray(rows * columns * 25)
    fields = np.frombuffer(raw, np.uint8).reshape(rows, columns, 25)
    fields[:, :, 24] = ord(",")
    fields[:, -1, 24] = ord("\n")
    return raw, fields


def _texts(values: np.ndarray) -> np.ndarray:
    """_format_g17 of values as uint8, shaped values.shape + (24,): each text NUL-padded to 24 bytes."""
    return _format_g17(values).view(np.uint8).reshape(values.shape + (24,))


def _write_csv(path: Path, header: str, columns: np.ndarray) -> None:
    """Write columns (a 2-D array whose rows are the table's columns) under
    header, each number as b"%.17g" % x writes it.  A block of whole rows,
    at most _CSV_BLOCK numbers (one row if a row is longer), is formatted
    row by row in one _format_g17 call into one reused rows buffer and
    written with its padding deleted; bounding the block by numbers keeps
    the temporaries, and so the peak memory, small on long tables."""
    columns = np.asarray(columns, dtype=np.float64)
    with open(path, "wb") as fh:
        fh.write(header.encode() + b"\n")
        if columns.size:
            n_columns, n_rows = columns.shape
            step = max(_CSV_BLOCK // n_columns, 1)
            raw, fields = _rows_buffer(min(step, n_rows), n_columns)
            for start in range(0, n_rows, step):
                block = columns[:, start:start + step].T
                fields[:len(block), :, :24] = _texts(block)
                fh.write(raw[:block.size * 25].translate(None, b"\0"))


def _write_snapshots(path: Path, snapshots, centers: np.ndarray) -> None:
    """snapshots.csv: a (t, r, v) row per snapshot and cell, as _write_csv
    writes them.  The radii are formatted once per mesh and the times once,
    so a row formats only v.  A block of _CSV_BLOCK // 2 rows, half of
    _write_csv's as the radii of the whole mesh are held beside it, is
    formatted in one call into one reused rows buffer and written with its
    padding deleted."""
    n, step = centers.size, _CSV_BLOCK // 2
    radii = np.empty((n, 24), np.uint8)
    for start in range(0, n, step):
        radii[start:start + step] = _texts(centers[start:start + step])
    times = _texts(np.array([snap.time for snap in snapshots]))
    raw, fields = _rows_buffer(min(n, step), 3)
    with open(path, "wb") as fh:
        fh.write(b"t,r,v\n")
        for snap, time_text in zip(snapshots, times):
            fields[:, 0, :24] = time_text
            for start in range(0, n, step):
                values = snap.values[start:start + step]
                fields[:values.size, 1, :24] = radii[start:start + step]
                fields[:values.size, 2, :24] = _texts(values)
                fh.write(raw[:values.size * 75].translate(None, b"\0"))


def _prepare_outdir(cfg: RunConfig) -> Path:
    out = Path(cfg.output_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        (out / "resolved_config.ini").write_text(resolved_config_text(cfg))
    except OSError as exc:
        raise ConfigError(f"run.output_dir: cannot write into {out}: {exc}") from None
    return out


def _cmd_run(cfg: RunConfig, out: Path) -> int:
    nf = numerical_flux(cfg.flux, cfg.build_model())
    mesh = build_uniform_mesh(Background(cfg.mass), cfg.r_max, cfg.cells)

    ledger_rows = []

    def ledger(state_after, report):
        entry = entropy_mod.cell_entropy_residuals(state_after, report, mesh, nf, cfg.kruzhkov_levels)
        for k, worst in zip(cfg.kruzhkov_levels, entry.worst_residuals.tolist()):
            ledger_rows.append((state_after.step_index, k, worst, entry.global_balance_gap,
                                entry.dissipation_sum))

    values, clamped = project_initial(mesh, cfg.build_v0())
    result = run(mesh, nf, values, t_end=cfg.t_end, cfl_fraction=cfg.cfl_fraction,
                 snapshot_every=cfg.snapshot_every, outer_ghost=cfg.outer_ghost(),
                 on_step=ledger if cfg.entropy_diagnostics else None)

    _write_snapshots(out / "snapshots.csv", result.snapshots, mesh.centers)
    if cfg.entropy_diagnostics:
        _write_csv(out / "entropy_ledger.csv", "step,k,worst_residual,balance_gap,dissipation_sum",
                   np.array(ledger_rows, dtype=float).T)

    summary = {
        "t_end": cfg.t_end,
        "steps": result.steps,
        "tau_base": result.tau_base,
        "clamped_cells": clamped,
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


def _require_outside_horizon(key: str, r0: float, horizon: float) -> None:
    if not r0 > horizon:
        raise ConfigError(f"{key}: r0 must exceed {horizon}, got {r0}")


def _cmd_characteristics(cfg: RunConfig, out: Path) -> int:
    _require_outside_horizon("characteristics.r0", cfg.char_r0, 2.0 * cfg.mass * (1.0 + _HORIZON_GUARD))
    if cfg.coordinates == "exterior":
        table = build_fhat_table(cfg.build_model())  # refuses an inadmissible model before the trace
        start = CharState(s=0.0, t=0.0, r=cfg.char_r0, u=cfg.char_u0)
        path = trace_exterior(table.model, cfg.mass, start, cfg.char_ds, cfg.char_s_max,
                              r_stop=cfg.char_r_stop)
        inv = exterior_invariant(table, cfg.mass, path)
    else:
        # Burgers by the f_poly and h_poly build_model would give, under either model, without certifying one
        if (_trimmed(cfg.f_coeffs), _trimmed(cfg.h_coeffs)) != BURGERS_COEFFS:
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
    _require_outside_horizon("steady.r0", cfg.steady_r0, 2.0 * cfg.mass)
    mesh = build_uniform_mesh(Background(cfg.mass), cfg.r_max, cfg.cells)
    table = build_fhat_table(cfg.build_model())
    profile = steady_profile(table, cfg.mass, cfg.steady_r0, cfg.steady_u0, mesh.centers)
    _write_csv(out / "steady.csv", "r,u", np.array((mesh.centers, profile)))
    return 0


def _cmd_converge(cfg: RunConfig, out: Path) -> int:
    model = cfg.build_model()
    result = self_convergence(presets()[cfg.converge_preset], model, cfg.converge_levels)
    threshold = _CONVERGE_THRESHOLDS[cfg.converge_preset]
    if threshold is None:
        passed = all(rec.l1_diff <= 1e-13 for rec in result.levels)
    else:
        passed = bool(result.observed_order >= threshold)
    payload = {
        "preset": cfg.converge_preset,
        "model": _model_record(model),
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
    model = cfg.build_model()
    preset = presets()[cfg.oracle_preset]
    mesh, result = run_preset(preset, model, cfg.oracle_cells)
    exact = exact_solution_by_shooting(model, preset.mass, preset.v0, preset.t_end, mesh.centers)
    error = float(np.sum(mesh.widths * np.abs(result.final.values - exact)))
    _write_csv(out / "oracle_solution.csv", "r,v,v_exact",
               np.array((mesh.centers, result.final.values, exact)))
    _write_json(out / "oracle.json", {
        "preset": cfg.oracle_preset,
        "model": _model_record(model),
        "cells": cfg.oracle_cells,
        "l1_error": error,
    })
    return 0


def _cmd_steady_drift(cfg: RunConfig, out: Path) -> int:
    _require_outside_horizon("steady.r0", cfg.steady_r0, 2.0 * cfg.mass)
    drift, mesh, profile, final = steady_drift_detail(
        cfg.build_model(), cfg.mass, cfg.steady_r0, cfg.steady_u0, cfg.cells, cfg.t_end,
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
    model = cfg.build_model()
    report = fuzz_invariants(cfg.fuzz_trials, cfg.seed, tau_scale=cfg.fuzz_tau_scale, m=model)
    _write_json(out / "fuzz_report.json", {**report.to_dict(), "model": _model_record(model)})
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
