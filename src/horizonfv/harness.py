"""Experiment orchestration for the model a caller gives: convergence studies,
the characteristic shooting oracle, steady-state drift, and seeded invariant campaigns.

Quantitative thresholds used by the bundled presets (observed orders,
drift ratios) are property-based expectations for a first-order monotone
scheme, measured by this implementation and frozen as regression values;
no external table of reference numbers exists for this problem.

All randomness flows from a single integer seed through one generator, so
identical seeds give identical reports byte for byte.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from . import entropy as entropy_mod
from .characteristics import build_fhat_table, steady_profile
from .errors import DomainError, NumericsError, PresetError
from .geometry import Background, RadialMesh, build_uniform_mesh, max_timestep
from .model import (DEFAULT_KRUZHKOV_LEVELS, FluxModel, _closure, _lower, _polyder, _with_source,
                    burgers_model)
from .scheme import (FLUX_KINDS, NumericalFlux, StateVector, StepReport, bump_data, constant_data,
                     numerical_flux, project_initial, run, step_data)


@dataclass(frozen=True, eq=False)
class Preset:
    """A named, reproducible experiment: its data, mesh, flux and end time, for any model."""

    name: str
    mass: float
    r_max: float
    cells: int
    t_end: float
    flux_kind: str
    cfl_fraction: float
    v0: Callable


#: The names of the bundled presets, in the order ``presets()`` lists them.
PRESET_NAMES = ("smooth", "riemann", "flat")


def presets() -> dict[str, Preset]:
    """The bundled experiment presets: the Godunov flux at CFL 0.9 on 100 cells."""
    specs = (
        # a pre-shock bump: for Burgers, t_end sits below the crossing guard with >10% margin
        dict(mass=1.0, r_max=12.0, t_end=1.2, v0=bump_data(0.5, 6.0, 1.0)),
        dict(mass=1.0, r_max=12.0, t_end=0.8, v0=step_data(0.8, -0.4, 7.0)),
        dict(mass=0.0, r_max=10.0, t_end=0.5, v0=constant_data(-0.3)),
    )
    return {name: Preset(name=name, cells=100, flux_kind="godunov", cfl_fraction=0.9, **spec)
            for name, spec in zip(PRESET_NAMES, specs, strict=True)}


def run_preset(preset: Preset, m: FluxModel, cells: Optional[int] = None):
    """Evolve a preset under the model m at an optional overriding resolution."""
    mesh = build_uniform_mesh(Background(preset.mass), preset.r_max, cells or preset.cells)
    nf = numerical_flux(preset.flux_kind, m)
    result = run(mesh, nf, project_initial(mesh, preset.v0)[0], t_end=preset.t_end,
                 cfl_fraction=preset.cfl_fraction, snapshot_every=10 ** 9)
    return mesh, result


def restrict_halving(fine_values: np.ndarray) -> np.ndarray:
    """Conservative restriction of a uniform mesh refined by exactly 2."""
    if fine_values.size % 2:
        raise DomainError("restriction needs an even number of fine cells")
    return 0.5 * (fine_values[0::2] + fine_values[1::2])


@dataclass(frozen=True)
class ConvergenceLevel:
    cells: int
    tau: float
    l1_diff: float


@dataclass(frozen=True, eq=False)
class ConvergenceResult:
    levels: list
    observed_order: float
    finals: list  # (cells, centers, values) per refinement level


def _fit_order(widths: Sequence[float], errors: Sequence[float]) -> float:
    errs = np.asarray(errors, dtype=float)
    if np.any(errs <= 0.0):
        return math.nan
    return float(np.polyfit(np.log(widths), np.log(errs), 1)[0])


def self_convergence(preset: Preset, m: FluxModel, levels: int = 4) -> ConvergenceResult:
    """L1 self-differences of the model m under mesh doubling, with a least-squares order.

    Each record pairs a resolution with the L1 distance between its
    solution and the conservative restriction of the next finer one; the
    time step follows the CFL rule, so tau is proportional to the width
    and the refinement constraint width**2/tau -> 0 holds automatically.
    """
    if levels < 3:
        raise DomainError("need at least 3 refinement levels to fit an order")
    finals = []
    centers = []
    taus = []
    cell_counts = [preset.cells * (1 << j) for j in range(levels)]
    for cells in cell_counts:
        mesh, result = run_preset(preset, m, cells)
        finals.append(result.final.values)
        centers.append(mesh.centers)
        taus.append(result.tau_base)

    widths = [(preset.r_max - 2.0 * preset.mass) / c for c in cell_counts]
    records = []
    diffs = []
    for j in range(levels - 1):
        projected = restrict_halving(finals[j + 1])
        diff = float(np.sum(widths[j] * np.abs(finals[j] - projected)))
        records.append(ConvergenceLevel(cells=cell_counts[j], tau=taus[j], l1_diff=diff))
        diffs.append(diff)
    order = _fit_order(widths[: levels - 1], diffs)
    return ConvergenceResult(levels=records, observed_order=order,
                             finals=list(zip(cell_counts, centers, finals)))


SHOOTING_DT = 0.002  # the shooting oracle's largest RK4 step in coordinate time
RK4_ACCURATE = 2.0  # RK4 keeps its accuracy for a real eigenvalue lam < 0 where |lam| dt <= this (stable to 2.785)
_OTHERS = [[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]]  # for each of a cubic's four nodes, the other three

# RK4 on the (2, n) ensemble y = (r, u): stage i writes the rates into k<i> (scratch: row), then
# y + c k<i> into stage; the step goes into stage (scratch: spare), then y, as _lower writes them.
# _STAGES' fields h_u and h_su are filled by _with_source.
_CHARS_LOOP = """\
def kernel(y, n_steps, two_m, dt, half_dt, sixth_dt):
    add, subtract, multiply, divide = np.add, np.subtract, np.multiply, np.divide
    k1, k2, k3, k4, stage, spare = (np.empty_like(y) for _ in range(6))
    (r, u), (sr, su), (k1r, k1u), (k2r, k2u), (k3r, k3u), (k4r, k4u), row = y, stage, k1, k2, k3, k4, spare[0]
    for _ in range(n_steps):
{body}
    return y[0], y[1]

return kernel
"""
_RATES = "{k}r[...] = (1.0 - two_m / {r}) * df({u})\n{k}u[...] = (f({u}){{h_{u}}}) * (two_m / ({r} * {r}))\n"
_STAGES = (_RATES.format(k="k1", r="r", u="u") + "stage[...] = y + half_dt * k1\n"
           + _RATES.format(k="k2", r="sr", u="su") + "stage[...] = y + half_dt * k2\n"
           + _RATES.format(k="k3", r="sr", u="su") + "stage[...] = y + dt * k3\n"
           + _RATES.format(k="k4", r="sr", u="su"))
_RK4_STEP = "stage[...] = sixth_dt * (k1 + 2.0 * k2 + 2.0 * k3 + k4)\ny[...] = y + stage"


@functools.lru_cache(maxsize=64)
def _chars_kernel(*polys):
    """The shooting kernel for the coefficient tuples of f, f' and h.  Every coefficient and
    scalar is a 0-d array in a closure cell, which a ufunc takes faster than a float."""
    cells, polys = {}, dict(zip(("f", "df", "h"), polys))
    stages = _with_source(_STAGES, polys["f"], polys["h"], "u", "su")
    lines = _lower(stages, polys, cells, ["row"]) + _lower(_RK4_STEP, polys, cells, ["spare"])
    source = _CHARS_LOOP.format(body="\n".join(" " * 8 + line for line in lines))
    return _closure(source, {name: np.array(c) for name, c in cells.items()}, {"np": np})


def _integrate_chars(m: FluxModel, mass: float, r0, u0, t_end: float, n_steps: int):
    """RK4 in coordinate time of the ensemble (r0, u0) over t_end in n_steps;
    returns (r, u).  dr/dt = (1 - 2M/r) f'(u) and du/dt = (f + h)(u) 2M/r^2
    are regular at the horizon.  The steps run in _chars_kernel on buffers
    allocated once per call, each row rounding as RK4 in Python floats does."""
    dt = t_end / n_steps
    kernel = _chars_kernel(m.f_poly, _polyder(m.f_poly), m.h_poly)
    return kernel(np.array((r0, u0), dtype=float), n_steps,
                  *(np.array(x) for x in (2.0 * mass, dt, 0.5 * dt, dt / 6.0)))


def exact_solution_by_shooting(m: FluxModel, mass: float, v0: Callable, t_end: float,
                               targets: np.ndarray) -> np.ndarray:
    """Point values of the pre-shock solution at the target radii.

    A probe table of the arrival map (start radius -> radius at t_end, by
    vectorized RK4 in coordinate time) brackets each target; a non-monotone
    map means characteristics crossed before t_end and raises PresetError.
    Each target's first shot is P(target), P the inverse cubic through the
    four probe (arrival, start) pairs nearest it; each later one moves the
    start x by P's own error, to x + P(target) - P(arrival of x), a step
    that contracts like h**3 in the probe spacing h.  Where that point is
    not finite or not strictly inside the bracket, and for good once a
    correction has not halved the residual (the rounding of many RK4 steps
    can make the arrival map step by ~1e-13, and there it oscillates),
    Illinois regula falsi shrinks the bracket instead, bisecting when the
    secant point leaves it; only its own passes halve its weights.  All
    targets move at once.  A target stops once its bracket is as narrow as
    48 bisections of the probe span would leave it, or its residual is
    within that width times the bracket's secant slope (at most 48
    passes); it returns the state its last shot transported.
    DomainError before any shot unless the targets are a non-empty, finite,
    strictly increasing 1-d array, t_end >= 0 and mass >= 0, all finite.
    The RK4 step dt is at most SHOOTING_DT, with at least 64 steps.  At
    r = 2M the system's Jacobian is triangular with eigenvalues f'(u)/(2M)
    and (f' + h')(u)/(2M), so a mass M > 0 below the least accurate one,
    dt max(sup |f'|, sup |f' + h'|) / (2 RK4_ACCURATE), is refused with
    DomainError naming it, before any shot too.  NumericsError names the
    start radius of the first characteristic of a shot, the probe's
    included, whose arrival or transported state is not finite.
    """
    targets = np.asarray(targets, dtype=float)
    problem = ("targets are not a non-empty 1-d array" if targets.ndim != 1 or targets.size == 0 else
               "a target is not finite" if not np.all(np.isfinite(targets)) else
               "targets are not strictly increasing" if np.any(np.diff(targets) <= 0.0) else
               f"t_end = {t_end} is not finite and >= 0" if not 0.0 <= t_end < math.inf else
               f"mass = {mass} is not finite and >= 0" if not 0.0 <= mass < math.inf else None)
    if problem:
        raise DomainError(f"shooting refused: {problem}")
    n_steps = max(64, int(math.ceil(t_end / SHOOTING_DT)))
    least_mass = t_end / n_steps * max(m.flux_lipschitz, m.source_slope) / (2.0 * RK4_ACCURATE)
    if 0.0 < mass < least_mass:
        raise DomainError(f"shooting refused: mass = {mass} is below {least_mass:.17g}, the least at which"
                          f" its RK4 step {t_end / n_steps:.17g} is accurate at the horizon")

    if mass > 0.0:
        lo_edge = 2.0 * mass * (1.0 + 1e-10)
    else:
        lo_edge = max(1e-9, float(targets[0]) - (t_end + 1.0))
    hi_edge = float(targets[-1]) + 1.05 * t_end + 0.5

    def shoot(r0):
        u0 = np.clip(np.asarray(v0(r0), dtype=float), -1.0, 1.0)
        r, u = _integrate_chars(m, mass, r0, u0, t_end, n_steps)
        finite = np.isfinite(r) & np.isfinite(u)
        if not finite.all():
            i = int(np.argmin(finite))  # the first False
            raise NumericsError(f"shooting: the characteristic from r0 = {r0[i]:.17g} is not finite at"
                                f" t_end = {t_end}: (r, u) = ({r[i]}, {u[i]})")
        return r, u

    probe = np.linspace(lo_edge, hi_edge, max(4 * targets.size, 64))
    probe_arrival, _ = shoot(probe)
    if np.any(np.diff(probe_arrival) < -1e-10):
        raise PresetError("characteristic crossing detected before t_end (non-monotone arrival map)")
    if probe_arrival[0] > targets[0] or probe_arrival[-1] < targets[-1]:
        raise PresetError("targets outside the reachable range of the arrival map")

    width_tol = (hi_edge - lo_edge) * 2.0 ** -48
    j = np.clip(np.searchsorted(probe_arrival, targets), 1, probe.size - 1)
    stencil = np.clip(j - 2, 0, probe.size - 4)[:, None] + np.arange(4)
    nodes = probe_arrival[stencil]  # each target's inverse cubic P: arrival -> start, in Lagrange form

    def cubic(y, nodes, weights):  # under errstate: equal arrivals in a stencil give 0/0, a nan
        return np.sum(weights * np.prod((y[:, None] - nodes)[:, _OTHERS], axis=2), axis=1)

    with np.errstate(all="ignore"):
        weights = probe[stencil] / np.prod(nodes[:, :, None] - nodes[:, _OTHERS], axis=2)
        aim = x = cubic(targets, nodes, weights)  # P(target), shot first
    idx = np.arange(targets.size)  # targets still being refined
    lo, hi = probe[j - 1], probe[j]
    g_lo, g_hi = probe_arrival[j - 1] - targets, probe_arrival[j] - targets  # Illinois-weighted residuals
    kept = np.zeros(targets.size)  # +1 / -1: the hi / lo end survived the last pass
    last = np.full(targets.size, np.inf)  # |residual| of the last pass; 0 once P is given up
    u_final = np.empty_like(targets)
    for _ in range(48):
        slope = (g_hi - g_lo) / (hi - lo)
        secant = hi - g_hi / slope
        inside = (lo < x) & (x < hi)  # P's point, whose pass halves no Illinois weight
        kept = np.where(inside, 0.0, kept)
        x = np.where(inside, x, np.where((lo < secant) & (secant < hi), secant, 0.5 * (lo + hi)))
        r_arr, u_final[idx] = shoot(x)
        res = r_arr - targets[idx]
        below = res < 0.0
        g_lo = np.where(below, res, np.where(kept < 0.0, 0.5 * g_lo, g_lo))
        g_hi = np.where(below, np.where(kept > 0.0, 0.5 * g_hi, g_hi), res)
        kept = np.where(below, 1.0, -1.0)
        lo, hi = np.where(below, x, lo), np.where(below, hi, x)
        live = (hi - lo > width_tol) & (np.abs(res) > width_tol * slope)
        if not np.any(live):
            break
        with np.errstate(all="ignore"):
            x = np.where(np.abs(res) < 0.5 * last, x + aim - cubic(r_arr, nodes, weights), np.nan)
        last = np.where(np.isfinite(x), np.abs(res), 0.0)
        idx, lo, hi, g_lo, g_hi, kept, x, aim, nodes, weights, last = (
            a[live] for a in (idx, lo, hi, g_lo, g_hi, kept, x, aim, nodes, weights, last))
    return u_final


def steady_drift_detail(m: FluxModel, mass: float, r0: float, u0: float, cells: int,
                        t_end: float, r_max: float = 12.0, flux_kind: str = "godunov",
                        cfl_fraction: float = 0.9):
    """Evolve a steady profile exactly t_end in time; return (L1 drift, mesh,
    profile, final values).

    The scheme is not well balanced, so the drift is a first-order
    truncation diagnostic: it should shrink like the cell width.
    """
    mesh = build_uniform_mesh(Background(mass), r_max, cells)
    if mass > 0.0:
        profile = steady_profile(build_fhat_table(m), mass, r0, u0, mesh.centers)
    else:  # u0 throughout, which needs no Fhat table
        profile = np.full(mesh.n_cells, u0)
    result = run(mesh, numerical_flux(flux_kind, m), profile, t_end=t_end, cfl_fraction=cfl_fraction,
                 snapshot_every=10 ** 9)
    drift = float(np.sum(mesh.widths * np.abs(result.final.values - profile)))
    return drift, mesh, profile, result.final.values


@dataclass(eq=False)
class FuzzReport:
    """Outcome of a seeded invariant campaign."""

    trials: int
    seed: int
    total_steps: int = 0
    worst_abs_state: float = 0.0
    worst_entropy_residual: float = -math.inf
    worst_balance_gap_rel: float = -math.inf
    worst_decomposition_defect: float = 0.0
    min_convex_coeff: float = math.inf
    violations: list = field(default_factory=list)
    trial_configs: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {**vars(self), "ok": self.ok}


ENTROPY_RESIDUAL_TOL = 1e-13
DECOMPOSITION_TOL = 1e-13
BALANCE_REL_TOL = 1e-12
# every trial's cells, radial span beyond the horizon, end time and step budget
FUZZ_CELLS, FUZZ_SPAN, FUZZ_T_END, FUZZ_MAX_STEPS = 200, 10.0, 0.4, 2000


def _piecewise_from_breaks(breaks: np.ndarray, values: np.ndarray) -> Callable:
    def v0(r):
        idx = np.searchsorted(breaks, np.asarray(r, dtype=float), side="right")
        return values[idx]

    return v0


def _step_checks(report: FuzzReport, config: dict, mesh: RadialMesh, nf: NumericalFlux) -> Callable:
    """One certificate per step against the campaign's tolerances, as an on_step observer."""

    def check(after: StateVector, step_report: StepReport) -> None:
        report.total_steps += 1
        report.worst_abs_state = max(report.worst_abs_state, float(np.max(np.abs(after.values))))
        ledger = entropy_mod.cell_entropy_residuals(after, step_report, mesh, nf, DEFAULT_KRUZHKOV_LEVELS)

        report.min_convex_coeff = min(report.min_convex_coeff, ledger.min_convex_coeff)
        if ledger.min_convex_coeff < 0.0:
            report.violations.append({"config": config, "kind": "convex_coefficient",
                                      "detail": ledger.min_convex_coeff})

        defect = ledger.decomposition_defect
        report.worst_decomposition_defect = max(report.worst_decomposition_defect, defect)
        if defect > DECOMPOSITION_TOL:
            report.violations.append({"config": config, "kind": "convex_decomposition",
                                      "detail": defect})

        worst_per_level = ledger.worst_residuals.tolist()
        report.worst_entropy_residual = max([report.worst_entropy_residual, *worst_per_level])
        for k, worst in zip(DEFAULT_KRUZHKOV_LEVELS, worst_per_level):
            if worst > ENTROPY_RESIDUAL_TOL:
                report.violations.append({"config": config, "kind": "entropy_residual",
                                          "k": k, "detail": worst})
        gap_rel = ledger.global_balance_gap / ledger.balance_scale
        report.worst_balance_gap_rel = max(report.worst_balance_gap_rel, gap_rel)
        if gap_rel > BALANCE_REL_TOL:
            report.violations.append({"config": config, "kind": "balance_gap", "detail": gap_rel})

    return check


def fuzz_invariants(trials: int, seed: int, tau_scale: float = 1.0, m: Optional[FluxModel] = None) -> FuzzReport:
    """Seeded random campaign of the model m (Burgers if None) over data, mass, flux, and CFL fraction.

    Each trial draws piecewise-constant data in [-1, 1], a mass in [0, 2],
    one of the three fluxes, and a CFL fraction in (0, 1], on FUZZ_CELLS
    cells over FUZZ_SPAN beyond the horizon, evolves it with ``run`` to
    FUZZ_T_END or, if earlier, the end of 0.8 * FUZZ_MAX_STEPS steps, and
    checks every step from one certificate (``entropy.cell_entropy_residuals``):
    the convex coefficients, exact from the flux's increments, against 0.0
    with no tolerance (``min_convex_coeff`` records the smallest, a zero as
    0.0), the convex-decomposition identity, the transport entropy residual
    at each of DEFAULT_KRUZHKOV_LEVELS and the quadratic balance gap.  A
    NumericsError out of ``run`` (a NaN or a breach of the maximum
    principle) ends the trial as a ``state_invariant`` violation.
    Any violation is recorded with the trial's full reproduction data.
    ``tau_scale`` != 1 replaces the drawn fraction, in the record too; above 1 it
    deliberately breaks the CFL precondition and the CflError propagates (a meta-test hook).
    """
    if trials < 1 or seed < 0:
        raise DomainError(f"need at least one trial and a seed >= 0, got {trials} trials and seed {seed}")
    rng = np.random.default_rng(seed)
    model = burgers_model() if m is None else m
    report = FuzzReport(trials=trials, seed=seed)

    for trial in range(trials):
        mass = float(rng.uniform(0.0, 2.0))
        r_max = 2.0 * mass + FUZZ_SPAN
        n_pieces = int(rng.integers(1, 9))
        breaks = np.sort(rng.uniform(2.0 * mass, r_max, size=n_pieces - 1))
        values = rng.uniform(-1.0, 1.0, size=n_pieces)
        pin = rng.random(size=n_pieces) < 0.15
        values[pin] = rng.choice([-1.0, 1.0], size=int(np.count_nonzero(pin)))
        flux_kind = str(rng.choice(FLUX_KINDS))
        cfl = float(1.0 - rng.uniform(0.0, 1.0) * (1.0 - 1e-6))  # in (0, 1]

        mesh = build_uniform_mesh(Background(mass), r_max, FUZZ_CELLS)
        nf = numerical_flux(flux_kind, model)
        fraction = cfl if tau_scale == 1.0 else tau_scale
        t_this = min(FUZZ_T_END, 0.8 * FUZZ_MAX_STEPS * (fraction * max_timestep(mesh, model, nf.lipschitz_bound)))

        config = {
            "trial": trial,
            "mass": mass,
            "cells": FUZZ_CELLS,
            "r_max": r_max,
            "breaks": breaks.tolist(),
            "values": values.tolist(),
            "flux": flux_kind,
            "cfl_fraction": fraction,
            "t_end": t_this,
        }
        report.trial_configs.append(config)
        try:
            run(mesh, nf, project_initial(mesh, _piecewise_from_breaks(breaks, values))[0], t_end=t_this,
                cfl_fraction=fraction, snapshot_every=10 ** 9, on_step=_step_checks(report, config, mesh, nf))
        except NumericsError as exc:
            report.violations.append({"config": config, "kind": "state_invariant", "detail": str(exc)})
    return report
