"""Experiment orchestration: convergence studies, oracle comparisons,
steady-state drift, and seeded invariant campaigns.

Quantitative thresholds used by the bundled presets (observed orders,
drift ratios) are property-based expectations for a first-order monotone
scheme, measured by this implementation and frozen as regression values;
no external table of reference numbers exists for this problem.

All randomness flows from a single integer seed through one generator, so
identical seeds give identical reports byte for byte.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from . import entropy as entropy_mod
from .characteristics import FhatTable, build_fhat_table, steady_profile
from .errors import CflError, DomainError, NumericsError, PresetError
from .geometry import Background, RadialMesh, build_uniform_mesh, max_timestep
from .model import DEFAULT_KRUZHKOV_LEVELS, FluxModel, burgers_model
from .scheme import (_QUOTIENT_FLOOR, COPY_BOUNDARY, StateVector, StepReport, convex_coefficients,
                     face_states, numerical_flux, project_initial, run, step)


@dataclass(frozen=True, eq=False)
class Preset:
    """A named, reproducible experiment configuration."""

    name: str
    model: FluxModel
    mass: float
    r_max: float
    cells: int
    t_end: float
    flux_kind: str
    cfl_fraction: float
    v0: Callable
    description: str = ""


def _smooth_bump(r):
    return 0.5 * np.exp(-np.square(r - 6.0))


def _riemann_step(r):
    return np.where(np.asarray(r, dtype=float) < 7.0, 0.8, -0.4)


def _flat_constant(r):
    return np.full_like(np.asarray(r, dtype=float), -0.3)


def presets() -> dict[str, Preset]:
    """The bundled experiment presets."""
    b = burgers_model()
    return {
        "smooth": Preset(
            name="smooth", model=b, mass=1.0, r_max=12.0, cells=100, t_end=1.2,
            flux_kind="godunov", cfl_fraction=0.9, v0=_smooth_bump,
            description="pre-shock Gaussian bump on a mass-1 background; "
                        "t_end sits below the crossing guard with >10% margin",
        ),
        "riemann": Preset(
            name="riemann", model=b, mass=1.0, r_max=12.0, cells=100, t_end=0.8,
            flux_kind="godunov", cfl_fraction=0.9, v0=_riemann_step,
            description="single right-moving shock from step data (0.8, -0.4) at r = 7",
        ),
        "flat": Preset(
            name="flat", model=b, mass=0.0, r_max=10.0, cells=100, t_end=0.5,
            flux_kind="godunov", cfl_fraction=0.9, v0=_flat_constant,
            description="flat-space constant state; exact fixed point of the scheme",
        ),
    }


def run_preset(preset: Preset, cells: Optional[int] = None):
    """Evolve a preset at an optional overriding resolution."""
    mesh = build_uniform_mesh(Background(preset.mass), preset.r_max, cells or preset.cells)
    nf = numerical_flux(preset.flux_kind, preset.model)
    result = run(mesh, preset.model, nf, v0=preset.v0, t_end=preset.t_end,
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


def self_convergence(preset: Preset, levels: int = 4) -> ConvergenceResult:
    """L1 self-differences under mesh doubling, with a least-squares order.

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
        mesh, result = run_preset(preset, cells)
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


def _char_rhs_time(m: FluxModel, mass: float, r, u):
    """Characteristic system reparametrized by coordinate time.

    dr/dt = a(r) f'(u) and du/dt = (2M/r^2)(f + h)(u); both right sides are
    regular at the horizon, which keeps the vectorized ensemble integration
    well behaved even for members that asymptote to r = 2M.
    """
    a = 1.0 - 2.0 * mass / r
    dr = a * np.asarray(m.df(u), dtype=float)
    du = (2.0 * mass / np.square(r)) * (np.asarray(m.f(u), dtype=float) + np.asarray(m.h(u), dtype=float))
    return dr, du


def _integrate_chars(m: FluxModel, mass: float, r0, u0, t_end: float, n_steps: int):
    r = np.array(r0, dtype=float)
    u = np.array(u0, dtype=float)
    dt = t_end / n_steps
    for _ in range(n_steps):
        k1r, k1u = _char_rhs_time(m, mass, r, u)
        k2r, k2u = _char_rhs_time(m, mass, r + 0.5 * dt * k1r, u + 0.5 * dt * k1u)
        k3r, k3u = _char_rhs_time(m, mass, r + 0.5 * dt * k2r, u + 0.5 * dt * k2u)
        k4r, k4u = _char_rhs_time(m, mass, r + dt * k3r, u + dt * k3u)
        r = r + dt / 6.0 * (k1r + 2.0 * k2r + 2.0 * k3r + k4r)
        u = u + dt / 6.0 * (k1u + 2.0 * k2u + 2.0 * k3u + k4u)
    return r, u


def exact_solution_by_shooting(m: FluxModel, mass: float, v0: Callable, t_end: float,
                               targets: np.ndarray, dt_target: float = 0.002) -> np.ndarray:
    """Point values of the pre-shock solution at the target radii.

    A probe table of the arrival map (start radius -> radius at t_end, by
    vectorized RK4 in coordinate time) brackets each target; a non-monotone
    map means characteristics crossed before t_end and raises PresetError.
    Illinois regula falsi then shrinks all brackets at once, bisecting when
    the secant point leaves the open bracket.  A target stops once its
    bracket is as narrow as 48 bisections of the probe span would leave it,
    or its residual is within that width times the bracket's secant slope
    (at most 48 passes); it returns the state its last shot transported.
    """
    targets = np.asarray(targets, dtype=float)
    n_steps = max(64, int(math.ceil(t_end / dt_target)))

    if mass > 0.0:
        lo_edge = 2.0 * mass * (1.0 + 1e-10)
    else:
        lo_edge = max(1e-9, float(targets[0]) - (t_end + 1.0))
    hi_edge = float(targets[-1]) + 1.05 * t_end + 0.5

    def shoot(r0):
        u0 = np.clip(np.asarray(v0(r0), dtype=float), -1.0, 1.0)
        return _integrate_chars(m, mass, r0, u0, t_end, n_steps)

    probe = np.linspace(lo_edge, hi_edge, max(4 * targets.size, 64))
    probe_arrival, _ = shoot(probe)
    if np.any(np.diff(probe_arrival) < -1e-10):
        raise PresetError("characteristic crossing detected before t_end (non-monotone arrival map)")
    if probe_arrival[0] > targets[0] or probe_arrival[-1] < targets[-1]:
        raise PresetError("targets outside the reachable range of the arrival map")

    width_tol = (hi_edge - lo_edge) * 2.0 ** -48
    j = np.clip(np.searchsorted(probe_arrival, targets), 1, probe.size - 1)
    idx = np.arange(targets.size)  # targets still being refined
    lo, hi = probe[j - 1], probe[j]
    g_lo, g_hi = probe_arrival[j - 1] - targets, probe_arrival[j] - targets  # Illinois-weighted residuals
    kept = np.zeros(targets.size)  # +1 / -1: the hi / lo end survived the last pass
    u_final = np.empty_like(targets)
    for _ in range(48):
        slope = (g_hi - g_lo) / (hi - lo)
        x = hi - g_hi / slope
        x = np.where((lo < x) & (x < hi), x, 0.5 * (lo + hi))
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
        idx, lo, hi, g_lo, g_hi, kept = (a[live] for a in (idx, lo, hi, g_lo, g_hi, kept))
    return u_final


def crossing_time_guard(m: FluxModel, mass: float, v0: Callable, r_lo: float, r_hi: float,
                        t_max: float, n_chars: int = 256, dt: float = 0.002) -> Optional[float]:
    """Earliest coordinate time at which adjacent characteristics cross,
    scaled by the 0.9 safety margin; None if no crossing before t_max."""
    r = np.linspace(r_lo, r_hi, n_chars)
    u = np.clip(np.asarray(v0(r), dtype=float), -1.0, 1.0)
    steps = int(math.ceil(t_max / dt))
    t = 0.0
    for _ in range(steps):
        r, u = _integrate_chars(m, mass, r, u, dt, 1)
        t += dt
        if np.any(np.diff(r) < 0.0):
            return 0.9 * t
    return None


def oracle_compare(preset: Preset, cells: int) -> float:
    """Width-weighted L1 distance between the scheme and the shooting oracle."""
    mesh, result = run_preset(preset, cells)
    exact = exact_solution_by_shooting(preset.model, preset.mass, preset.v0, preset.t_end,
                                       mesh.centers)
    return float(np.sum(mesh.widths * np.abs(result.final.values - exact)))


@dataclass(frozen=True, eq=False)
class OracleConvergence:
    cells: list
    errors: list
    observed_order: float


def oracle_convergence(preset: Preset, cell_list: Sequence[int]) -> OracleConvergence:
    """Oracle errors across resolutions with a fitted order."""
    errors = [oracle_compare(preset, cells) for cells in cell_list]
    widths = [(preset.r_max - 2.0 * preset.mass) / c for c in cell_list]
    return OracleConvergence(cells=list(cell_list), errors=errors,
                             observed_order=_fit_order(widths, errors))


def steady_drift_detail(m: FluxModel, mass: float, r0: float, u0: float, cells: int,
                        t_end: float, r_max: float = 12.0, flux_kind: str = "godunov",
                        cfl_fraction: float = 0.9, table: Optional[FhatTable] = None):
    """Evolve a steady profile and return (drift, mesh, profile, final values)."""
    mesh = build_uniform_mesh(Background(mass), r_max, cells)
    if table is None:
        table = build_fhat_table(m)
    if mass > 0.0:
        profile = steady_profile(table, mass, r0, u0, mesh.centers)
    else:
        profile = np.full(mesh.n_cells, u0)
    nf = numerical_flux(flux_kind, m)
    result = run(mesh, m, nf, t_end=t_end, cfl_fraction=cfl_fraction,
                 initial_values=profile, snapshot_every=10 ** 9)
    drift = float(np.sum(mesh.widths * np.abs(result.final.values - profile)))
    return drift, mesh, profile, result.final.values


def steady_drift(m: FluxModel, mass: float, r0: float, u0: float, cells: int, t_end: float,
                 r_max: float = 12.0, flux_kind: str = "godunov", cfl_fraction: float = 0.9,
                 table: Optional[FhatTable] = None) -> float:
    """L1 drift after evolving a steady profile exactly t_end in time.

    The scheme is not well balanced, so the drift is a first-order
    truncation diagnostic: it should shrink like the cell width.
    """
    drift, _, _, _ = steady_drift_detail(m, mass, r0, u0, cells, t_end, r_max=r_max,
                                         flux_kind=flux_kind, cfl_fraction=cfl_fraction,
                                         table=table)
    return drift


@dataclass(eq=False)
class FuzzReport:
    """Outcome of a seeded invariant campaign."""

    trials: int
    seed: int
    total_steps: int = 0
    worst_abs_state: float = 0.0
    worst_entropy_residual: float = -math.inf
    worst_entropy_residual_with_source: float = -math.inf
    worst_balance_gap_rel: float = -math.inf
    worst_decomposition_defect: float = 0.0
    min_convex_coeff: float = math.inf
    violations: list = field(default_factory=list)
    trial_configs: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {
            "trials": self.trials,
            "seed": self.seed,
            "total_steps": self.total_steps,
            "worst_abs_state": self.worst_abs_state,
            "worst_entropy_residual": self.worst_entropy_residual,
            "worst_entropy_residual_with_source": self.worst_entropy_residual_with_source,
            "worst_balance_gap_rel": self.worst_balance_gap_rel,
            "worst_decomposition_defect": self.worst_decomposition_defect,
            "min_convex_coeff": self.min_convex_coeff,
            "violations": self.violations,
            "trial_configs": self.trial_configs,
            "ok": self.ok,
        }


_FUZZ_FLUXES = ("godunov", "eo", "rusanov")

ENTROPY_RESIDUAL_TOL = 1e-13
DECOMPOSITION_TOL = 1e-13
BALANCE_REL_TOL = 1e-12
# The convex coefficients are nonnegative in exact arithmetic; recovering
# them divides a rounded flux difference by the state jump, so the measured
# minimum carries noise of order eps / |jump| as neighboring cells converge.
# A step below COEFFICIENT_TOL is a violation only if some coefficient is
# also below minus its own rounding bound: _ROUNDING_ULPS ulps of max |f|
# on the flux difference, scaled like the coefficient by tau a / (|K| |jump|).
COEFFICIENT_TOL = -1e-8
_ROUNDING_ULPS = 8.0


def _coefficient_below_rounding(state: StateVector, report: StepReport, mesh: RadialMesh,
                                m: FluxModel, triples) -> bool:
    """Per-cell recheck of a step whose smallest coefficient is below
    COEFFICIENT_TOL, given that step's (A_center, A_left, A_right) from
    convex_coefficients; max |f| on [-1, 1] is taken at -1, 0 and 1, as holds
    for the unimodal flux shape the campaign's fluxes require."""
    a_center, a_left, a_right = triples
    left, right = face_states(state.values, COPY_BOUNDARY, None)
    f_max = float(np.max(np.abs(m.f(np.array([-1.0, 0.0, 1.0])))))
    unit = _ROUNDING_ULPS * np.finfo(float).eps * f_max * report.tau_used / mesh.widths
    b_left = unit * mesh.face_weights[:-1] / np.maximum(np.abs(left[:-1] - state.values), _QUOTIENT_FLOOR)
    b_right = unit * mesh.face_weights[1:] / np.maximum(np.abs(right[1:] - state.values), _QUOTIENT_FLOOR)
    coeffs = np.concatenate((a_center, a_left, a_right))
    bounds = np.concatenate((b_left + b_right, b_left, b_right))
    return bool(np.any(coeffs < -np.maximum(bounds, -COEFFICIENT_TOL)))


def _piecewise_from_breaks(breaks: np.ndarray, values: np.ndarray) -> Callable:
    def v0(r):
        idx = np.searchsorted(breaks, np.asarray(r, dtype=float), side="right")
        return values[idx]

    return v0


def fuzz_invariants(trials: int, seed: int, cells: int = 200, t_end: float = 0.4,
                    max_steps: int = 2000, kruzhkov_levels: Sequence[float] = DEFAULT_KRUZHKOV_LEVELS,
                    tau_scale: float = 1.0, span: float = 10.0) -> FuzzReport:
    """Seeded random campaign over data, mass, flux, and CFL fraction.

    Each trial draws piecewise-constant data in [-1, 1], a mass in [0, 2],
    one of the three fluxes, and a CFL fraction in (0, 1]; it then checks,
    every step: the exact maximum principle, the transport entropy residual
    for every requested Kruzhkov level, the convex-decomposition identity,
    the quadratic balance gap, and nonnegativity of the convex
    coefficients.  Any violation is recorded with the trial's full
    reproduction data.  ``tau_scale`` > 1 deliberately breaks the CFL
    precondition and propagates the resulting error (a meta-test hook).
    """
    if trials < 1:
        raise DomainError("need at least one trial")
    rng = np.random.default_rng(seed)
    model = burgers_model()
    report = FuzzReport(trials=trials, seed=seed)

    for trial in range(trials):
        mass = float(rng.uniform(0.0, 2.0))
        r_max = 2.0 * mass + span
        n_pieces = int(rng.integers(1, 9))
        breaks = np.sort(rng.uniform(2.0 * mass, r_max, size=n_pieces - 1))
        values = rng.uniform(-1.0, 1.0, size=n_pieces)
        pin = rng.random(size=n_pieces) < 0.15
        values[pin] = rng.choice([-1.0, 1.0], size=int(np.count_nonzero(pin)))
        flux_kind = str(rng.choice(_FUZZ_FLUXES))
        cfl = float(1.0 - rng.uniform(0.0, 1.0) * (1.0 - 1e-6))  # in (0, 1]

        mesh = build_uniform_mesh(Background(mass), r_max, cells)
        nf = numerical_flux(flux_kind, model)
        tau_bound = max_timestep(mesh, model, nf.lipschitz_bound)
        # tau_scale != 1 overrides the drawn fraction with a deliberate
        # multiple of the bound (the CFL-guard meta-test)
        tau = cfl * tau_bound if tau_scale == 1.0 else tau_scale * tau_bound
        initial, _ = project_initial(mesh, _piecewise_from_breaks(breaks, values))
        t_this = min(t_end, 0.8 * max_steps * tau)

        config = {
            "trial": trial,
            "mass": mass,
            "cells": cells,
            "r_max": r_max,
            "breaks": breaks.tolist(),
            "values": values.tolist(),
            "flux": flux_kind,
            "cfl_fraction": cfl,
            "t_end": t_this,
        }
        report.trial_configs.append(config)

        state = StateVector(values=initial, time=0.0, step_index=0)
        while state.time < t_this:
            tau_step = min(tau, t_this - state.time)
            try:
                new_state, step_report = step(state, mesh, model, nf, tau_step, tau_bound=tau_bound)
            except CflError:
                raise  # deliberate tau_scale > 1 must surface, not corrupt silently
            except NumericsError as exc:
                # covers NaN faults and any maximum-principle breach (the state
                # type enforces |v| <= 1 on construction)
                report.violations.append({"config": config, "kind": "state_invariant",
                                          "detail": str(exc)})
                break
            report.total_steps += 1
            report.worst_abs_state = max(report.worst_abs_state, float(np.max(np.abs(new_state.values))))

            triples = convex_coefficients(state, step_report, mesh, model)
            coeff_min = float(min(a.min() for a in triples))
            report.min_convex_coeff = min(report.min_convex_coeff, coeff_min)
            if coeff_min < COEFFICIENT_TOL and \
                    _coefficient_below_rounding(state, step_report, mesh, model, triples):
                report.violations.append({"config": config, "kind": "convex_coefficient",
                                          "detail": coeff_min})

            defect = entropy_mod.convex_decomposition_check(state, new_state, step_report, mesh, model)
            report.worst_decomposition_defect = max(report.worst_decomposition_defect, defect)
            if defect > DECOMPOSITION_TOL:
                report.violations.append({"config": config, "kind": "convex_decomposition",
                                          "detail": defect})

            for j, k in enumerate(kruzhkov_levels):
                ledger = entropy_mod.cell_entropy_residuals(state, step_report, mesh, model, nf,
                                                            k, tau_step, include_balance=(j == 0))
                report.worst_entropy_residual = max(report.worst_entropy_residual, ledger.worst_residual)
                report.worst_entropy_residual_with_source = max(
                    report.worst_entropy_residual_with_source, ledger.worst_residual_with_source)
                if ledger.worst_residual > ENTROPY_RESIDUAL_TOL:
                    report.violations.append({"config": config, "kind": "entropy_residual",
                                              "k": k, "detail": ledger.worst_residual})
                if j == 0:  # the quadratic balance does not depend on k
                    gap_rel = ledger.global_balance_gap / ledger.balance_scale
                    report.worst_balance_gap_rel = max(report.worst_balance_gap_rel, gap_rel)
                    if gap_rel > BALANCE_REL_TOL:
                        report.violations.append({"config": config, "kind": "balance_gap",
                                                  "detail": gap_rel})

            state = new_state
    return report
