"""Experiment orchestration: convergence studies, the characteristic
shooting oracle, steady-state drift, and seeded invariant campaigns.

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
from .model import DEFAULT_KRUZHKOV_LEVELS, FluxModel, _closure, _in_place, _polyder, burgers_model
from .scheme import (FLUX_KINDS, NumericalFlux, StateVector, StepReport, bump_data, constant_data,
                     numerical_flux, run, step_data)


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


def presets() -> dict[str, Preset]:
    """The bundled experiment presets."""
    b = burgers_model()
    return {
        "smooth": Preset(
            name="smooth", model=b, mass=1.0, r_max=12.0, cells=100, t_end=1.2,
            flux_kind="godunov", cfl_fraction=0.9, v0=bump_data(0.5, 6.0, 1.0),
            description="pre-shock Gaussian bump on a mass-1 background; "
                        "t_end sits below the crossing guard with >10% margin",
        ),
        "riemann": Preset(
            name="riemann", model=b, mass=1.0, r_max=12.0, cells=100, t_end=0.8,
            flux_kind="godunov", cfl_fraction=0.9, v0=step_data(0.8, -0.4, 7.0),
            description="single right-moving shock from step data (0.8, -0.4) at r = 7",
        ),
        "flat": Preset(
            name="flat", model=b, mass=0.0, r_max=10.0, cells=100, t_end=0.5,
            flux_kind="godunov", cfl_fraction=0.9, v0=constant_data(-0.3),
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


# RK4 on the (2, n) ensemble y = (r, u).  {stages} stands for the four stages;
# stage i writes dr/dt and du/dt into the rows of k<i>, and y + c k<i> into stage.
_CHARS_LOOP = """\
def kernel(y, n_steps, two_m, dt, half, sixth):
    mul, add, sub, div = np.multiply, np.add, np.subtract, np.divide
    k1, k2, k3, k4, stage, (scale, h_u) = (np.empty_like(y) for _ in range(6))
    (r, u), (sr, su), (k1r, k1u), (k2r, k2u), (k3r, k3u), (k4r, k4u) = y, stage, k1, k2, k3, k4
    for _ in range(n_steps):
{stages}
        add(k1, mul(two, k2, stage), stage)
        add(stage, mul(two, k3, k3), stage)
        add(stage, k4, stage)
        add(y, mul(sixth, stage, stage), y)
    return y[0], y[1]

return kernel
"""


@functools.lru_cache(maxsize=64)
def _chars_kernel(*polys):
    """The shooting kernel for the coefficient tuples of f, f' and h: each
    is written into the stage as _in_place Horner statements on
    coefficients in closure cells.  Every scalar is a 0-d array, which a
    ufunc takes faster than a float."""
    cells = {"zero": 0.0, "one": 1.0, "two": 2.0}

    def rates(k, r, u):
        f, df, h = (_in_place(poly, u, name + "_", out, cells)
                    for name, poly, out in zip(("f", "df", "h"), polys, (k + "u", k + "r", "h_u")))
        return [*df, f"div(two_m, {r}, scale)", "sub(one, scale, scale)", f"mul(scale, {k}r, {k}r)",
                f"mul({r}, {r}, scale)", "div(two_m, scale, scale)", *f, *h, f"add({k}u, h_u, {k}u)",
                f"mul({k}u, scale, {k}u)"]

    lines = [*rates("k1", "r", "u"), "add(y, mul(half, k1, stage), stage)", *rates("k2", "sr", "su"),
             "add(y, mul(half, k2, stage), stage)", *rates("k3", "sr", "su"), "add(y, mul(dt, k3, stage), stage)",
             *rates("k4", "sr", "su")]
    source = _CHARS_LOOP.format(stages="\n".join(" " * 8 + line for line in lines))
    return _closure(source, {name: np.array(c) for name, c in cells.items()}, {"np": np})


def _integrate_chars(m: FluxModel, mass: float, r0, u0, t_end: float, n_steps: int):
    """RK4 in coordinate time of the ensemble (r0, u0) over t_end in n_steps;
    returns (r, u).  dr/dt = (1 - 2M/r) f'(u) and du/dt = (f + h)(u) 2M/r^2
    are regular at the horizon.  The steps run in _chars_kernel, compiled
    once per set of f, f' and h tuples, as ufuncs on buffers allocated once
    per call; the step is ((k1 + 2 k2) + 2 k3) + k4, so each row rounds as
    the per-row RK4 in Python floats does."""
    dt = t_end / n_steps
    kernel = _chars_kernel(m.f_poly, _polyder(m.f_poly), m.h_poly)
    return kernel(np.array((r0, u0), dtype=float), n_steps,
                  *(np.array(x) for x in (2.0 * mass, dt, 0.5 * dt, dt / 6.0)))


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
    DomainError before any shot unless the targets are a non-empty, finite,
    strictly increasing 1-d array, t_end >= 0, dt_target > 0 and mass >= 0,
    all finite.
    """
    targets = np.asarray(targets, dtype=float)
    problem = ("targets are not a non-empty 1-d array" if targets.ndim != 1 or targets.size == 0 else
               "a target is not finite" if not np.all(np.isfinite(targets)) else
               "targets are not strictly increasing" if np.any(np.diff(targets) <= 0.0) else
               f"t_end = {t_end} is not finite and >= 0" if not 0.0 <= t_end < math.inf else
               f"dt_target = {dt_target} is not finite and > 0" if not 0.0 < dt_target < math.inf else
               f"mass = {mass} is not finite and >= 0" if not 0.0 <= mass < math.inf else None)
    if problem:
        raise DomainError(f"shooting refused: {problem}")
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


def steady_drift_detail(m: FluxModel, mass: float, r0: float, u0: float, cells: int,
                        t_end: float, r_max: float = 12.0, flux_kind: str = "godunov",
                        cfl_fraction: float = 0.9):
    """Evolve a steady profile exactly t_end in time; return (L1 drift, mesh,
    profile, final values).

    The scheme is not well balanced, so the drift is a first-order
    truncation diagnostic: it should shrink like the cell width.
    """
    mesh = build_uniform_mesh(Background(mass), r_max, cells)
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


def _piecewise_from_breaks(breaks: np.ndarray, values: np.ndarray) -> Callable:
    def v0(r):
        idx = np.searchsorted(breaks, np.asarray(r, dtype=float), side="right")
        return values[idx]

    return v0


def _step_checks(report: FuzzReport, config: dict, mesh: RadialMesh, model: FluxModel,
                 nf: NumericalFlux, kruzhkov_levels: Sequence[float]) -> Callable:
    """One certificate per step against the campaign's tolerances, as an on_step observer."""

    def check(before: StateVector, after: StateVector, step_report: StepReport) -> None:
        report.total_steps += 1
        report.worst_abs_state = max(report.worst_abs_state, float(np.max(np.abs(after.values))))
        ledger = entropy_mod.cell_entropy_residuals(before, after, step_report, mesh, model, nf,
                                                    kruzhkov_levels)

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
        for k, worst in zip(kruzhkov_levels, worst_per_level):
            if worst > ENTROPY_RESIDUAL_TOL:
                report.violations.append({"config": config, "kind": "entropy_residual",
                                          "k": k, "detail": worst})
        gap_rel = ledger.global_balance_gap / ledger.balance_scale
        report.worst_balance_gap_rel = max(report.worst_balance_gap_rel, gap_rel)
        if gap_rel > BALANCE_REL_TOL:
            report.violations.append({"config": config, "kind": "balance_gap", "detail": gap_rel})

    return check


def fuzz_invariants(trials: int, seed: int, cells: int = 200, t_end: float = 0.4,
                    max_steps: int = 2000, kruzhkov_levels: Sequence[float] = DEFAULT_KRUZHKOV_LEVELS,
                    tau_scale: float = 1.0, span: float = 10.0) -> FuzzReport:
    """Seeded random campaign over data, mass, flux, and CFL fraction.

    Each trial draws piecewise-constant data in [-1, 1], a mass in [0, 2],
    one of the three fluxes, and a CFL fraction in (0, 1], evolves it with
    ``run`` and checks every step from one certificate
    (``entropy.cell_entropy_residuals``): the convex coefficients, exact
    from the flux's increments, against 0.0 with no tolerance
    (``min_convex_coeff`` records the smallest, a zero as 0.0), the
    convex-decomposition identity, the transport entropy residual at every
    requested Kruzhkov level and the quadratic balance gap.  A
    NumericsError out of ``run`` (a NaN or a breach of the maximum
    principle) ends the trial as a ``state_invariant`` violation.
    Any violation is recorded with the trial's full reproduction data.
    ``tau_scale`` != 1 replaces the drawn fraction; above 1 it deliberately
    breaks the CFL precondition and the CflError propagates (a meta-test hook).
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
        flux_kind = str(rng.choice(FLUX_KINDS))
        cfl = float(1.0 - rng.uniform(0.0, 1.0) * (1.0 - 1e-6))  # in (0, 1]

        mesh = build_uniform_mesh(Background(mass), r_max, cells)
        nf = numerical_flux(flux_kind, model)
        fraction = cfl if tau_scale == 1.0 else tau_scale
        t_this = min(t_end, 0.8 * max_steps * (fraction * max_timestep(mesh, model, nf.lipschitz_bound)))

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
        try:
            run(mesh, model, nf, v0=_piecewise_from_breaks(breaks, values), t_end=t_this,
                cfl_fraction=fraction, snapshot_every=10 ** 9,
                on_step=_step_checks(report, config, mesh, model, nf, kruzhkov_levels))
        except NumericsError as exc:
            report.violations.append({"config": config, "kind": "state_invariant", "detail": str(exc)})
    return report
