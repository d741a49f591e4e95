"""Monotone numerical fluxes and the explicit finite volume update.

The update for cell i with face weights a_L, a_R, width dr and source
weight theta reads

    v_i' = v_i - (tau/dr) * [a_R F_R - a_L F_L - f(v_i) (a_R - a_L)]
               + tau * theta * (f(v_i) + h(v_i))

with one oriented two-point flux F per face, evaluated as nf(left cell,
right cell).  The outward-normal sign lives entirely in the +/-a weights,
so plain flux monotonicity (nondecreasing in the left argument,
nonincreasing in the right) is exactly what the weighted form requires.

The flux divergence is grouped as a_R F_R - a_L F_L - f (a_R - a_L); this
is algebraically the weighted-difference form above, and when M = 0 it
degenerates bitwise to the standard conservative update
v - (tau/dr)(F_R - F_L), which the flat-space equivalence tests rely on.

At the innermost face a_L is exactly 0 for M > 0, so cell 0 never reads a
left neighbor; the left state there defaults to the cell's own value to
keep array access total (any other value gives bitwise identical results).
The outer face uses a configurable ghost: zero-gradient copy by default,
or a fixed state.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from .errors import CflError, ContractError, DomainError, NumericsError, UnsupportedModelError
from .geometry import RadialMesh, max_timestep
from .model import FluxModel, check_structure, structure_grid

# difference quotients below this state separation are treated as zero
_QUOTIENT_FLOOR = 1e-13

_GAUSS3_OFFSET = math.sqrt(0.6)  # 3-point Gauss-Legendre nodes at center +/- offset*dr/2
_GAUSS3_WEIGHTS = (5.0 / 18.0, 8.0 / 18.0, 5.0 / 18.0)


@dataclass(frozen=True)
class OuterBoundary:
    """Ghost policy at the outer mesh face: zero-gradient copy or fixed state."""

    kind: str  # "copy" | "fixed"
    value: float = math.nan

    def ghost(self, outermost: float) -> float:
        return outermost if self.kind == "copy" else self.value


COPY_BOUNDARY = OuterBoundary("copy")


def fixed_boundary(value: float) -> OuterBoundary:
    if not -1.0 <= value <= 1.0:
        raise DomainError(f"fixed boundary state {value} outside [-1, 1]")
    return OuterBoundary("fixed", float(value))


@lru_cache(maxsize=None)
def _flux_scale(m: FluxModel, samples: int = 1001) -> float:
    """max |f'| over [-1, 1], sampled; the Rusanov dissipation coefficient."""
    grid = np.concatenate(([-1.0], structure_grid(samples), [1.0]))
    return float(np.max(np.abs(np.asarray(m.df(grid), dtype=float))))


@lru_cache(maxsize=None)
def _shape_ok(m: FluxModel) -> bool:
    return check_structure(m).flux_monotone_shape_ok


def _require_shape(m: FluxModel, kind: str) -> None:
    if not _shape_ok(m):
        raise UnsupportedModelError(
            f"{kind} flux needs f' < 0 on (-1, 0) and f' > 0 on (0, 1); model '{m.name}' fails that shape"
        )


def _scalarize(x, *args):
    return float(x) if all(np.ndim(a) == 0 for a in args) else x


def flux_rusanov(m: FluxModel, u, v):
    """(f(u) + f(v))/2 - (lam/2)(v - u) with the global bound lam = max |f'|."""
    lam = _flux_scale(m)
    out = 0.5 * (m.f(u) + m.f(v)) - 0.5 * lam * (np.asarray(v, dtype=float) - u)
    return _scalarize(out, u, v)


def flux_godunov(m: FluxModel, u, v):
    """Exact Riemann flux for the unimodal shape: min of f over [u, v] if
    u <= v (attained at the interval point closest to the minimum at 0),
    else max of f over [v, u] (attained at an endpoint)."""
    _require_shape(m, "godunov")
    u_arr = np.asarray(u, dtype=float)
    v_arr = np.asarray(v, dtype=float)
    inside = np.minimum(np.maximum(u_arr, 0.0), v_arr)
    out = np.where(u_arr <= v_arr, m.f(inside), np.maximum(m.f(u_arr), m.f(v_arr)))
    return _scalarize(out, u, v)


def flux_engquist_osher(m: FluxModel, u, v):
    """f(max(u, 0)) + f(min(v, 0)) - f(0): the split-derivative flux in
    closed form for the unimodal shape."""
    _require_shape(m, "engquist_osher")
    f0 = float(m.f(0.0))
    out = m.f(np.maximum(u, 0.0)) + m.f(np.minimum(v, 0.0)) - f0
    return _scalarize(out, u, v)


@dataclass(frozen=True, eq=False)
class NumericalFlux:
    """A two-point monotone flux with its Lipschitz bound for the CFL rule."""

    kind: str
    lipschitz_bound: float
    evaluate: Callable


_FLUX_FUNCTIONS = {
    "godunov": flux_godunov,
    "eo": flux_engquist_osher,
    "engquist_osher": flux_engquist_osher,
    "rusanov": flux_rusanov,
}


def numerical_flux(kind: str, m: FluxModel, samples: int = 1001) -> NumericalFlux:
    """Bind a named flux to a model, computing its Lipschitz bound.

    For all three bundled fluxes the bound in either argument is max |f'|
    (for Rusanov that equals the dissipation coefficient lam).
    """
    key = kind.lower()
    if key not in _FLUX_FUNCTIONS:
        raise DomainError(f"unknown flux kind '{kind}' (godunov | eo | rusanov)")
    if key in ("godunov", "eo", "engquist_osher"):
        _require_shape(m, key)
    canonical = "eo" if key == "engquist_osher" else key
    return NumericalFlux(
        kind=canonical,
        lipschitz_bound=_flux_scale(m, samples),
        evaluate=_FLUX_FUNCTIONS[key],
    )


@dataclass(frozen=True, eq=False)
class StateVector:
    """Cell averages at one time level; values must lie in [-1, 1]."""

    values: np.ndarray
    time: float
    step_index: int

    def __post_init__(self):
        vals = np.array(self.values, dtype=float)  # own copy, frozen below
        if vals.ndim != 1 or vals.size == 0:
            raise ContractError("state values must be a nonempty 1D array")
        if np.any(np.isnan(vals)):
            raise NumericsError("NaN in state values")
        if np.max(np.abs(vals)) > 1.0:
            raise NumericsError(
                f"state leaves [-1, 1]: max |v| = {np.max(np.abs(vals)):.17g} (discrete maximum principle violated)"
            )
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)


@dataclass(frozen=True, eq=False)
class StepReport:
    """What one update used: the face fluxes (read-only) and the time step.

    Everything a diagnostic needs is rebuilt from these and the pre-step
    state, e.g. the convex coefficients by convex_coefficients."""

    fluxes: np.ndarray
    tau_used: float


def face_states(values: np.ndarray, outer: OuterBoundary, inner_ghost: Optional[float]):
    """Left/right states for every face, ghosts included."""
    inner = values[0] if inner_ghost is None else float(inner_ghost)
    ghost = outer.ghost(float(values[-1]))
    left = np.concatenate(([inner], values))
    right = np.concatenate((values, [ghost]))
    return left, right


def _coefficient_triples(values, fluxes, mesh, m, tau, outer, inner_ghost):
    """Convex-decomposition coefficients (A_center, A_left, A_right) per cell."""
    fc = np.asarray(m.f(values), dtype=float)
    a_l = mesh.face_weights[:-1]
    a_r = mesh.face_weights[1:]
    left, right = face_states(values, outer, inner_ghost)
    dv_left = left[:-1] - values  # neighbor across the left face, minus own value
    dv_right = right[1:] - values

    mask_left = np.abs(dv_left) > _QUOTIENT_FLOOR
    mask_right = np.abs(dv_right) > _QUOTIENT_FLOOR
    q_left = np.where(mask_left, (fluxes[:-1] - fc) / np.where(mask_left, dv_left, 1.0), 0.0)
    q_right = np.where(mask_right, (fluxes[1:] - fc) / np.where(mask_right, dv_right, 1.0), 0.0)

    scale = tau / mesh.widths
    a_left = scale * a_l * q_left
    a_right = -scale * a_r * q_right
    a_center = 1.0 - a_left - a_right
    return a_center, a_left, a_right


def convex_coefficients(state: StateVector, report: StepReport, mesh: RadialMesh, m: FluxModel,
                        outer: OuterBoundary = COPY_BOUNDARY,
                        inner_ghost: Optional[float] = None):
    """Reconstruct the convex-decomposition coefficients for a finished step."""
    if state.values.size != mesh.n_cells:
        raise ContractError("state length does not match mesh cell count")
    return _coefficient_triples(state.values, report.fluxes, mesh, m, report.tau_used, outer, inner_ghost)


def step(state: StateVector, mesh: RadialMesh, m: FluxModel, nf: NumericalFlux, tau: float,
         outer: OuterBoundary = COPY_BOUNDARY, inner_ghost: Optional[float] = None,
         tau_bound: Optional[float] = None) -> tuple[StateVector, StepReport]:
    """One explicit update, with no diagnostics on the path.

    Args:
        tau: time step; must not exceed the stability bound.
        inner_ghost: value read across the horizon face (multiplied by the
            exact-zero weight there, so it cannot influence the result for
            M > 0; exposed to let tests demonstrate exactly that).
        tau_bound: optional precomputed max_timestep, to avoid re-deriving
            it every step inside time loops.

    Returns the advanced state and a StepReport holding only the face
    fluxes and the time step.  A NaN in the update raises NumericsError
    ("NaN in state values") when the new StateVector is built.
    """
    v = state.values
    if v.size != mesh.n_cells:
        raise ContractError(f"state has {v.size} cells, mesh has {mesh.n_cells}")
    if tau_bound is None:
        tau_bound = max_timestep(mesh, m, nf.lipschitz_bound)
    if not 0.0 < tau <= tau_bound:
        raise CflError(f"tau={tau:.17g} violates the stability bound {tau_bound:.17g}")

    left, right = face_states(v, outer, inner_ghost)
    fluxes = np.asarray(nf.evaluate(m, left, right), dtype=float)

    fc = np.asarray(m.f(v), dtype=float)
    hc = np.asarray(m.h(v), dtype=float)
    a_l = mesh.face_weights[:-1]
    a_r = mesh.face_weights[1:]
    flux_term = a_r * fluxes[1:] - a_l * fluxes[:-1] - fc * (a_r - a_l)
    v_new = v - (tau / mesh.widths) * flux_term + tau * mesh.cell_thetas * (fc + hc)

    new_state = StateVector(values=v_new, time=state.time + tau, step_index=state.step_index + 1)
    fluxes.setflags(write=False)
    return new_state, StepReport(fluxes=fluxes, tau_used=float(tau))


def project_initial(mesh: RadialMesh, v0: Callable[[np.ndarray], np.ndarray]) -> tuple[np.ndarray, int]:
    """Cell averages of v0 by 3-point Gauss quadrature, clamped to [-1, 1].

    Returns the averages and the number of cells that needed clamping
    (possible only for data that itself leaves [-1, 1], since the
    quadrature weights are positive).
    """
    half = 0.5 * mesh.widths
    lo = mesh.centers - _GAUSS3_OFFSET * half
    hi = mesh.centers + _GAUSS3_OFFSET * half
    w_lo, w_mid, w_hi = _GAUSS3_WEIGHTS
    avg = w_lo * np.asarray(v0(lo), dtype=float) + w_mid * np.asarray(v0(mesh.centers), dtype=float) \
        + w_hi * np.asarray(v0(hi), dtype=float)
    clamped = int(np.count_nonzero((avg < -1.0) | (avg > 1.0)))
    return np.clip(avg, -1.0, 1.0), clamped


@dataclass(frozen=True, eq=False)
class RunResult:
    """Snapshots plus bookkeeping from one time evolution."""

    snapshots: list
    final: StateVector
    clamped_cells: int
    steps: int
    tau_base: float


def run(mesh: RadialMesh, m: FluxModel, nf: NumericalFlux,
        v0: Optional[Callable] = None, t_end: float = 1.0, cfl_fraction: float = 0.9,
        snapshot_every: int = 10, outer: OuterBoundary = COPY_BOUNDARY,
        initial_values: Optional[np.ndarray] = None, max_steps: Optional[int] = None,
        on_step: Optional[Callable[[int, StateVector, StepReport, float], None]] = None) -> RunResult:
    """Evolve initial data to t_end with tau = cfl_fraction * max_timestep.

    The last step is shortened to land exactly on t_end.  Snapshots are the
    initial state, every snapshot_every-th step, and the final state.

    on_step, if given, is called once per step as
    on_step(steps, state_before, report, tau): steps counts this step from
    1, state_before is the state the step started from and tau the step
    actually taken (the shortened one included).  It runs after the step
    and before the snapshot and t_end bookkeeping.
    """
    if not 0.0 < cfl_fraction <= 1.0:
        raise DomainError(f"cfl_fraction must lie in (0, 1], got {cfl_fraction}")
    if not t_end > 0.0:
        raise DomainError(f"t_end must be positive, got {t_end}")
    if snapshot_every < 1:
        raise DomainError("snapshot_every must be >= 1")

    if initial_values is not None:
        values = np.asarray(initial_values, dtype=float)
        clamped = 0
    elif v0 is not None:
        values, clamped = project_initial(mesh, v0)
    else:
        raise ContractError("either v0 or initial_values is required")

    state = StateVector(values=values, time=0.0, step_index=0)
    tau_bound = max_timestep(mesh, m, nf.lipschitz_bound)
    tau_base = cfl_fraction * tau_bound

    snapshots = [state]
    steps = 0
    while state.time < t_end:
        remaining = t_end - state.time
        tau = min(tau_base, remaining)
        new_state, report = step(state, mesh, m, nf, tau, outer=outer, tau_bound=tau_bound)
        steps += 1
        if on_step is not None:
            on_step(steps, state, report, tau)
        state = new_state
        if max_steps is not None and steps > max_steps:
            raise NumericsError(f"time loop exceeded {max_steps} steps before reaching t_end")
        if remaining <= tau_base:
            state = dataclasses.replace(state, time=t_end)
            break
        if steps % snapshot_every == 0:
            snapshots.append(state)
    if snapshots[-1] is not state:
        snapshots.append(state)
    return RunResult(snapshots=snapshots, final=state, clamped_cells=clamped, steps=steps, tau_base=tau_base)
