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

``step`` reads only the model's coefficient tuples: f, h and a bundled flux
run as in-place ufuncs in one compiled kernel, bitwise equal to the formulas;
any other flux's evaluate is called from it with three arguments.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import CflError, ContractError, DomainError, NumericsError, UnsupportedModelError
from .geometry import RadialMesh, max_timestep
from .model import FluxModel, _closure, _evaluator, _in_place

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


def _require_shape(m: FluxModel, kind: Optional[str]) -> None:
    if kind and not m.structure.flux_monotone_shape_ok:
        raise UnsupportedModelError(
            f"{kind} flux needs f' < 0 on (-1, 0) and f' > 0 on (0, 1); model '{m.name}' fails that shape"
        )


def _scalarize(x, *args):
    return float(x) if all(np.ndim(a) == 0 for a in args) else x


def flux_rusanov(m: FluxModel, u, v):
    """(f(u) + f(v))/2 - (lam/2)(v - u) with the global bound lam = max |f'|."""
    lam = m.flux_lipschitz
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
    _require_shape(m, "eo")
    f0 = float(m.f(0.0))
    out = m.f(np.maximum(u, 0.0)) + m.f(np.minimum(v, 0.0)) - f0
    return _scalarize(out, u, v)


def _divided_difference(m: FluxModel, x, y):
    """(f(x) - f(y)) / (x - y), and f'(x) where x == y, in O(degree):
    synthetic division of f by s - y, summed by Horner at x in one loop."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    b = acc = np.zeros(np.broadcast(x, y).shape)
    for c in reversed(m.f_poly[1:]):
        b = c + y * b  # the quotient's coefficients, highest first
        acc = acc * x + b
    return acc


def _rusanov_increments(m: FluxModel, u, v):
    # the exact dd lies in [-lam, lam] by the mean value theorem, lam being
    # certified exactly, so the clip removes only the rounding of dd
    lam = m.flux_lipschitz
    dd = np.clip(_divided_difference(m, u, v), -lam, lam)
    return 0.5 * (lam + dd), 0.5 * (lam - dd)


def _selected_increments(m: FluxModel, u, v, c_states, d_states):
    """Increments of a flux that is f at selected states, with
    nf(u, v) - f(v) = f(a) - f(b) for (a, b) = c_states and likewise
    nf(u, v) - f(u) for d_states: each is dd(a, b) (a - b) / (u - v).  At
    u == v, where a == b, they take their limits, the positive part of
    dd(a, a) = f'(a) for C and the negative part for D."""
    flat = u == v
    jump = np.where(flat, np.inf, u - v)
    (a, b), (p, q) = c_states, d_states
    c, d = _divided_difference(m, a, b), _divided_difference(m, p, q)
    return (np.where(flat, np.maximum(c, 0.0), c * ((a - b) / jump)),
            np.where(flat, np.maximum(-d, 0.0), d * ((p - q) / jump)))


def _godunov_increments(m: FluxModel, u, v):
    # the state the flux selects; for u > v the end where f is larger, told
    # by the sign of dd(u, v) rather than by comparing rounded values of f
    chosen = np.where(u <= v, np.minimum(np.maximum(u, 0.0), v),
                      np.where(_divided_difference(m, u, v) >= 0.0, u, v))
    return _selected_increments(m, u, v, (chosen, v), (chosen, u))


def _engquist_osher_increments(m: FluxModel, u, v):
    return _selected_increments(m, u, v, (np.maximum(u, 0.0), np.maximum(v, 0.0)),
                                (np.minimum(v, 0.0), np.minimum(u, 0.0)))


@dataclass(frozen=True, eq=False)
class NumericalFlux:
    """A two-point monotone flux ``evaluate(m, u, v)`` with its Lipschitz
    bound for the CFL rule and, optionally, ``increments(m, u, v)``:
    Harten's coefficients (C, D) >= 0 with nf(u, v) - f(v) = C (u - v) and
    nf(u, v) - f(u) = -D (v - u).  ``step`` writes a bundled ``evaluate``
    into its kernel as formula text, and calls any other with the three
    arguments (m, left states, right states)."""

    kind: str
    lipschitz_bound: float
    evaluate: Callable
    increments: Optional[Callable] = None


_FLUXES = {
    "godunov": (flux_godunov, _godunov_increments),
    "eo": (flux_engquist_osher, _engquist_osher_increments),
    "rusanov": (flux_rusanov, _rusanov_increments),
}
FLUX_KINDS = tuple(_FLUXES)


def numerical_flux(kind: str, m: FluxModel) -> NumericalFlux:
    """Bind a named flux to a model with its Lipschitz bound and increments.

    For all three bundled fluxes the bound in either argument is max |f'|,
    the model's certified ``flux_lipschitz`` (for Rusanov that equals the
    dissipation coefficient lam).
    """
    if kind not in _FLUXES:
        raise DomainError(f"unknown flux kind '{kind}' (godunov | eo | rusanov)")
    if kind != "rusanov":
        _require_shape(m, kind)
    return NumericalFlux(kind, m.flux_lipschitz, *_FLUXES[kind])


@dataclass(frozen=True, eq=False)
class StateVector:
    """Cell averages at one time level; values must lie in [-1, 1].  They are
    copied and frozen unless already a read-only float array owning its data."""

    values: np.ndarray
    time: float
    step_index: int

    def __post_init__(self):
        vals = self.values
        if not (isinstance(vals, np.ndarray) and vals.dtype == np.float64
                and vals.flags.owndata and not vals.flags.writeable):
            vals = np.array(vals, dtype=float)  # own copy, frozen below
        if vals.ndim != 1 or vals.size == 0:
            raise ContractError("state values must be a nonempty 1D array")
        top, bottom = float(vals.max()), float(vals.min())  # both NaN if any value is NaN
        if not (top <= 1.0 and bottom >= -1.0):
            if math.isnan(top):
                raise NumericsError("NaN in state values")
            peak = max(top, -bottom)
            raise NumericsError(
                f"state leaves [-1, 1]: max |v| = {peak:.17g} (discrete maximum principle violated)"
            )
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)


@dataclass(frozen=True, eq=False)
class StepReport:
    """What one update used: the face fluxes, the face states and the time
    step.  states is [inner ghost, v, outer ghost], so face i reads states[i]
    and states[i + 1]; both arrays are read-only.

    Every diagnostic is rebuilt from these and the states before and after
    the step, at tau_used, with the step's own ghosts: the step's
    certificate by entropy.cell_entropy_residuals, whose convex
    coefficients come from convex_coefficients (from the flux's
    increments; the face fluxes only for a flux without them)."""

    fluxes: np.ndarray
    tau_used: float
    states: np.ndarray


def convex_coefficients(report: StepReport, mesh: RadialMesh, m: FluxModel, nf: NumericalFlux):
    """Convex-decomposition coefficients (A_center, A_left, A_right) per cell
    of a finished step: tau a_L C / |K| across the left face, tau a_R D / |K|
    across the right face, and 1 minus both, with nf's increments C and D
    at the report's face states.  A flux without increments gets the
    quotients of the recorded flux differences by the state jumps instead,
    0 across a zero jump."""
    if report.states.size != mesh.n_cells + 2:
        raise ContractError("report states do not match mesh cell count")
    left, right = report.states[:-1], report.states[1:]
    if nf.increments is not None:
        c, d = nf.increments(m, left, right)
    else:
        jump = np.where(left == right, np.inf, left - right)
        c, d = (report.fluxes - m.f(right)) / jump, (report.fluxes - m.f(left)) / jump
    scale = report.tau_used / mesh.widths
    # adding 0.0 clears the sign of a zero, so a zero coefficient reads 0.0
    a_left = scale * mesh.face_weights[:-1] * c[:-1] + 0.0
    a_right = scale * mesh.face_weights[1:] * d[1:] + 0.0
    return 1.0 - a_left - a_right, a_left, a_right


@dataclass(frozen=True, eq=False)
class _StepFactors:
    """The update's per-cell factors fixed by the mesh and a tau checked
    against the stability bound: a_R - a_L, tau/|K| and tau theta."""

    tau: float
    weight_jump: np.ndarray
    tau_per_width: np.ndarray
    tau_theta: np.ndarray


def _step_factors(mesh: RadialMesh, tau: float, tau_bound: float) -> _StepFactors:
    if not 0.0 < tau <= tau_bound:
        raise CflError(f"tau={tau:.17g} violates the stability bound {tau_bound:.17g}")
    return _StepFactors(tau, mesh.face_weights[1:] - mesh.face_weights[:-1], tau / mesh.widths,
                        tau * mesh.cell_thetas)


# The update on the face states s = [inner ghost, v, outer ghost]: {f} writes f(s) into f_s,
# {flux} the face fluxes into fluxes and {h} h(v) into src; a and b are scratch over the faces.
# a F is formed once over all faces, then a_R F_R - a_L F_L - f (a_R - a_L) in that order.
_STEP = """\
def kernel(m, evaluate, s, weights, weight_jump, tau_per_width, tau_theta):
    add, sub, mul, maximum, minimum = np.add, np.subtract, np.multiply, np.maximum, np.minimum
    left, right, v = s[:-1], s[1:], s[1:-1]
    f_s, a, b, v_new = np.empty(s.size), np.empty(left.size), np.empty(left.size), np.empty(v.size)
{f}
    f_left, f_right, f_v = f_s[:-1], f_s[1:], f_s[1:-1]
{flux}
    term, src = b[:-1], a[:-1]
    mul(weights, fluxes, a)
    sub(a[1:], a[:-1], term)
    mul(f_v, weight_jump, src)
    sub(term, src, term)
    mul(term, tau_per_width, term)
{h}
    add(f_v, src, src)
    mul(src, tau_theta, src)
    sub(v, term, v_new)
    add(v_new, src, v_new)
    return fluxes, v_new

return kernel
"""
# each bundled flux's {flux} statements, found by the identity of its evaluate, and the kind
# named if the model lacks the shape it needs; (x, out) writes f(x) into out
_FORMULAS = {
    flux_godunov: ("godunov", ("maximum(left, zero, out=a)", "minimum(a, right, out=a)", ("a", "b"),
                               "maximum(f_left, f_right, out=a)", "fluxes = np.where(left <= right, b, a)")),
    flux_engquist_osher: ("eo", ("fluxes = np.empty(a.size)", "maximum(left, zero, out=a)", ("a", "fluxes"),
                                 "minimum(right, zero, out=a)", ("a", "b"), "add(fluxes, b, fluxes)",
                                 "sub(fluxes, f_zero, fluxes)")),
    flux_rusanov: (None, ("fluxes = np.empty(a.size)", "add(f_left, f_right, fluxes)", "mul(half, fluxes, fluxes)",
                          "sub(right, left, a)", "mul(half_lam, a, a)", "sub(fluxes, a, fluxes)")),
}
_CALL = ("fluxes = np.asarray(evaluate(m, left, right), dtype=float)",)


@functools.lru_cache(maxsize=64)
def _step_kernel(f_poly, h_poly, formula, lam):
    """_STEP for the tuples of f and h and a flux formula (_CALL for a flux that is not
    bundled; lam = sup |f'| for Rusanov), f and h written in as _in_place statements.  Every
    coefficient and scalar is a 0-d array in a closure cell, which a ufunc takes faster than a float."""
    cells = {"zero": 0.0, "half": 0.5, "half_lam": 0.5 * lam, "f_zero": _evaluator(f_poly)(0.0)}
    flux = [line for item in formula
            for line in ([item] if isinstance(item, str) else _in_place(f_poly, item[0], "f_", item[1], cells))]
    parts = {"f": _in_place(f_poly, "s", "f_", "f_s", cells), "flux": flux,
             "h": _in_place(h_poly, "v", "h_", "src", cells)}
    source = _STEP.format(**{k: "\n".join(" " * 4 + line for line in lines) for k, lines in parts.items()})
    return _closure(source, {name: np.array(c) for name, c in cells.items()}, {"np": np})


def step(state: StateVector, mesh: RadialMesh, m: FluxModel, nf: NumericalFlux, tau: float,
         outer: OuterBoundary = COPY_BOUNDARY, inner_ghost: Optional[float] = None,
         factors: Optional[_StepFactors] = None) -> tuple[StateVector, StepReport]:
    """One explicit update, with no diagnostics on the path.

    Args:
        tau: time step; must not exceed the stability bound.
        inner_ghost: value read across the horizon face (multiplied by the
            exact-zero weight there, so it cannot influence the result for
            M > 0; exposed to let tests demonstrate exactly that).
        factors: the per-cell factors for this mesh and tau, as run builds
            them; built here, tau checked against max_timestep, if not given.

    The update runs in _step_kernel.  Returns the advanced state and a
    StepReport holding the face fluxes, the face states [inner ghost, v,
    outer ghost] and the time step, each array fresh.  A NaN in the update
    raises NumericsError ("NaN in state values") when the new StateVector
    is built.
    """
    v = state.values
    if v.size != mesh.n_cells:
        raise ContractError(f"state has {v.size} cells, mesh has {mesh.n_cells}")
    if factors is None:
        factors = _step_factors(mesh, tau, max_timestep(mesh, m, nf.lipschitz_bound))
    elif factors.tau != tau:
        raise ContractError(f"step factors are for tau={factors.tau:.17g}, not {tau:.17g}")
    shape_kind, formula = _FORMULAS.get(nf.evaluate, (None, _CALL))
    _require_shape(m, shape_kind)

    states = np.empty(v.size + 2)
    states[0] = v[0] if inner_ghost is None else float(inner_ghost)
    states[1:-1] = v
    states[-1] = outer.ghost(float(v[-1]))
    states.setflags(write=False)
    fluxes, v_new = _step_kernel(m.f_poly, m.h_poly, formula, m.flux_lipschitz)(
        m, nf.evaluate, states, mesh.face_weights, factors.weight_jump, factors.tau_per_width, factors.tau_theta)
    v_new.setflags(write=False)  # handed over to StateVector without a copy

    new_state = StateVector(values=v_new, time=state.time + tau, step_index=state.step_index + 1)
    fluxes.setflags(write=False)
    return new_state, StepReport(fluxes=fluxes, tau_used=float(tau), states=states)


def constant_data(value: float) -> Callable[[np.ndarray], np.ndarray]:
    """Initial data v(r) = value."""
    return lambda r: np.full_like(np.asarray(r, dtype=float), value)


def step_data(left: float, right: float, jump_r: float) -> Callable[[np.ndarray], np.ndarray]:
    """Riemann initial data: left below r = jump_r, right from there on."""
    return lambda r: np.where(np.asarray(r, dtype=float) < jump_r, left, right)


def bump_data(amplitude: float, center: float, width: float) -> Callable[[np.ndarray], np.ndarray]:
    """Gaussian initial data amplitude * exp(-((r - center) / width)^2)."""
    return lambda r: amplitude * np.exp(-np.square((np.asarray(r, dtype=float) - center) / width))


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
        initial_values: Optional[np.ndarray] = None,
        on_step: Optional[Callable[[StateVector, StateVector, StepReport], None]] = None) -> RunResult:
    """Evolve initial data to t_end with tau = cfl_fraction * max_timestep.

    The package's one time loop.  The last step is shortened to land exactly
    on t_end.  Snapshots are the initial state, every snapshot_every-th
    step, and the final state.  A t_end that is not positive and finite
    raises DomainError, and a cfl_fraction outside (0, 1] CflError (a
    DomainError), before the first step; a NaN or a state
    leaving [-1, 1] raises NumericsError.

    on_step(state_before, state_after, report), if given, sees every
    completed step before the snapshot and t_end bookkeeping;
    state_after.step_index counts it from 1 and report.tau_used is the
    step taken, the shortened last one included.

    max_timestep is computed once, and the step factors, which check tau
    against it, once for tau_base; the shortened last step builds its own.
    """
    if not 0.0 < t_end < math.inf:
        raise DomainError(f"t_end must be positive and finite, got {t_end}")
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
    base_factors = _step_factors(mesh, tau_base, tau_bound)

    snapshots = [state]
    while state.time < t_end:
        remaining = t_end - state.time
        tau = min(tau_base, remaining)
        factors = base_factors if tau == tau_base else _step_factors(mesh, tau, tau_bound)
        new_state, report = step(state, mesh, m, nf, tau, outer=outer, factors=factors)
        if on_step is not None:
            on_step(state, new_state, report)
        state = new_state
        if remaining <= tau_base:
            state = dataclasses.replace(state, time=t_end)
            break
        if state.step_index % snapshot_every == 0:
            snapshots.append(state)
    if snapshots[-1] is not state:
        snapshots.append(state)
    return RunResult(snapshots=snapshots, final=state, clamped_cells=clamped, steps=state.step_index,
                     tau_base=tau_base)
