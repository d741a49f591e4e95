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
The outer face reads a ghost too: the outermost cell's value (a
zero-gradient copy) when it is None, else a fixed state.

``step`` reads only the coefficient tuples of nf.model: the update and every
flux are numpy formulas (``_UPDATE``, ``NumericalFlux.formula``) that
``model._lower`` writes into one kernel as in-place ufuncs, from one of two
swapped state buffers (``_Buffers``) into the other.  A flux's evaluate runs
the same text in plain numpy, so the text is the flux's one definition.
"""

from __future__ import annotations

import ast
import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import CflError, ContractError, DomainError, NumericsError, UnsupportedModelError
from .geometry import RadialMesh, max_timestep
from .model import FluxModel, _closure, _evaluator, _lower, _parse, _with_source

_GAUSS3_OFFSET = math.sqrt(0.6)  # 3-point Gauss-Legendre nodes at center +/- offset*dr/2
_GAUSS3_WEIGHTS = (5.0 / 18.0, 8.0 / 18.0, 5.0 / 18.0)


def _require_shape(m: FluxModel, kind: Optional[str]) -> None:
    if kind in ("godunov", "eo") and not m.structure.flux_monotone_shape_ok:
        raise UnsupportedModelError(
            f"{kind} flux needs f' < 0 on (-1, 0) and f' > 0 on (0, 1); model '{m.name}' fails that shape"
        )


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


# kind: (the flux as numpy text, its increments): Godunov's exact Riemann flux for the unimodal shape,
# the split-derivative EO flux in closed form, and Rusanov's, with lam the global bound max |f'|
_FLUXES = {
    "godunov": ("fluxes = where(left <= right, f(minimum(maximum(left, 0.0), right)), maximum(f_left, f_right))",
                _godunov_increments),
    "eo": ("fluxes = f(maximum(left, 0.0)) + f(minimum(right, 0.0)) - f_zero", _engquist_osher_increments),
    "rusanov": ("fluxes = 0.5 * (f_left + f_right) - half_lam * (right - left)", _rusanov_increments),
}
FLUX_KINDS = tuple(_FLUXES)
# a flux's function: its formula in numpy after the _READS names it reads, so f runs only where it must
_FLUX = '''\
def flux_{kind}(m, left, right):
    """{formula}: the {kind} flux of m at the face states; a pair of scalars gives a float."""
    _require_shape(m, kind)
{reads}    {formula}
    return float(fluxes) if np.ndim(left) == np.ndim(right) == 0 else fluxes
return flux_{kind}
'''
_READS = {"f": "f = m.f", "f_left": "f_left = m.f(left)", "f_right": "f_right = m.f(right)",
          "half_lam": "half_lam = 0.5 * m.flux_lipschitz", "f_zero": "f_zero = m.f(0.0)"}
_FLUX_NAMES = {"np": np, "where": np.where, "maximum": np.maximum, "minimum": np.minimum,
               "_require_shape": _require_shape}


@functools.cache  # never evicts, so a text keeps one function, which a wrapper names by __wrapped__
def _numpy_flux(kind: str, formula: str) -> Callable:
    names = {node.id for node in ast.walk(_parse(formula)) if isinstance(node, ast.Name)}
    # reading a face state, it gives one flux per face; reading no other name, it runs here and in the step
    if not (kind.isidentifier() and "fluxes" in names and names & {"left", "right", "f_left", "f_right"}
            and names <= {"fluxes", "left", "right", "where", "maximum", "minimum", *_READS}):
        raise ContractError(f"flux {kind!r}: the kind must be a name, and {formula!r} must set fluxes from left"
                            f" and right with where, maximum, minimum, + - * / and {', '.join(_READS)}")
    try:  # as _step_kernel writes it, into its scratch a and b
        _lower(formula, {"f": (0.0,)}, {}, ["a", "b"])
    except ContractError as exc:
        raise ContractError(f"flux {kind!r}: {exc}") from None
    (statement, *rest) = _parse(formula).body  # each an assignment with one target, as _lower admits
    if rest or ast.unparse(statement.targets[0]) != "fluxes" or "fluxes" in {
            node.id for node in ast.walk(statement.value) if isinstance(node, ast.Name)}:
        raise ContractError(f"flux {kind!r}: {formula!r} must be one statement fluxes = ... that reads no fluxes")
    reads = "".join(f"    {line}\n" for name, line in _READS.items() if name in names)
    return _closure(_FLUX.format(kind=kind, formula=formula, reads=reads), {"kind": kind}, _FLUX_NAMES)


@dataclass(frozen=True, eq=False)
class NumericalFlux:
    """A two-point monotone flux of one model as its formula, numpy text setting ``fluxes`` from
    the face states ``left`` and ``right``, which ``step`` writes into its kernel and
    ``evaluate(m, u, v)`` runs in numpy; with, optionally, ``increments(m, u, v)``: Harten's
    coefficients (C, D) >= 0 with nf(u, v) - f(v) = C (u - v) and nf(u, v) - f(u) = -D (v - u).
    Its Lipschitz bound for the CFL rule is the model's ``flux_lipschitz``.  UnsupportedModelError
    refuses a Godunov or EO flux for a model without their shape, and ContractError a formula the
    step cannot write and an evaluate other than the formula's or a wrapper of it."""

    kind: str
    model: FluxModel
    formula: str
    increments: Optional[Callable] = None
    evaluate: Optional[Callable] = None  # an init field only so that dataclasses.replace can wrap it
    lipschitz_bound = property(lambda self: self.model.flux_lipschitz)

    def __post_init__(self):
        _require_shape(self.model, self.kind)
        built = _numpy_flux(self.kind, self.formula)
        if self.evaluate is None:
            object.__setattr__(self, "evaluate", built)
        elif built is not self.evaluate and built is not getattr(self.evaluate, "__wrapped__", None):
            raise ContractError(f"flux '{self.kind}': evaluate is not the function of its formula")


def numerical_flux(kind: str, m: FluxModel) -> NumericalFlux:
    """Bind a named flux to a model with its increments.

    For all three bundled fluxes the bound in either argument is max |f'|,
    the model's certified ``flux_lipschitz`` (for Rusanov that equals the
    dissipation coefficient lam).
    """
    if kind not in _FLUXES:
        raise DomainError(f"unknown flux kind '{kind}' (godunov | eo | rusanov)")
    return NumericalFlux(kind, m, *_FLUXES[kind])


@dataclass(frozen=True, eq=False)
class StateVector:
    """Cell averages at one time level; values must lie in [-1, 1].  They are
    copied and frozen."""

    values: np.ndarray
    time: float
    step_index: int

    def __post_init__(self):
        vals = np.array(self.values, dtype=float)  # own copy, frozen below
        if vals.ndim != 1 or vals.size == 0:
            raise ContractError("state values must be a nonempty 1D array")
        _require_in_range(vals)
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)


def _require_in_range(vals: np.ndarray, step_index: Optional[int] = None, time: float = 0.0,
                      scratch: Optional[np.ndarray] = None) -> None:
    """The exact maximum-principle check, one pass of |v| into scratch (of vals' shape; None allocates);
    with step_index, its NumericsError names the step, time and cell."""
    top = float(np.maximum.reduce(np.abs(vals, out=scratch)))  # max |v|, NaN if any value is NaN
    if top <= 1.0:
        return
    message = "NaN in state values" if math.isnan(top) else (
        f"state leaves [-1, 1]: max |v| = {top:.17g} (discrete maximum principle violated)")
    cell = int(np.argmin(np.abs(vals) <= 1.0))  # the first False: NaN compares False
    where = f" at step {step_index}, t = {time:.17g}, cell {cell} (v = {vals[cell]:.17g})"
    raise NumericsError(message if step_index is None else message + where)


@dataclass(frozen=True, eq=False)
class StepReport:
    """What one update used: the face fluxes, the face states and the time
    step.  states is [inner ghost, v, outer ghost] with v the state before
    the step, so face i reads states[i] and states[i + 1]; both read-only.

    Every diagnostic is rebuilt from these and the state after the step, at
    tau_used, with the step's own ghosts: the step's certificate by
    entropy.cell_entropy_residuals, whose convex coefficients come from
    convex_coefficients (from the flux's increments; the face fluxes only
    for a flux without them)."""

    fluxes: np.ndarray
    tau_used: float
    states: np.ndarray


def convex_coefficients(report: StepReport, mesh: RadialMesh, nf: NumericalFlux):
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
        c, d = nf.increments(nf.model, left, right)
    else:
        jump = np.where(left == right, np.inf, left - right)
        c, d = (report.fluxes - nf.model.f(right)) / jump, (report.fluxes - nf.model.f(left)) / jump
    scale = report.tau_used / mesh.widths
    # adding 0.0 clears the sign of a zero, so a zero coefficient reads 0.0
    a_left = scale * mesh.face_weights[:-1] * c[:-1] + 0.0
    a_right = scale * mesh.face_weights[1:] * d[1:] + 0.0
    return 1.0 - a_left - a_right, a_left, a_right


def _step_factors(mesh: RadialMesh, tau: float, tau_bound: float) -> tuple[np.ndarray, ...]:
    """The update's per-cell factors a_R - a_L, tau/|K| and tau theta, for a tau within its bound."""
    if not 0.0 < tau <= tau_bound:
        raise CflError(f"tau={tau:.17g} violates the stability bound {tau_bound:.17g}")
    return mesh.face_weights[1:] - mesh.face_weights[:-1], tau / mesh.widths, tau * mesh.cell_thetas


# The update on the face states s = [inner ghost, v, outer ghost]: f(s) into f_s, the flux over the
# faces with scratch a and b, then _UPDATE, its field h_v filled by _with_source, into v_new with
# scratch b_cells, as _lower writes them.
_STEP = """\
def kernel(s, v_new, f_s, a, b, weights, weight_jump, tau_per_width, tau_theta):
    add, subtract, multiply, divide = np.add, np.subtract, np.multiply, np.divide
    maximum, minimum = np.maximum, np.minimum
    left, right, v = s[:-1], s[1:], s[1:-1]
    f_left, f_right, f_v, b_cells = f_s[:-1], f_s[1:], f_s[1:-1], b[:-1]
{body}
    return fluxes

return kernel
"""
_UPDATE = ("a[...] = weights * fluxes\n"
           "v_new[...] = v - (a[1:] - a[:-1] - f_v * weight_jump) * tau_per_width + (f_v{h_v}) * tau_theta")


@functools.lru_cache(maxsize=64)
def _step_kernel(f_poly, h_poly, formula, lam):
    """_STEP for the tuples of f and h, a flux formula and lam = sup |f'|.  Every
    coefficient and scalar is a 0-d array in a closure cell, which a ufunc takes faster than a float."""
    cells, polys = {"half_lam": 0.5 * lam, "f_zero": _evaluator(f_poly)(0.0)}, {"f": f_poly, "h": h_poly}
    lines = _lower("f_s[...] = f(s)", polys, cells, [])
    lines += _lower(formula, polys, cells, ["a", "b"])
    lines += _lower(_with_source(_UPDATE, f_poly, h_poly, "v"), polys, cells, ["b_cells"])
    source = _STEP.format(body="\n".join(" " * 4 + line for line in lines))
    return _closure(source, {name: np.array(c) for name, c in cells.items()}, {"np": np, "where": np.where})


def _carve(sizes: tuple[int, ...]) -> list[np.ndarray]:
    """Float arrays of the given sizes from one block, the i-th starting 256 i bytes past a 4096-byte
    boundary: each on a cache line, and no two at one offset within a page.  At malloc's 16-byte
    alignment a 6400-cell step kernel call ran 10-25 % slower, by where each array happened to land."""
    page, starts, end = 512, [], 0  # in float64s
    for i, size in enumerate(sizes):
        starts.append(-(-end // page) * page + 32 * i)
        end = starts[-1] + size
    block = np.empty(end + page)
    base = -block.ctypes.data % 4096 // 8
    return [block[base + start:base + start + size] for start, size in zip(starts, sizes)]


class _Buffers:
    """A state stepped in place: two ghosted buffers [inner ghost, v, outer ghost] that the kernel
    writes into by turns, its scratch f_s, a and b, the face weights and the factors, all from one
    block (_carve); values is the interior holding the state.  The ghosts are checked first; the
    factors are built for tau, checking it against tau_bound (by default max_timestep), and built
    apart, each step, only for another tau."""

    def __init__(self, state, mesh, nf, outer_ghost, inner_ghost, tau, tau_bound=None):
        for name, ghost in (("inner_ghost", inner_ghost), ("outer_ghost", outer_ghost)):
            if ghost is not None and not -1.0 <= ghost <= 1.0:
                raise DomainError(f"{name} {ghost} outside [-1, 1]")
        if state.values.size != mesh.n_cells:
            raise ContractError(f"state has {state.values.size} cells, mesh has {mesh.n_cells}")
        m = nf.model
        self.kernel = _step_kernel(m.f_poly, m.h_poly, nf.formula, m.flux_lipschitz)
        n = mesh.n_cells
        self.s, self.s_next, f_s, a, b, self.weights, *self.factors = _carve((n + 2,) * 3 + (n + 1,) * 3 + (n,) * 3)
        self.scratch = f_s, a, b
        self.s[1:-1], self.weights[...] = state.values, mesh.face_weights
        self.mesh, self.ghosts = mesh, (inner_ghost, outer_ghost)
        self.tau_bound = max_timestep(mesh, m, nf.lipschitz_bound) if tau_bound is None else tau_bound
        self.tau = tau
        for factor, value in zip(self.factors, _step_factors(mesh, tau, self.tau_bound)):
            factor[...] = value
        self.time, self.step_index = state.time, state.step_index

    values = property(lambda self: self.s[1:-1])

    def advance(self, tau: float) -> np.ndarray:
        """Fill the ghosts, write the update into the other buffer, check its range and swap; returns
        the fluxes.  The states read stay in s_next until the next step overwrites them."""
        (s, s_next), (inner, outer) = (self.s, self.s_next), self.ghosts
        s[0] = s[1] if inner is None else inner
        s[-1] = s[-2] if outer is None else outer
        factors = self.factors if tau == self.tau else _step_factors(self.mesh, tau, self.tau_bound)
        v_new = s_next[1:-1]
        fluxes = self.kernel(s, v_new, *self.scratch, self.weights, *factors)
        self.step_index, self.time = self.step_index + 1, self.time + tau
        _require_in_range(v_new, self.step_index, self.time, self.scratch[2][:-1])  # b, free after the kernel
        self.s, self.s_next = s_next, s
        return fluxes

    def state(self) -> StateVector:
        """The state held, as a StateVector (an owned read-only copy)."""
        return StateVector(values=self.s[1:-1], time=self.time, step_index=self.step_index)

    def observed(self, fluxes: np.ndarray, tau: float) -> tuple[StateVector, StepReport]:
        """The state after the last step and its report, with owned read-only copies of the arrays."""
        states, fluxes = self.s_next.copy(), np.array(fluxes)
        states.setflags(write=False)
        fluxes.setflags(write=False)
        return self.state(), StepReport(fluxes=fluxes, tau_used=float(tau), states=states)


def step(state: StateVector, mesh: RadialMesh, nf: NumericalFlux, tau: float,
         outer_ghost: Optional[float] = None,
         inner_ghost: Optional[float] = None) -> tuple[StateVector, StepReport]:
    """One explicit update of nf's model, with no diagnostics on the path.

    Args:
        tau: time step; checked against max_timestep.
        outer_ghost, inner_ghost: the fixed states read across the outer and
            the horizon face, or None to copy the cell beside it; outside [-1, 1]
            DomainError, before any other check.  The inner one meets the exact-zero
            weight, so it cannot influence the result for M > 0 (exposed for tests).

    Returns the advanced state and a StepReport holding the face fluxes,
    the face states [inner ghost, v, outer ghost] and the time step, each
    array fresh.  A NaN or a value outside [-1, 1] in the update raises
    NumericsError, naming the step, its time and the first such cell.
    run takes every step through this name, so a wrapper on it sees each
    one: given run's _Buffers as state, it steps them in place and returns
    them and the fluxes, which the next step overwrites.
    """
    if isinstance(state, _Buffers):
        return state, state.advance(tau)
    live = _Buffers(state, mesh, nf, outer_ghost, inner_ghost, tau)
    return live.observed(live.advance(tau), tau)


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
    """Snapshots plus bookkeeping from one time evolution: the step count and the base step."""

    snapshots: list
    final: StateVector
    steps: int
    tau_base: float


def run(mesh: RadialMesh, nf: NumericalFlux, values: np.ndarray,
        t_end: float = 1.0, cfl_fraction: float = 0.9, snapshot_every: int = 10,
        outer_ghost: Optional[float] = None,
        on_step: Optional[Callable[[StateVector, StepReport], None]] = None) -> RunResult:
    """Evolve the cell averages values (see project_initial) of nf's model to t_end, tau = cfl_fraction * max_timestep.

    The package's one time loop, with step's outer_ghost.  The last step is shortened to land exactly
    on t_end.  Snapshots are the initial state, every snapshot_every-th
    step, and the final state.  Before the first step, DomainError refuses a t_end that is not
    positive and finite, a snapshot_every that is not an integer >= 1, values outside [-1, 1]
    (ContractError if not one per cell) or an outer_ghost outside it and, as CflError, a
    cfl_fraction outside (0, 1].
    A NaN or a state leaving [-1, 1] raises NumericsError naming the step, time and first cell.

    on_step(state_after, report), if given, sees every completed step
    before the snapshot and t_end bookkeeping; state_after.step_index
    counts it from 1, report.states holds the state before it and
    report.tau_used is the step taken, the shortened last one included.

    max_timestep is computed once, and the step factors, which check tau
    against it, once for tau_base; the shortened last step builds its own.
    Each step is taken in place; a StateVector is built only where one is read.
    """
    if not 0.0 < t_end < math.inf:
        raise DomainError(f"t_end must be positive and finite, got {t_end}")
    if not (isinstance(snapshot_every, (int, np.integer)) and snapshot_every >= 1):
        raise DomainError(f"snapshot_every must be an integer >= 1, got {snapshot_every!r}")

    values = np.asarray(values, dtype=float)
    if values.shape != (mesh.n_cells,):
        raise ContractError(f"values has shape {values.shape}, mesh has {mesh.n_cells} cells")
    if not np.all(np.abs(values) <= 1.0):
        raise DomainError("values outside [-1, 1]")

    state = StateVector(values=values, time=0.0, step_index=0)
    tau_bound = max_timestep(mesh, nf.model, nf.lipschitz_bound)
    tau_base = cfl_fraction * tau_bound
    live = _Buffers(state, mesh, nf, outer_ghost, None, tau_base, tau_bound)

    snapshots = [state]
    while live.time < t_end:
        remaining = t_end - live.time
        tau = min(tau_base, remaining)
        _, fluxes = step(live, mesh, nf, tau)
        if on_step is not None:
            state, report = live.observed(fluxes, tau)
            on_step(state, report)
        if remaining <= tau_base:
            live.time = t_end
            break
        if live.step_index % snapshot_every == 0:
            snapshots.append(state if state.step_index == live.step_index else live.state())
    if snapshots[-1].step_index != live.step_index:
        snapshots.append(live.state())
    return RunResult(snapshots=snapshots, final=snapshots[-1], steps=live.step_index, tau_base=tau_base)
