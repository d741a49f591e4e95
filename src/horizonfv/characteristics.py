"""Characteristic tracing, the implicit profile relation, and steady states.

This module is the solver's independent oracle.  Along a characteristic of
the balance law the state obeys an autonomous ODE system in the parameter
s, and the combination Fhat(u) - log a(r) is conserved, where

    Fhat(u) = integral_0^u f'(w) / (f(w) + h(w)) dw.

Fhat is negative away from 0 and diverges to -infinity at both ends of the
state interval (the integrand has a simple pole there), splitting into a
strictly decreasing branch on [0, 1) and a strictly increasing branch on
(-1, 0].  Inverting a branch answers three questions at once: the escape
threshold at a given radius, the terminal state of an escaping
characteristic, and the radial profile of a steady solution.

Fhat is a closed form.  With f + h = (s**2 - 1) q, the factors s -+ 1
divided out exactly, partial fractions over the roots rho of q give
Fhat(u) = c+ log1p(-u) + c- log1p(u) + sum Re[c_rho log1p(-u/rho)] + P(u),
with residue c = f'(z) / (f + h)'(z) at each root z and P the integral of
the polynomial part; a q with a repeated root is refused.  The remainder
of that division, which admission forgives up to 1e-12 as the rounding of
decimal coefficients, is dropped.  One adaptive-Simpson segment per
branch cross-checks the residues, and the branches are inverted by a
safeguarded Newton iteration over all targets at once.

An alternative time slicing, regular across r = 2M when its shift
parameter R0 lies in (0, M], yields a second tracer for the built-in
quadratic model; both tracers conserve (1 - u^2) / a and describe the same
(radius, state) curves up to reparametrization.  How far the shifted
tracer meaningfully probes below r = 2M in the original radius is a matter
of interpretation, not asserted by any check here; its own radial
coordinate stays above 2M.

Both tracers run one RK4 loop in Python floats, compiled from one source
template with the stage right-hand side written into it as text; the
shooting oracle's RK4 on arrays (``harness._chars_kernel``) is its numpy
formulas lowered to in-place ufuncs by ``model._lower``.  f, f' and h are
written in as the Horner text of the model's coefficient tuples, read from
closure cells; no kernel calls the model's evaluators.  The exterior
tracer's text leaves out what ``_lower`` leaves out: a product with a lead
of exactly 1.0, and a zero source where f(0) != 0.  Both folds are exact
while the trace stays finite, and a trace that does not is refused.
Kernels are cached per set of tuples.
"""

from __future__ import annotations

import functools
import math
import textwrap
from dataclasses import dataclass
from itertools import zip_longest

import numpy as np

from .errors import DomainError, NumericsError, RangeError, StepSizeError, UnsupportedModelError
from .geometry import Background
from .model import (_SCALE, FluxModel, _closure, _deflate, _evaluator, _has_repeated_root, _horner,
                    _integers, _polyder, _polyint, _source_vanishes, _trimmed)
from .quadrature import adaptive_simpson

_HORIZON_GUARD = 1e-6  # halt tracing once r < 2M (1 + guard)
_U_OVERSHOOT_TOL = 1e-9

_NEWTON_TOL = 1e-14  # |du| at which an inverse counts as converged
_NEWTON_MAX_ITER = 100
_MAX_TRACE_STEPS = 10 ** 6  # 200 times the default 5000 steps; about 190 MB of rows
_SERIES_TERMS = 30
_NOT_FINITE = "the trace left the finite numbers"


@dataclass(frozen=True)
class CharState:
    """One sample along a characteristic: parameter, time, radius, state."""

    s: float
    t: float
    r: float
    u: float


@dataclass(frozen=True, eq=False)
class CharPath:
    """A sampled characteristic trajectory in either coordinate system."""

    s: np.ndarray
    t: np.ndarray
    r: np.ndarray
    u: np.ndarray
    stop_reason: str  # "s_max" | "horizon" | "r_stop"

    def __len__(self) -> int:
        return self.s.size


class FhatTable:
    """Fhat of one admissible model in closed form, with monotone branch samples.

    Near 0, for |u| below a quarter of the distance to the nearest pole of
    f' / (f + h), the residue logarithms cancel and ``value`` sums the
    Taylor series of Fhat at 0 instead.  Against log1p(-u) + log1p(u)
    (Burgers) and that plus log1p(u**2) (quartic) it is within 1e-13 for
    every |u| <= 1 - epsilon, the clamp.  Construction refuses an
    inadmissible model (UnsupportedModelError naming the flags) and checks
    the branch samples: decreasing and negative on the plus branch,
    increasing and negative on the minus branch.  Immutable and thread-safe.
    """

    epsilon = 1e-9  # Fhat is evaluated for |u| <= 1 - epsilon only

    def __init__(self, model: FluxModel):
        self.model = m = model.require_admissible()
        q = _deflate(_deflate(_integers(m.f_poly, m.h_poly), 1), -1)
        if _has_repeated_root(q):
            raise UnsupportedModelError(f"model '{m.name}': q = (f + h) / (s**2 - 1) has a repeated root; "
                                        "the closed-form Fhat needs simple roots")
        qc = tuple(c / _SCALE for c in q)
        self._q = _evaluator(qc)
        self._roots = roots = np.roots(qc[::-1]).astype(complex)
        self._c_ends = (float(m.df(1.0) / self._q(1.0)) / 2.0, -float(m.df(-1.0) / self._q(-1.0)) / 2.0)
        self._c_roots = m.df(roots) / ((roots * roots - 1.0) * _evaluator(_polyder(qc))(roots))
        d = [(a - b) / _SCALE for a, b in zip_longest([0, 0, *q], q, fillvalue=0)]  # (s**2 - 1) q
        dfc = _polyder(m.f_poly)
        self._poly = _evaluator(_trimmed(_polyint(np.polydiv(dfc[::-1], d[::-1])[0][::-1])))
        # Taylor coefficients of f' / (f + h) at 0 by series division; each
        # is exactly zero where those of f' are
        fp, series = list(dfc) + [0.0] * _SERIES_TERMS, []
        for k in range(_SERIES_TERMS):
            series.append((fp[k] - sum(dj * series[k - j] for j, dj in enumerate(d[1:k + 1], 1))) / d[0])
        self._series = _evaluator(_trimmed(_polyint(series)))
        self._series_radius = 0.25 * float(np.min(np.abs(roots), initial=1.0))

        def integrand(w):
            return m.df(w) / (m.f(w) + m.h(w))

        for u in (0.5, -0.5):
            # the relative goal absorbs the cancellation noise of f + h
            closed, quad = self.value(u), adaptive_simpson(integrand, 0.0, u, 1e-14, 3e-11)
            if not abs(closed - quad) <= 1e-9:
                raise DomainError(f"model '{m.name}': closed-form Fhat({u}) = {closed!r} disagrees with "
                                  f"quadrature {quad!r}")

        # 257 linear samples over [0, 0.5], then 1023 more at u = 1 - delta
        # with delta shrinking geometrically, by under 2 % a step, to epsilon
        tail = 1.0 - 0.5 * np.power(2.0 * self.epsilon, np.linspace(0.0, 1.0, 1024))
        self.plus_u = np.concatenate((np.linspace(0.0, 0.5, 257), tail[1:]))
        self.minus_u = -self.plus_u[::-1]
        self.minus_f, self.plus_f = np.split(self.value(np.concatenate((self.minus_u, self.plus_u))), 2)

        if not (np.all(np.diff(self.plus_f) < 0.0) and np.all(self.plus_f[1:] < 0.0)):
            raise DomainError(f"model '{m.name}': Fhat is not decreasing and negative on (0, 1)")
        if not (np.all(np.diff(self.minus_f) > 0.0) and np.all(self.minus_f[:-1] < 0.0)):
            raise DomainError(f"model '{m.name}': Fhat is not increasing and negative on (-1, 0)")

    def value(self, u):
        """Fhat(u) for a scalar (returned as a float) or an array of states."""
        w = np.asarray(u, dtype=float)
        if np.any(np.abs(w) > 1.0 - self.epsilon):
            raise DomainError(f"Fhat argument {w.flat[np.argmax(np.abs(w))]} outside the clamped domain "
                              f"[-1 + {self.epsilon}, 1 - {self.epsilon}]")
        out = (self._c_ends[0] * np.log1p(-w) + self._c_ends[1] * np.log1p(w) + self._poly(w)
               + np.sum((self._c_roots * np.log1p(-w[..., None] / self._roots)).real, axis=-1))
        near = np.abs(w) <= self._series_radius
        out = np.where(near, self._series(np.where(near, w, 0.0)), out)
        return float(out) if out.ndim == 0 else out

    def slope(self, u: np.ndarray) -> np.ndarray:
        """dFhat/du = f'(u) / ((u - 1)(u + 1) q(u)), free of the cancellation in f + h."""
        return self.model.df(u) / ((u - 1.0) * (u + 1.0) * self._q(u))

    def branch(self, name: str):
        if name == "plus":
            return self.plus_u, self.plus_f
        if name == "minus":
            return self.minus_u, self.minus_f
        raise DomainError(f"branch must be 'plus' or 'minus', got {name!r}")


def build_fhat_table(m: FluxModel) -> FhatTable:
    return FhatTable(m)


def fhat_inverse(table: FhatTable, branch: str, y):
    """Invert one monotone branch of Fhat at a scalar or an array of targets.

    Each target is bracketed between two branch samples and solved by
    Newton's method from the secant guess, falling back to bisection
    whenever a step leaves the bracket or fails to halve, until the step or
    the bracket is below 1e-14.  A scalar target returns a float; a NaN
    target raises DomainError.
    """
    target = np.asarray(y, dtype=float)
    if np.any(np.isnan(target)):
        raise DomainError("Fhat inverse target is NaN")
    if np.any(target > 0.0):
        raise RangeError(f"Fhat only takes values <= 0, got target {float(np.max(target))}")
    us, fs = table.branch(branch)
    f_min = float(np.min(fs))
    if np.any(target < f_min):
        raise RangeError(f"target {float(np.min(target))} below the achievable range of the {branch} "
                         f"branch (min {f_min:.6g})")

    # sign * Fhat increases along the branch samples, which ascend in u
    sign = -1.0 if branch == "plus" else 1.0
    idx = np.clip(np.searchsorted(sign * fs, sign * target), 1, us.size - 1)
    lo, hi = us[idx - 1], us[idx]
    u = np.clip(lo + (hi - lo) * ((target - fs[idx - 1]) / (fs[idx] - fs[idx - 1])), lo, hi)
    last_step = hi - lo
    active = np.ones(target.shape, dtype=bool)
    for _ in range(_NEWTON_MAX_ITER):
        g = sign * (table.value(u) - target)
        lo = np.where(g <= 0.0, u, lo)
        hi = np.where(g >= 0.0, u, hi)
        with np.errstate(divide="ignore", invalid="ignore"):
            new = np.where(g == 0.0, u, u - g / (sign * table.slope(u)))
        newton = (lo <= new) & (new <= hi) & (np.abs(new - u) <= 0.5 * last_step)
        new = np.where(newton, new, 0.5 * (lo + hi))
        last_step = np.abs(new - u)
        u = np.where(active, new, u)
        active &= (last_step > _NEWTON_TOL) & (hi - lo > _NEWTON_TOL)
        if not np.any(active):
            break
    else:
        raise NumericsError(f"Fhat inverse on the {branch} branch did not converge")
    u = np.where(target == 0.0, 0.0, u)
    return float(u) if u.ndim == 0 else u


def steady_profile(table: FhatTable, mass: float, r0: float, u0: float, r_grid) -> np.ndarray:
    """Steady-state profile through (r0, u0) on its Fhat branch.

    Solves Fhat(u(r)) = Fhat(u0) + log(a(r)/a(r0)) at every radius with
    one inverse.  u0 = 0 is rejected (the profile ODE is singular at the
    sonic value), and so is a radius that is not finite; radii whose
    implicit value leaves the branch range raise RangeError with the
    admissible interval in the message.  A mass below 0 or not finite is refused first.
    """
    Background(mass)
    if u0 == 0.0:
        raise DomainError("steady profiles need u0 != 0 (f'(0) = 0 makes the profile ODE singular)")
    if not abs(u0) <= 1.0 - table.epsilon:
        raise DomainError(f"u0={u0} must satisfy |u0| <= 1 - {table.epsilon}")
    if not math.isfinite(r0):
        raise DomainError(f"anchor radius r0={r0} is not finite")
    if not r0 > 2.0 * mass:
        raise DomainError(f"anchor radius r0={r0} must exceed the horizon radius {2 * mass}")
    grid = np.asarray(r_grid, dtype=float)
    if not np.all(np.isfinite(grid)):
        raise DomainError(f"steady profile radius {grid[~np.isfinite(grid)].flat[0]} is not finite")
    if np.any(grid <= 2.0 * mass):
        raise DomainError("steady profile radii must exceed the horizon radius")

    branch = "plus" if u0 > 0.0 else "minus"
    f_min = float(np.min(table.branch(branch)[1]))
    f0 = table.value(u0)
    a0 = 1.0 - 2.0 * mass / r0
    y = f0 + np.log((1.0 - 2.0 * mass / grid) / a0)
    outside = (y > 0.0) | (y < f_min)
    if np.any(outside):
        # the profile stays on its branch for a0 e^(f_min - f0) <= a(r) <= a0 e^(-f0)
        lo, hi = (2.0 * mass / (1.0 - a) if a < 1.0 else math.inf
                  for a in (a0 * math.exp(f_min - f0), a0 * math.exp(-f0)))
        raise RangeError(f"steady profile leaves the {branch} branch at r={grid[outside].flat[0]}; "
                         f"admissible radii: [{lo:.9g}, {hi:.9g}]")
    out = fhat_inverse(table, branch, y)
    # decreasing in r for u0 > 0, increasing for u0 < 0
    if np.any(math.copysign(1.0, u0) * np.diff(np.ravel(out)[np.argsort(grid.ravel())]) > 1e-9):
        raise RangeError("steady profile failed its monotonicity check "
                         f"(expected {'decreasing' if u0 > 0.0 else 'increasing'} in r)")
    return out


def _guard_u(u: float) -> float:
    """Clamp tiny excursions of the traced state beyond [-1, 1]; larger
    excursions mean the step size is too coarse for the current dynamics.
    A state that is not finite raises OverflowError (see _RK4_LOOP)."""
    if not math.isfinite(u):
        raise OverflowError(_NOT_FINITE)
    if u > 1.0:
        if u - 1.0 > _U_OVERSHOOT_TOL:
            raise StepSizeError(f"traced state overshot to u={u:.17g}; shrink ds")
        return 1.0
    if u < -1.0:
        if -1.0 - u > _U_OVERSHOOT_TOL:
            raise StepSizeError(f"traced state overshot to u={u:.17g}; shrink ds")
        return -1.0
    return u


def trace_exterior(m: FluxModel, mass: float, start: CharState, ds: float, s_max: float,
                   r_stop: float | None = None) -> CharPath:
    """Fixed-step classical RK4 trace of the exterior characteristic system.

    Halts early once the radius drops below 2M (1 + 1e-6) or exceeds
    r_stop; a step whose internal stages would leave the exterior domain is
    discarded and counts as horizon arrival.  A trace that leaves the finite
    numbers raises NumericsError.  The right-hand side
    (dt/ds, dr/ds, du/ds) = (1/a^2, f'(u)/a, 2M (f(u) + h(u)) / (r - 2M)^2),
    with a = 1 - 2M/r, is written into the loop (see _exterior_kernel).
    """
    Background(mass)
    if not 0.0 < ds < math.inf:
        raise DomainError(f"ds = {ds} must be finite and positive")
    guard_r = 2.0 * mass * (1.0 + _HORIZON_GUARD)
    kernel = _exterior_kernel(m.f_poly, _polyder(m.f_poly), m.h_poly)
    return _rk4_trace(kernel, (2.0 * mass,), start, ds, s_max, guard_r, r_stop)


def h_prime_interior(mass: float, shift: float, big_r: float) -> float:
    """Slope dh/dR of the time-shift between the two slicings.

    Requires R > 2M and r = R - shift > 0.  The radicand
    1 - (1 - 2M/R) R^2 / r^2 is computed as (shift^2 + 2R(M - shift)) / r^2,
    which it is exactly: no 1 - 1 cancels its digits at large R, and for
    shift <= M it is a sum of terms >= 0.  For shift > M a negative radicand
    raises with the valid R-range in the message.
    """
    if not big_r > 2.0 * mass:
        raise DomainError(f"R={big_r} must exceed 2M={2 * mass}")
    small_r = big_r - shift
    if not small_r > 0.0:
        raise DomainError(f"R - shift must be positive, got {small_r}")
    radicand = (shift * shift + 2.0 * big_r * (mass - shift)) / (small_r * small_r)
    if radicand < 0.0:
        r_limit = shift * shift / (2.0 * (shift - mass))
        raise DomainError(f"negative radicand at R={big_r} (valid range: 2M < R < {r_limit:.9g})")
    return math.sqrt(radicand) * big_r / (big_r - 2.0 * mass)


def trace_interior(mass: float, shift: float, start: tuple[float, float, float], ds: float,
                   s_max: float, r_stop: float | None = None) -> CharPath:
    """RK4 trace of the quadratic-model characteristics in the shifted slicing.

    ``start`` is (t, R, u) with R the shifted radial coordinate.  The state
    equation du/ds = (M/R^2)(u^2 - 1) is horizon-regular, so these traces
    approach R = 2M without the stiffness of the static slicing.
    """
    if not 0.0 < ds < math.inf:
        raise DomainError(f"ds = {ds} must be finite and positive")
    guard_r = 2.0 * mass * (1.0 + _HORIZON_GUARD)
    t0, r0, u0 = start
    return _rk4_trace(_interior_kernel(), (mass, shift), CharState(s=0.0, t=t0, r=r0, u=u0), ds, s_max,
                      guard_r, r_stop)


# The RK4 loop of both tracers.  {k1} to {k4} stand for the source lines
# of one stage of the system: from a radius and a state they compute the
# three rates k<i>t, k<i>r, k<i>u.  A stage radius not above guard_r
# discards its step and ends the trace at "horizon"; u goes through
# _guard_u only when it is not in [-1, 1] (NaN included).  A trace that
# leaves the finite numbers raises OverflowError: _guard_u refuses a state
# after a step that is not finite, and the loop an end at "horizon" whose
# radius or last stage radius is not finite.  Once a stage state is not
# finite, every later stage radius and the step's new state are infinite
# or NaN, so the step writes no row and ends in that refusal; that the
# rates of its later stages differ between two texts (_exterior_kernel's
# folds give +-inf where the unfolded text gives NaN) decides nothing.
_RK4_LOOP = """\
def kernel({params}, s, t, r, u, ds, steps, guard_r, r_stop):
    rows = [s, t, r, u]
    half, sixth = 0.5 * ds, ds / 6.0
    reason = "horizon"
    for _ in range(steps):
{k1}
        stage_r = r + half * k1r
        if not stage_r > guard_r:
            break
        stage_u = u + half * k1u
{k2}
        stage_r = r + half * k2r
        if not stage_r > guard_r:
            break
        stage_u = u + half * k2u
{k3}
        stage_r = r + ds * k3r
        if not stage_r > guard_r:
            break
        stage_u = u + ds * k3u
{k4}
        t += sixth * (k1t + 2.0 * k2t + 2.0 * k3t + k4t)
        r += sixth * (k1r + 2.0 * k2r + 2.0 * k3r + k4r)
        u += sixth * (k1u + 2.0 * k2u + 2.0 * k3u + k4u)
        s += ds
        if not -1.0 <= u <= 1.0:
            u = _guard_u(u)
        if not r > guard_r:
            break
        rows += s, t, r, u
        if r_stop is not None and r > r_stop:
            reason = "r_stop"
            break
    else:
        reason = "s_max"
    if reason == "horizon" and not isfinite(r + stage_r):
        raise OverflowError(_NOT_FINITE)
    return rows, reason

return kernel
"""


_LOOP_NAMES = {"_guard_u": _guard_u, "isfinite": math.isfinite, "_NOT_FINITE": _NOT_FINITE}


def _rk4_source(params: str, stage) -> str:
    """_RK4_LOOP with stage(k, r, u), the lines that set k + "t", k + "r"
    and k + "u" from the radius and state named r and u, written in."""
    def lines(k, r, u):
        return textwrap.indent(stage(k, r, u), " " * 8)

    return _RK4_LOOP.format(params=params, k1=lines("k1", "r", "u"),
                            **{f"k{i}": lines(f"k{i}", "stage_r", "stage_u") for i in (2, 3, 4)})


@functools.lru_cache(maxsize=64)
def _exterior_kernel(f_poly, df_poly, h_poly):
    """The RK4 kernel of the exterior system for r > two_m = 2M, taking
    two_m first.  The Horner text of f, f' and h is written into the
    stage, read from closure cells, with the two folds of _lower: a lead
    of exactly 1.0 is left out (Burgers' f'(u) is u), and so is h where
    _source_vanishes.  Both leave every value bitwise unchanged while the
    stage states are finite, and a trace whose stage state is not finite
    is refused in either text (see _RK4_LOOP)."""
    cells = {}

    def value(name, poly, u):
        expr, named = _horner(poly, u, name + "_", unit_lead=True)
        cells.update(named)
        return f"({expr})"

    def stage(k, r, u):
        f, df = value("f", f_poly, u), value("df", df_poly, u)
        fh = f if _source_vanishes(f_poly, h_poly) else f"({f} + {value('h', h_poly, u)})"
        return (f"a = 1.0 - two_m / {r}\n"
                f"{k}t, {k}r, {k}u = 1.0 / (a * a), {df} / a, (two_m / ({r} - two_m) ** 2) * {fh}")

    source = _rk4_source("two_m", stage)
    return _closure(source, cells, _LOOP_NAMES)


@functools.lru_cache(maxsize=1)
def _interior_kernel():
    """The RK4 kernel of the shifted slicing, taking (mass, shift) first."""
    def stage(k, r, u):
        return (f"a = 1.0 - 2.0 * mass / {r}\n"
                f"hp = h_prime_interior(mass, shift, {r})\n"
                f"{k}t, {k}r, {k}u = 1.0 + hp * {u} * a, a * {u}, (mass / ({r} * {r})) * ({u} * {u} - 1.0)")

    return _closure(_rk4_source("mass, shift", stage), {}, {**_LOOP_NAMES, "h_prime_interior": h_prime_interior})


def _rk4_trace(kernel, params: tuple, start: CharState, ds: float, s_max: float, guard_r: float,
               r_stop: float | None) -> CharPath:
    """Run kernel(*params, ...) from start: the checks of the start and the
    step count, at most _MAX_TRACE_STEPS, and the rows turned into a read-only
    CharPath.  A float overflow in the kernel, a trace that leaves the
    finite numbers, or a division by a zero that underflowed (where IEEE
    gives inf or nan) raises NumericsError naming the start and ds."""
    if not (abs(start.u) - 1.0 <= _U_OVERSHOOT_TOL and math.isfinite(start.t) and math.isfinite(start.r)):
        raise DomainError(f"start state t={start.t}, r={start.r}, u={start.u} needs finite t and r, and |u| <= 1")
    u = _guard_u(start.u)
    if not start.r > guard_r:
        raise DomainError(f"start radius {start.r} is inside the horizon guard {guard_r}")
    steps = (s_max - start.s) / ds
    if not math.isfinite(steps):
        raise DomainError(f"step count (s_max - s0) / ds = ({s_max} - {start.s}) / {ds} is not finite")
    if round(steps) > _MAX_TRACE_STEPS:
        raise DomainError(f"step count (s_max - s0) / ds = {steps:.17g} exceeds the cap of {_MAX_TRACE_STEPS} steps")
    try:
        rows, reason = kernel(*params, start.s, start.t, start.r, u, ds, max(int(round(steps)), 0), guard_r,
                              r_stop)
    except (OverflowError, ZeroDivisionError) as exc:  # Python float arithmetic, unlike numpy's, raises
        why = _NOT_FINITE if isinstance(exc, ZeroDivisionError) else exc
        raise NumericsError(f"trace from r={start.r}, u={start.u} with ds={ds} overflowed: {why}") from None
    columns = np.fromiter(rows, float, len(rows)).reshape(-1, 4).T
    columns.setflags(write=False)
    return CharPath(*columns, stop_reason=reason)


def exterior_invariant(table: FhatTable, mass: float, path: CharPath) -> np.ndarray:
    """Fhat(u) - log a(r) along a path; constant on exact characteristics."""
    Background(mass)
    u = np.clip(path.u, -1.0 + table.epsilon, 1.0 - table.epsilon)
    return table.value(u) - np.log(1.0 - 2.0 * mass / path.r)


def interior_invariant(mass: float, path: CharPath) -> np.ndarray:
    """(1 - u^2) / a(R) along a shifted-slicing path; conserved exactly."""
    return (1.0 - np.square(path.u)) / (1.0 - 2.0 * mass / path.r)
