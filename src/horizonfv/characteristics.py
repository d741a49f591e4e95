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

An alternative time slicing, regular across r = 2M when its shift
parameter R0 lies in (0, M], yields a second tracer for the built-in
quadratic model; both tracers conserve (1 - u^2) / a and describe the same
(radius, state) curves up to reparametrization.  How far the shifted
tracer meaningfully probes below r = 2M in the original radius is a matter
of interpretation, not asserted by any check here; its own radial
coordinate stays above 2M.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, RangeError, StepSizeError
from .model import FluxModel
from .quadrature import adaptive_simpson

_HORIZON_GUARD = 1e-6  # halt tracing once r < 2M (1 + guard)
_U_OVERSHOOT_TOL = 1e-9

INVERSE_TOL = 1e-12


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


@dataclass(frozen=True)
class Fate:
    """Late-time classification of a characteristic."""

    kind: str  # "falls_in" | "escapes" | "marginal"
    u_limit: float
    r_limit_finite: bool


class FhatTable:
    """Memoized evaluator of Fhat with monotone branch sample tables.

    Construction samples both branches on [0, 1 - epsilon] and
    [-1 + epsilon, 0] (log-clustered toward the singular ends) and builds
    the integral cumulatively: each node adds one adaptive-Simpson segment
    to its predecessor, so the evaluation is a composite Simpson rule over
    [0, u].  Against the closed forms log(1 - u**2) (Burgers) and
    log(1 - u**4) (quartic) it is within 1e-12 for |u| < 1 - 1e-6 and off
    by up to about 5e-9 within 1e-8 of +/-1, where f + h cancels.
    Arbitrary arguments reuse the nearest cached prefix.  A model that
    fails a structural flag is refused first (UnsupportedModelError naming
    the flags), since f + h may then vanish inside.  The monotonicity
    pattern (decreasing and negative on the plus branch, increasing and
    negative on the minus branch) is asserted at construction.  After
    ``freeze`` the value cache stops growing and the table is safe to share
    across threads.
    """

    # per-segment quadrature goals; the relative part accommodates the
    # cancellation noise of f + h evaluated within ~1e-9 of its roots
    _SEGMENT_TOL = 1e-14
    _SEGMENT_REL = 3e-11

    def __init__(self, model: FluxModel, epsilon: float = 1e-9, branch_samples: int = 512):
        if not 0.0 < epsilon < 1.0:
            raise DomainError("epsilon must lie in (0, 1)")
        self.model = model.require_admissible()
        self.epsilon = float(epsilon)
        self._memo: dict[float, float] = {0.0: 0.0}
        self._frozen = False

        # linear samples over [0, 0.5], then log-clustered toward the pole:
        # u = 1 - delta with delta shrinking geometrically from 0.5 to epsilon,
        # so every segment sees only a few percent of integrand variation
        head = np.linspace(0.0, 0.5, branch_samples // 2 + 1)
        n_tail = max(2 * branch_samples, int(math.ceil(math.log(0.5 / epsilon) / math.log(1.02))))
        tail = 1.0 - 0.5 * np.power(2.0 * epsilon, np.linspace(0.0, 1.0, n_tail))
        plus_u = np.unique(np.concatenate((head, tail)))
        self.plus_u = plus_u
        self.plus_f = self._cumulative(plus_u)
        self.minus_u = -plus_u[::-1]
        self.minus_f = self._cumulative(self.minus_u[::-1])[::-1].copy()

        if not (np.all(np.diff(self.plus_f) < 0.0) and np.all(self.plus_f[1:] < 0.0)):
            raise DomainError(f"model '{model.name}': Fhat is not decreasing and negative on (0, 1)")
        if not (np.all(np.diff(self.minus_f) > 0.0) and np.all(self.minus_f[:-1] < 0.0)):
            raise DomainError(f"model '{model.name}': Fhat is not increasing and negative on (-1, 0)")
        # the plus branch must dive deep enough that an escape threshold
        # exists for every radius the clamp allows us to speak about
        if self.plus_f[-1] > 0.5 * math.log(2.0 * epsilon):
            raise DomainError(
                f"model '{model.name}': Fhat plus branch too shallow "
                f"({self.plus_f[-1]:.3g} at u = 1 - epsilon); escape thresholds would not exist"
            )

    def _integrand(self, w: float) -> float:
        return float(self.model.df(w)) / (float(self.model.f(w)) + float(self.model.h(w)))

    def _cumulative(self, nodes: np.ndarray) -> np.ndarray:
        """Prefix integrals along nodes ordered outward from 0."""
        out = np.empty(nodes.size)
        acc = 0.0
        prev = 0.0
        for i, u in enumerate(nodes):
            if u != prev:
                acc += adaptive_simpson(self._integrand, prev, float(u), self._SEGMENT_TOL,
                                        self._SEGMENT_REL)
            out[i] = acc
            prev = float(u)
        return out

    def value(self, u: float) -> float:
        """Fhat(u) as the cached prefix integral plus one closing segment."""
        u = float(u)
        if abs(u) > 1.0 - self.epsilon:
            raise DomainError(
                f"Fhat argument {u} outside the clamped domain [-1 + {self.epsilon}, 1 - {self.epsilon}]"
            )
        got = self._memo.get(u)
        if got is not None:
            return got
        if u > 0.0:
            idx = int(np.searchsorted(self.plus_u, u, side="right")) - 1
            base_u = float(self.plus_u[idx])
            base_f = float(self.plus_f[idx])
        else:
            idx = int(np.searchsorted(self.minus_u, u, side="left"))
            base_u = float(self.minus_u[idx])
            base_f = float(self.minus_f[idx])
        val = base_f
        if u != base_u:
            val += adaptive_simpson(self._integrand, base_u, u, self._SEGMENT_TOL,
                                    self._SEGMENT_REL)
        if not self._frozen:
            self._memo[u] = val
        return val

    def freeze(self) -> "FhatTable":
        self._frozen = True
        return self

    def branch(self, name: str):
        if name == "plus":
            return self.plus_u, self.plus_f
        if name == "minus":
            return self.minus_u, self.minus_f
        raise DomainError(f"branch must be 'plus' or 'minus', got {name!r}")


def build_fhat_table(m: FluxModel, epsilon: float = 1e-9, branch_samples: int = 512) -> FhatTable:
    return FhatTable(m, epsilon, branch_samples)


def fhat_inverse(table: FhatTable, branch: str, y: float) -> float:
    """Invert one monotone branch of Fhat by bisection to |du| <= 1e-12."""
    if y > 0.0:
        raise RangeError(f"Fhat only takes values <= 0, got target {y}")
    us, fs = table.branch(branch)
    if y == 0.0:
        return 0.0
    f_min = float(np.min(fs))
    if y < f_min:
        raise RangeError(
            f"target {y} below the achievable range of the {branch} branch (min {f_min:.6g})"
        )

    # bracket on the sample table, then bisect with true quadrature values
    if branch == "plus":
        idx = int(np.searchsorted(-fs, -y))  # fs decreasing
    else:
        idx = int(np.searchsorted(fs, y))
    lo = us[max(idx - 1, 0)]
    hi = us[min(idx, us.size - 1)]
    a, b = (lo, hi) if lo <= hi else (hi, lo)
    while b - a > INVERSE_TOL:
        mid = 0.5 * (a + b)
        fm = table.value(mid)
        same_side = (fm >= y) if branch == "plus" else (fm <= y)
        if same_side:
            a = mid
        else:
            b = mid
    return 0.5 * (a + b)


def escape_velocity(table: FhatTable, mass: float, r0: float) -> float:
    """Threshold state at radius r0 separating infall from escape."""
    if not r0 > 2.0 * mass:
        raise DomainError(f"r0={r0} must exceed the horizon radius {2 * mass}")
    a0 = 1.0 - 2.0 * mass / r0
    return fhat_inverse(table, "plus", math.log(a0))


def classify_fate(table: FhatTable, mass: float, r0: float, u0: float) -> Fate:
    """Late-time trichotomy for the characteristic through (r0, u0)."""
    if not abs(u0) < 1.0:
        raise DomainError("classification needs |u0| < 1")
    u_escape = escape_velocity(table, mass, r0)
    if abs(u0 - u_escape) <= 1e-12:
        return Fate(kind="marginal", u_limit=0.0, r_limit_finite=False)
    if u0 > u_escape:
        target = table.value(u0) - table.value(u_escape)
        return Fate(kind="escapes", u_limit=fhat_inverse(table, "plus", target), r_limit_finite=False)
    return Fate(kind="falls_in", u_limit=-1.0, r_limit_finite=True)


def steady_profile(table: FhatTable, mass: float, r0: float, u0: float, r_grid) -> np.ndarray:
    """Steady-state profile through (r0, u0) on its Fhat branch.

    Solves Fhat(u(r)) = Fhat(u0) + log(a(r)/a(r0)) pointwise.  u0 = 0 is
    rejected (the profile ODE is singular at the sonic value); radii whose
    implicit value leaves the branch range raise RangeError with the
    admissible interval in the message.
    """
    if u0 == 0.0:
        raise DomainError("steady profiles need u0 != 0 (f'(0) = 0 makes the profile ODE singular)")
    if not abs(u0) <= 1.0 - table.epsilon:
        raise DomainError("u0 too close to the state boundary")
    if not r0 > 2.0 * mass:
        raise DomainError(f"anchor radius r0={r0} must exceed the horizon radius {2 * mass}")
    grid = np.asarray(r_grid, dtype=float)
    if np.any(grid <= 2.0 * mass):
        raise DomainError("steady profile radii must exceed the horizon radius")

    branch = "plus" if u0 > 0.0 else "minus"
    _, fs = table.branch(branch)
    f_min = float(np.min(fs))
    f0 = table.value(u0)
    a0 = 1.0 - 2.0 * mass / r0

    out = np.empty_like(grid)
    for i, r in enumerate(grid.ravel()):
        a_r = 1.0 - 2.0 * mass / r
        y = f0 + math.log(a_r / a0)
        if y > 0.0 or y < f_min:
            lo, hi = _admissible_interval(mass, r0, u0, f0, f_min)
            raise RangeError(
                f"steady profile leaves the {branch} branch at r={r}; admissible radii: [{lo:.9g}, {hi}]"
            )
        out.ravel()[i] = fhat_inverse(table, branch, y)

    order = np.argsort(grid.ravel())
    sorted_u = out.ravel()[order]
    tol = 1e-9
    if u0 > 0.0 and np.any(np.diff(sorted_u) > tol):
        raise RangeError("steady profile failed its monotonicity check (expected decreasing in r)")
    if u0 < 0.0 and np.any(np.diff(sorted_u) < -tol):
        raise RangeError("steady profile failed its monotonicity check (expected increasing in r)")
    return out


def _admissible_interval(mass: float, r0: float, u0: float, f0: float, f_min: float):
    """Radii where the steady profile stays on its branch."""
    a0 = 1.0 - 2.0 * mass / r0
    a_hi = a0 * math.exp(-f0)  # a(r) <= a_hi keeps y <= 0
    a_lo = a0 * math.exp(f_min - f0)
    r_lo = 2.0 * mass / (1.0 - a_lo) if a_lo < 1.0 else math.inf
    r_hi = 2.0 * mass / (1.0 - a_hi) if a_hi < 1.0 else math.inf
    return r_lo, r_hi


def rhs_exterior(m: FluxModel, mass: float, r: float, u: float):
    """Characteristic system in the static slicing: (dt/ds, dr/ds, du/ds)."""
    if not r > 2.0 * mass:
        raise DomainError(f"characteristic left the exterior domain: r={r} <= 2M={2 * mass}")
    a = 1.0 - 2.0 * mass / r
    dt = 1.0 / (a * a)
    dr = float(m.df(u)) / a
    du = (2.0 * mass / (r - 2.0 * mass) ** 2) * (float(m.f(u)) + float(m.h(u)))
    return dt, dr, du


def _guard_u(u: float, tol: float = _U_OVERSHOOT_TOL) -> float:
    """Clamp tiny excursions of the traced state beyond [-1, 1]; larger
    excursions mean the step size is too coarse for the current dynamics."""
    if u > 1.0:
        if u - 1.0 > tol:
            raise StepSizeError(f"traced state overshot to u={u:.17g}; shrink ds")
        return 1.0
    if u < -1.0:
        if -1.0 - u > tol:
            raise StepSizeError(f"traced state overshot to u={u:.17g}; shrink ds")
        return -1.0
    return u


def trace_exterior(m: FluxModel, mass: float, start: CharState, ds: float, s_max: float,
                   r_stop: float | None = None) -> CharPath:
    """Fixed-step classical RK4 trace of the exterior characteristic system.

    Halts early once the radius drops below 2M (1 + 1e-6) or exceeds
    r_stop; a step whose internal stages would leave the exterior domain is
    discarded and counts as horizon arrival.
    """
    if not ds > 0.0:
        raise DomainError("ds must be positive")
    guard_r = 2.0 * mass * (1.0 + _HORIZON_GUARD)

    def rhs(t, r, u):
        if not r > guard_r:
            raise _StageHalt
        return rhs_exterior(m, mass, r, u)

    return _rk4_trace(rhs, start, ds, s_max, guard_r, r_stop)


def h_prime_interior(mass: float, shift: float, big_r: float) -> float:
    """Slope dh/dR of the time-shift between the two slicings.

    Requires R > 2M and r = R - shift > 0; the radicand
    1 - (1 - 2M/R) R^2 / r^2 is nonnegative for every R > 2M whenever
    shift <= M, and a negative radicand (possible for shift > M) raises
    with the valid R-range in the message.
    """
    if not big_r > 2.0 * mass:
        raise DomainError(f"R={big_r} must exceed 2M={2 * mass}")
    small_r = big_r - shift
    if not small_r > 0.0:
        raise DomainError(f"R - shift must be positive, got {small_r}")
    a = 1.0 - 2.0 * mass / big_r
    radicand = 1.0 - a * (big_r / small_r) ** 2
    if radicand < 0.0:
        if shift > mass:
            r_limit = shift * shift / (2.0 * (shift - mass))
            hint = f"valid range: 2M < R < {r_limit:.9g}"
        else:
            hint = "unexpected for shift <= M"
        raise DomainError(f"negative radicand at R={big_r} ({hint})")
    return math.sqrt(radicand) / a


def trace_interior(mass: float, shift: float, start: tuple[float, float, float], ds: float,
                   s_max: float, r_stop: float | None = None) -> CharPath:
    """RK4 trace of the quadratic-model characteristics in the shifted slicing.

    ``start`` is (t, R, u) with R the shifted radial coordinate.  The state
    equation du/ds = (M/R^2)(u^2 - 1) is horizon-regular, so these traces
    approach R = 2M without the stiffness of the static slicing.
    """
    if not ds > 0.0:
        raise DomainError("ds must be positive")
    guard_r = 2.0 * mass * (1.0 + _HORIZON_GUARD)
    t0, r0, u0 = start

    def rhs(t, r, u):
        if not r > guard_r:
            raise _StageHalt
        a = 1.0 - 2.0 * mass / r
        hp = h_prime_interior(mass, shift, r)
        return 1.0 + hp * u * a, a * u, (mass / (r * r)) * (u * u - 1.0)

    return _rk4_trace(rhs, CharState(s=0.0, t=t0, r=r0, u=u0), ds, s_max, guard_r, r_stop)


class _StageHalt(Exception):
    """Internal: an RK4 stage left the admissible radial domain."""


def _rk4_trace(rhs, start: CharState, ds: float, s_max: float, guard_r: float,
               r_stop: float | None) -> CharPath:
    s_vals = [start.s]
    t_vals = [start.t]
    r_vals = [start.r]
    u_vals = [_guard_u(start.u)]
    if not start.r > guard_r:
        raise DomainError(f"start radius {start.r} is inside the horizon guard {guard_r}")

    s, t, r, u = start.s, start.t, start.r, u_vals[0]
    reason = "s_max"
    n_steps = int(round((s_max - start.s) / ds))
    for _ in range(max(n_steps, 0)):
        try:
            k1 = rhs(t, r, u)
            k2 = rhs(t + 0.5 * ds * k1[0], r + 0.5 * ds * k1[1], u + 0.5 * ds * k1[2])
            k3 = rhs(t + 0.5 * ds * k2[0], r + 0.5 * ds * k2[1], u + 0.5 * ds * k2[2])
            k4 = rhs(t + ds * k3[0], r + ds * k3[1], u + ds * k3[2])
        except _StageHalt:
            reason = "horizon"
            break
        t += ds / 6.0 * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0])
        r += ds / 6.0 * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1])
        u += ds / 6.0 * (k1[2] + 2.0 * k2[2] + 2.0 * k3[2] + k4[2])
        s += ds
        u = _guard_u(u)
        if not r > guard_r:
            reason = "horizon"
            break
        s_vals.append(s)
        t_vals.append(t)
        r_vals.append(r)
        u_vals.append(u)
        if r_stop is not None and r > r_stop:
            reason = "r_stop"
            break

    path = CharPath(
        s=np.array(s_vals), t=np.array(t_vals), r=np.array(r_vals), u=np.array(u_vals),
        stop_reason=reason,
    )
    for arr in (path.s, path.t, path.r, path.u):
        arr.setflags(write=False)
    return path


def exterior_invariant(table: FhatTable, mass: float, path: CharPath) -> np.ndarray:
    """Fhat(u) - log a(r) along a path; constant on exact characteristics."""
    vals = np.array([table.value(min(max(u, -1.0 + table.epsilon), 1.0 - table.epsilon)) for u in path.u])
    return vals - np.log(1.0 - 2.0 * mass / path.r)


def interior_invariant(mass: float, path: CharPath) -> np.ndarray:
    """(1 - u^2) / a(R) along a shifted-slicing path; conserved exactly."""
    return (1.0 - np.square(path.u)) / (1.0 - 2.0 * mass / path.r)
