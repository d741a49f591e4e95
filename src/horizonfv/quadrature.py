"""Adaptive Simpson quadrature, the independent check of the closed-form Fhat.

It integrates a scalar callable on a finite interval and refines until the
classic Richardson estimate meets an absolute tolerance.  Each Fhat table
integrates f' / (f + h) with it once per branch, away from the poles at
the ends of the state interval, and compares with its closed form.
"""

from __future__ import annotations

from typing import Callable

from .errors import NumericsError

_MAX_DEPTH = 60


def _simpson(fa: float, fm: float, fb: float, a: float, b: float) -> float:
    return (b - a) / 6.0 * (fa + 4.0 * fm + fb)


def _adapt(g, a, m, b, fa, fm, fb, whole, tol, depth):
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm = g(lm)
    frm = g(rm)
    left = _simpson(fa, flm, fm, a, m)
    right = _simpson(fm, frm, fb, m, b)
    if depth >= _MAX_DEPTH:
        raise NumericsError(f"adaptive quadrature exceeded depth {_MAX_DEPTH} on [{a}, {b}]")
    # round-off floor: once the Richardson estimate sits at double-precision
    # noise for these magnitudes, further splitting cannot help
    noise = 4e-16 * (abs(left) + abs(right) + abs(whole))
    if abs(left + right - whole) <= 15.0 * tol + noise:
        return left + right + (left + right - whole) / 15.0
    return _adapt(g, a, lm, m, fa, flm, fm, left, 0.5 * tol, depth + 1) + _adapt(
        g, m, rm, b, fm, frm, fb, right, 0.5 * tol, depth + 1
    )


def adaptive_simpson(g: Callable[[float], float], a: float, b: float, tol: float = 1e-11,
                     rel_tol: float = 0.0) -> float:
    """Adaptive Simpson quadrature to an absolute tolerance.

    Signed: integrating from a > b returns the negated integral.  A nonzero
    ``rel_tol`` loosens the goal to max(tol, rel_tol * |estimate|), which
    callers use when the integrand itself carries relative round-off noise
    (e.g. from cancellation near a pole) that an absolute goal could never
    beat.
    """
    if a == b:
        return 0.0
    if a > b:
        return -adaptive_simpson(g, b, a, tol, rel_tol)
    fa = g(a)
    fb = g(b)
    m = 0.5 * (a + b)
    fm = g(m)
    whole = _simpson(fa, fm, fb, a, b)
    goal = max(tol, rel_tol * abs(whole))
    return _adapt(g, a, m, b, fa, fm, fb, whole, goal, 0)
