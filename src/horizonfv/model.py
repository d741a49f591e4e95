"""Balance-law instances: the flux/source pair, structural checks, and
entropy pairs.

A model is the pair of functions (f, h) on [-1, 1] together with their
derivatives.  The admissible class is pinned down by two structural
requirements: f + h vanishes at both ends of the state interval with
nondegenerate slope, f + h is negative inside, and f decreases on (-1, 0)
and increases on (0, 1).  ``check_structure`` samples those conditions;
the solver refuses nothing by itself, callers decide what to do with a
failing report.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DomainError
from .quadrature import fixed_simpson

ArrayLike = Callable[[np.ndarray], np.ndarray]

#: Kruzhkov levels exercised by the bundled diagnostics.
DEFAULT_KRUZHKOV_LEVELS = (-0.75, -0.25, 0.0, 0.25, 0.75)


def _polyval(coeffs: Sequence[float], x):
    """Horner evaluation of ascending coefficients c0 + c1 x + ..."""
    acc = np.zeros_like(np.asarray(x, dtype=float)) if np.ndim(x) else 0.0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _polyder(coeffs: Sequence[float]) -> tuple[float, ...]:
    if len(coeffs) <= 1:
        return (0.0,)
    return tuple(i * c for i, c in enumerate(coeffs))[1:] or (0.0,)


def _polyint(coeffs: Sequence[float]) -> tuple[float, ...]:
    # Antiderivative with zero constant term.
    return (0.0,) + tuple(c / (i + 1) for i, c in enumerate(coeffs))


@dataclass(frozen=True, eq=False)
class FluxModel:
    """A balance-law instance: flux f, source profile h, and derivatives.

    Derivatives are required inputs rather than auto-differenced so the
    stability constants stay sharp; ``validate_derivatives`` cross-checks
    them numerically.  ``f_poly`` / ``h_poly`` optionally carry ascending
    polynomial coefficients when the callables are polynomials, which lets
    downstream code use exact antiderivatives.

    Immutable after construction and safe to share across threads.
    """

    name: str
    f: ArrayLike
    df: ArrayLike
    h: ArrayLike
    dh: ArrayLike
    f_poly: Optional[tuple[float, ...]] = None
    h_poly: Optional[tuple[float, ...]] = None


@dataclass(frozen=True)
class StructureReport:
    """Sampled verdict on the structural conditions for one model."""

    boundary_roots_ok: bool
    boundary_nondegenerate_ok: bool
    interior_negative_ok: bool
    flux_monotone_shape_ok: bool
    worst_violation: float
    samples: int

    @property
    def all_ok(self) -> bool:
        return (
            self.boundary_roots_ok
            and self.boundary_nondegenerate_ok
            and self.interior_negative_ok
            and self.flux_monotone_shape_ok
        )


@dataclass(frozen=True, eq=False)
class EntropyPair:
    """Convex entropy U with compatible flux F, normalized so U(0) = 0.

    ``kind`` is "kruzhkov" (with the level in ``k``) or "quadratic".
    Compatibility means F'(v) = f'(v) U'(v) wherever U is differentiable.
    """

    U: ArrayLike
    dU: ArrayLike
    F: ArrayLike
    kind: str
    k: Optional[float] = None


def burgers_model() -> FluxModel:
    """The built-in model f(s) = s**2/2 - 1/2, h = 0."""
    return FluxModel(
        name="burgers",
        f=lambda s: 0.5 * s * s - 0.5,
        df=lambda s: np.multiply(s, 1.0),
        h=lambda s: np.multiply(s, 0.0),
        dh=lambda s: np.multiply(s, 0.0),
        f_poly=(-0.5, 0.0, 0.5),
        h_poly=(0.0,),
    )


def polynomial_model(name: str, f_coeffs: Sequence[float], h_coeffs: Sequence[float]) -> FluxModel:
    """Build a model from ascending polynomial coefficients (degree <= 8)."""
    if len(f_coeffs) > 9 or len(h_coeffs) > 9:
        raise DomainError("polynomial models support degree <= 8")
    fc = tuple(float(c) for c in f_coeffs) or (0.0,)
    hc = tuple(float(c) for c in h_coeffs) or (0.0,)
    dfc = _polyder(fc)
    dhc = _polyder(hc)
    return FluxModel(
        name=name,
        f=lambda s: _polyval(fc, s),
        df=lambda s: _polyval(dfc, s),
        h=lambda s: _polyval(hc, s),
        dh=lambda s: _polyval(dhc, s),
        f_poly=fc,
        h_poly=hc,
    )


def validate_derivatives(m: FluxModel, rtol: float = 1e-6, points: int = 1001) -> float:
    """Cross-check df, dh against centered differences of f, h.

    Compares on an equispaced grid over [-0.999, 0.999] and returns the worst
    relative deviation; raises DomainError if it exceeds ``rtol``.
    """
    grid = np.linspace(-0.999, 0.999, points)
    step = 1e-6
    worst = 0.0
    for fn, dfn in ((m.f, m.df), (m.h, m.dh)):
        approx = (np.asarray(fn(grid + step)) - np.asarray(fn(grid - step))) / (2 * step)
        exact = np.asarray(dfn(grid), dtype=float)
        scale = 1.0 + np.abs(exact)
        worst = max(worst, float(np.max(np.abs(approx - exact) / scale)))
    if worst > rtol:
        raise DomainError(
            f"model '{m.name}': supplied derivatives disagree with finite differences "
            f"(worst relative deviation {worst:.3e} > {rtol:.1e})"
        )
    return worst


def structure_grid(samples: int) -> np.ndarray:
    """Equispaced interior sample points of (-1, 1); samples=3 gives {-0.5, 0, 0.5}."""
    if samples < 3:
        raise DomainError("structure checks need samples >= 3")
    return np.linspace(-1.0, 1.0, samples + 2)[1:-1]


def check_structure(m: FluxModel, samples: int = 1001) -> StructureReport:
    """Sample the structural conditions and report flags.

    The two boundary conditions are checked at +/-1 (root tolerance 1e-12,
    nondegeneracy threshold 1e-12 on |f'+h'|).  The interior conditions
    (f + h < 0, and the sign pattern of f' away from 0) are sampled on the
    ``structure_grid``; ``worst_violation`` is the largest sampled violation
    of the interior conditions, so it is <= 0 exactly when both interior
    flags hold.
    """
    grid = structure_grid(samples)
    ends = np.array([-1.0, 1.0])

    roots = np.asarray(m.f(ends), dtype=float) + np.asarray(m.h(ends), dtype=float)
    boundary_roots_ok = bool(np.all(np.abs(roots) <= 1e-12))
    slopes = np.asarray(m.df(ends), dtype=float) + np.asarray(m.dh(ends), dtype=float)
    boundary_nondegenerate_ok = bool(np.all(np.abs(slopes) > 1e-12))

    fh = np.asarray(m.f(grid), dtype=float) + np.asarray(m.h(grid), dtype=float)
    interior_negative_ok = bool(np.all(fh < 0.0))

    dfg = np.asarray(m.df(grid), dtype=float)
    neg_side = grid < 0.0
    pos_side = grid > 0.0
    shape_ok = bool(np.all(dfg[neg_side] < 0.0)) and bool(np.all(dfg[pos_side] > 0.0))

    violations = [np.max(fh)]
    if np.any(neg_side):
        violations.append(np.max(dfg[neg_side]))
    if np.any(pos_side):
        violations.append(np.max(-dfg[pos_side]))
    worst = float(max(violations))

    return StructureReport(
        boundary_roots_ok=boundary_roots_ok,
        boundary_nondegenerate_ok=boundary_nondegenerate_ok,
        interior_negative_ok=interior_negative_ok,
        flux_monotone_shape_ok=shape_ok,
        worst_violation=worst,
        samples=samples,
    )


def kruzhkov_pair(m: FluxModel, k: float) -> EntropyPair:
    """Kruzhkov entropy at level k: U(v) = |v - k| - |k|, F(v) = sign(v-k)(f(v) - f(k)).

    The constant shift -|k| gives U(0) = 0; every inequality downstream is
    invariant under it because entropies only enter through differences.
    """
    if not -1.0 <= k <= 1.0:
        raise DomainError(f"Kruzhkov level k={k} outside [-1, 1]")
    fk = float(m.f(k))
    return EntropyPair(
        U=lambda v: np.abs(v - k) - abs(k),
        dU=lambda v: np.sign(v - k),
        F=lambda v: np.sign(v - k) * (m.f(v) - fk),
        kind="kruzhkov",
        k=float(k),
    )


def quadratic_pair(m: FluxModel) -> EntropyPair:
    """Smooth strictly convex entropy U(v) = v**2/2 with F(v) = int_0^v w f'(w) dw.

    For polynomial-backed models F is the exact antiderivative; otherwise it
    falls back to fixed 2048-panel composite Simpson per evaluation point
    (the two agree to quadrature tolerance on the models used here).
    """
    if m.f_poly is not None:
        # coefficients of w * f'(w), then its antiderivative
        wdf = (0.0,) + _polyder(m.f_poly)
        anti = _polyint(wdf)

        def F(v):
            return _polyval(anti, v)

    else:

        def integrand(w: float) -> float:
            return w * float(m.df(w))

        def F(v):
            if np.ndim(v):
                flat = np.asarray(v, dtype=float)
                vals = [fixed_simpson(integrand, 0.0, float(x)) for x in flat.ravel()]
                return np.array(vals).reshape(flat.shape)
            return fixed_simpson(integrand, 0.0, float(v))

    return EntropyPair(
        U=lambda v: 0.5 * np.square(v),
        dU=lambda v: np.multiply(v, 1.0),
        F=F,
        kind="quadratic",
    )
