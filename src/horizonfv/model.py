"""Balance-law instances: the polynomial flux/source pair and its exact
structural certificate.

A model is a pair of polynomials (f, h) on [-1, 1], given by ascending
coefficients.  The admissible class is pinned down by structural
requirements: f + h vanishes at both ends of the state interval with
nondegenerate slope, f + h is negative inside, and f decreases on (-1, 0)
and increases on (0, 1).  ``polynomial_model`` decides those conditions
exactly, once, through ``check_structure``, and stores the verdict on the
model next to the two constants the stability bounds use: the flux
Lipschitz bound sup |f'| and the source slope sup |f' + h'| over [-1, 1],
each the least float from its sampled peak up that is certified exactly
to be no smaller.
The solver refuses nothing by itself; callers that need the whole class
(the CLI, the Fhat table) call ``FluxModel.require_admissible``.
"""

from __future__ import annotations

import ast
import functools
import math
import textwrap
from dataclasses import dataclass
from itertools import zip_longest
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, UnsupportedModelError

ArrayLike = Callable[[np.ndarray], np.ndarray]

#: Kruzhkov levels exercised by the bundled diagnostics.
DEFAULT_KRUZHKOV_LEVELS = (-0.75, -0.25, 0.0, 0.25, 0.75)


def _horner(coeffs: tuple[float, ...], var: str, prefix: str) -> tuple[str, dict[str, float]]:
    """Horner text of trimmed ascending coefficients c0 + c1 s + ... in the
    variable named var, and the values of the names it reads.

    It starts from the leading coefficient, var * lead, and adds a lower one
    only when it is nonzero, so s**2/2 - 1/2 costs what 0.5 * s * s - 0.5
    costs and rounds the same way, sign of zero included.  A constant c is
    var * 0.0 + c (var * 0.0 when c is zero), so it takes the shape of var.
    Every term uses the arithmetic operators, so a Python float in gives a
    Python float out.  Coefficient i is read as the name prefix + str(i),
    and only the names the text reads are returned: no value is ever
    written into the text.
    """
    n = len(coeffs) - 1
    expr = f"{var} * {prefix}{n}" if n else f"{var} * 0.0"
    for i in range(n - 1, 0, -1):
        expr = f"({expr} + {prefix}{i}) * {var}" if coeffs[i] else f"{expr} * {var}"
    if coeffs[0]:
        expr += f" + {prefix}0"
    return expr, {f"{prefix}{i}": c for i, c in enumerate(coeffs) if c or i == n > 0}


def _in_place(coeffs: tuple[float, ...], var: str, prefix: str, out: str, cells: dict) -> list[str]:
    """The _horner text of coeffs as statements that apply its operations in its order,
    one ufunc (add or mul) each writing the array out; 0.0 is read as the name zero.
    The values of the names the text reads are added to cells."""
    expr, names = _horner(coeffs, var, prefix)
    cells.update(names)
    node, steps = ast.parse(expr, mode="eval").body, []
    while isinstance(node, ast.BinOp):
        steps.insert(0, (("add", "mul")[isinstance(node.op, ast.Mult)], getattr(node.right, "id", "zero")))
        node = node.left
    return [f"{ufunc}({arg}, {operand}, {out})" for arg, (ufunc, operand) in zip([node.id] + [out] * len(steps), steps)]


def _closure(body: str, cells: dict[str, float], names: dict | None = None):
    """Run body, source text ending in a return, as the body of a function
    whose parameters are the keys of cells, called with their values.
    Functions body defines read those values from closure cells; names are
    the globals the text sees."""
    namespace = dict(names or {})
    exec(f"def bind({', '.join(cells)}):\n" + textwrap.indent(body, "    "), namespace)
    return namespace["bind"](**cells)


@functools.lru_cache(maxsize=256)
def _evaluator(coeffs: tuple[float, ...]) -> ArrayLike:
    """The Horner text of coeffs (see _horner) compiled into one function
    of s: a call makes no loop and no other call.  Each tuple is compiled
    once while it stays in the cache.  Equal tuples share one function,
    which is exact: such tuples differ at most in the sign of a zero, and
    a zero is read only as a lead, which a trimmed tuple's is not.
    """
    expr, cells = _horner(coeffs, "s", "c")
    return _closure(f"def poly(s):\n    return {expr}\nreturn poly", cells)


def _trimmed(coeffs: Sequence[float]) -> tuple[float, ...]:
    out = [float(c) for c in coeffs]
    if not all(math.isfinite(c) for c in out):
        raise DomainError(f"polynomial coefficients must be finite, got {tuple(out)}")
    while len(out) > 1 and out[-1] == 0.0:
        out.pop()
    return tuple(out) or (0.0,)


def _polyder(coeffs: Sequence[float]) -> tuple[float, ...]:
    return tuple(i * c for i, c in enumerate(coeffs))[1:] or (0.0,)


def _polyint(coeffs: Sequence[float]) -> tuple[float, ...]:
    # Antiderivative with zero constant term.
    return (0.0,) + tuple(c / (i + 1) for i, c in enumerate(coeffs))


@dataclass(frozen=True)
class StructureReport:
    """Exact verdict on the structural conditions for one model."""

    boundary_roots_ok: bool
    boundary_nondegenerate_ok: bool
    interior_negative_ok: bool
    flux_monotone_shape_ok: bool

    @property
    def all_ok(self) -> bool:
        return all(vars(self).values())


@dataclass(frozen=True, eq=False)
class FluxModel:
    """A polynomial balance-law instance with its certificate.

    ``f_poly`` and ``h_poly`` are the ascending coefficients of the flux f
    and the source profile h, trailing zeros trimmed; ``f``, ``df``, ``h``
    and ``dh`` evaluate f, f', h and h', a Python float to a Python float
    and an array to an array of its shape; each is one straight-line
    Horner expression, compiled once per coefficient tuple and shared by
    every model with that tuple.  ``structure`` is the exact
    verdict of ``check_structure``, ``flux_lipschitz`` is sup |f'| and
    ``source_slope`` is sup |f' + h'|, both over [-1, 1] and both floats
    that bound the exact sup from above.  Build models
    with ``polynomial_model``, which computes all of these once; consumers
    read them and never re-derive them, so ``dataclasses.replace`` may swap
    in instrumented evaluators and keep the certificate.  The finite volume
    step and the RK4 loops of the exterior tracer and the shooting oracle
    read only ``f_poly`` and ``h_poly``: they write f, f' and h in as
    Horner text and call none of the four evaluators (a step calls only a
    flux that is not bundled, as evaluate(m, u, v)).

    Immutable after construction and safe to share across threads.
    """

    name: str
    f_poly: tuple[float, ...]
    h_poly: tuple[float, ...]
    f: ArrayLike
    df: ArrayLike
    h: ArrayLike
    dh: ArrayLike
    structure: StructureReport
    flux_lipschitz: float
    source_slope: float

    def require_admissible(self) -> "FluxModel":
        """This model, or UnsupportedModelError naming every failed structural flag."""
        failed = [flag for flag, ok in vars(self.structure).items() if not ok]
        if failed:
            raise UnsupportedModelError(f"model '{self.name}' is inadmissible: {', '.join(failed)} false")
        return self


# Exact arithmetic on polynomials with integer coefficients, ascending,
# no trailing zeros; [] is the zero polynomial.

_SCALE = 2 ** 1074  # every finite double is an integer multiple of 2**-1074


def _integers(*polys: Sequence[float]) -> list[int]:
    """_SCALE times the exact sum of the float polynomials."""
    out = [sum(n * (_SCALE // d) for n, d in (float(c).as_integer_ratio() for c in cs))
           for cs in zip_longest(*polys, fillvalue=0.0)]
    while out and out[-1] == 0:
        out.pop()
    return out


def _at(p: list[int], s: int) -> int:
    return sum(c * s ** i for i, c in enumerate(p))


def _derivative(p: list[int]) -> list[int]:
    return [i * c for i, c in enumerate(p)][1:]


def _deflate(p: list[int], t: int) -> list[int]:
    """The quotient of p by s - t, remainder dropped."""
    out, acc = [], 0
    for c in reversed(p[1:]):
        acc = c + t * acc
        out.append(acc)
    return out[::-1]


def _remainder(a: list[int], b: list[int]) -> list[int]:
    """A positive multiple of the remainder of a / b, b nonzero."""
    a = list(a)
    while len(a) >= len(b):
        top, shift = a[-1], len(a) - len(b)
        a = [abs(b[-1]) * c for c in a]
        for i, c in enumerate(b):
            a[shift + i] -= (top if b[-1] > 0 else -top) * c
        while a and a[-1] == 0:
            a.pop()
    content = math.gcd(*a)
    return [c // content for c in a]


def _has_repeated_root(p: list[int]) -> bool:
    """Whether p has a repeated real or complex root: gcd(p, p') is not constant."""
    a, b = p, _derivative(p)
    while b:
        a, b = b, _remainder(a, b)
    return len(a) > 1


def _roots_inside(p: list[int]) -> int:
    """Distinct real roots in (-1, 1) of a nonzero polynomial.

    Roots at the ends do not count; they are taken out first.  Then
    Sturm's theorem; the sequence members are positive multiples of the
    textbook ones, which leaves every sign unchanged.
    """
    for t in (1, -1):
        while _at(p, t) == 0:
            p = _deflate(p, t)
    seq = [p, _derivative(p)]
    while seq[-1]:
        seq.append([-c for c in _remainder(seq[-2], seq[-1])])

    def sign_changes(s):
        signs = [v > 0 for v in (_at(q, s) for q in seq) if v]
        return sum(u != w for u, w in zip(signs, signs[1:]))

    return sign_changes(-1) - sign_changes(1)


def _to_float(n: int, what: str) -> float:
    """n / _SCALE correctly rounded, or DomainError naming what overflows."""
    try:
        return n / _SCALE
    except OverflowError:
        raise DomainError(f"{what} overflows a float") from None


def check_structure(f_poly: Sequence[float], h_poly: Sequence[float]) -> StructureReport:
    """Decide the structural conditions exactly from the coefficients.

    The two boundary conditions are input checks on the coefficients:
    |f + h| <= 1e-12 and |f' + h'| > 1e-12 at +/-1.  Inside, write
    f + h = (s**2 - 1) q + r with r linear: f + h < 0 on (-1, 1) holds when
    q > 0 on [-1, 1] and r <= 0 at +/-1, and f + h at +/-1 (which is r
    there) up to 1e-12 is forgiven as the rounding of decimal coefficients,
    as in the root check.  For the flux shape write f' = s**m g with
    g(0) != 0: f' < 0 on (-1, 0) and f' > 0 on (0, 1) exactly when m is
    odd, g(0) > 0 and g has no root in (-1, 1).  Roots are counted by
    Sturm's theorem in integer arithmetic on the exact values of the float
    coefficients, so none can hide between samples, and a multiple root
    such as that of f' = 2 s**3 at 0 is no harder than a simple one.
    """
    fh = _integers(f_poly, h_poly)
    at_ends = [_to_float(_at(fh, s), f"f + h at s = {s}") for s in (-1, 1)]
    boundary_roots_ok = all(abs(v) <= 1e-12 for v in at_ends)
    boundary_nondegenerate_ok = all(abs(_to_float(_at(_derivative(fh), s), f"(f + h)' at s = {s}")) > 1e-12
                                    for s in (-1, 1))
    q = _deflate(_deflate(fh, 1), -1)
    interior_negative_ok = all(v <= 1e-12 for v in at_ends) \
        and _at(q, -1) > 0 < _at(q, 1) and _roots_inside(q) == 0

    df = _derivative(_integers(f_poly))
    m = next((i for i, c in enumerate(df) if c), 0)
    g = df[m:]
    shape_ok = m % 2 == 1 and g[0] > 0 and _roots_inside(g) == 0
    return StructureReport(
        boundary_roots_ok=boundary_roots_ok,
        boundary_nondegenerate_ok=boundary_nondegenerate_ok,
        interior_negative_ok=interior_negative_ok,
        flux_monotone_shape_ok=shape_ok,
    )


def _certified_bound(polys: Sequence[Sequence[float]], lam: float) -> float:
    """The least float from lam upward that bounds |g'| on [-1, 1] exactly,
    g the sum of polys: lam + g' and lam - g', the derivatives of lam s + g
    and lam s - g, must each be zero or positive at 0 with no root inside.
    A lam that is not finite, or no finite float that bounds, gives inf or nan."""
    def within(lam):
        sides = (_derivative(_integers((0.0, lam), *([sign * c for c in g] for g in polys)))
                 for sign in (1.0, -1.0))
        return all(not p or (p[0] > 0 and not _roots_inside(p)) for p in sides)

    while math.isfinite(lam) and not within(lam):
        lam = math.nextafter(lam, math.inf)
    return lam


def _finite(coeffs: Sequence[float], what: str) -> Sequence[float]:
    """coeffs, the coefficients of what, or DomainError if one overflowed."""
    if not all(math.isfinite(c) for c in coeffs):
        raise DomainError(f"a coefficient of {what} overflows a float")
    return coeffs


def _peak_candidates(slope_poly: Sequence[float], what: str) -> np.ndarray:
    """-1, 1 and the real parts of the roots of slope_poly inside [-1, 1],
    or DomainError naming slope_poly as what if a coefficient or a root of
    it overflows a float.

    slope_poly is the derivative of a polynomial g, so |g| peaks on [-1, 1]
    at one of these points.  Complex roots contribute their real parts
    too: a multiple real root may come back from rounding as a conjugate
    pair, and an extra point of [-1, 1] cannot lift the max above the sup.
    np.roots divides by the leading coefficient, so a tiny one overflows
    it; a leading coefficient below one ulp of every remaining one is
    dropped and the roots are taken again.  The points only seed
    _certified_bound, which certifies the full polynomial exactly.
    """
    ascending = list(_finite(slope_poly, what))
    while True:
        try:
            centers = np.roots(ascending[::-1]).real
            break
        except np.linalg.LinAlgError:
            *rest, lead = ascending
            if not (rest and abs(lead) < math.ulp(max(map(abs, rest)))):
                raise DomainError(f"a root of {what} overflows a float") from None
            ascending = rest
    return np.concatenate(([-1.0, 1.0], centers[np.abs(centers) <= 1.0]))


def polynomial_model(name: str, f_coeffs: Sequence[float], h_coeffs: Sequence[float]) -> FluxModel:
    """Build and certify a model from ascending polynomial coefficients (degree <= 8).

    DomainError if the coefficients are not finite or a quantity the
    certificate needs overflows a float; the message names that quantity.
    """
    if len(f_coeffs) > 9 or len(h_coeffs) > 9:
        raise DomainError("polynomial models support degree <= 8")
    fc = _trimmed(f_coeffs)
    hc = _trimmed(h_coeffs)
    dfc = _finite(_polyder(fc), "f'")
    dhc = _polyder(hc)
    dsc = _finite([a + b for a, b in zip_longest(dfc, dhc, fillvalue=0.0)], "f' + h'")
    df = _evaluator(dfc)
    dh = _evaluator(dhc)
    with np.errstate(all="ignore"):  # an overflow is refused by name
        at = _peak_candidates(_polyder(dfc), "f''")
        flux_lipschitz = _certified_bound((fc,), float(np.max(np.abs(df(at)))))
        at = _peak_candidates(_polyder(dsc), "f'' + h''")
        source_slope = _certified_bound((fc, hc), float(np.max(np.abs(df(at) + dh(at)))))
    for what, bound in (("sup |f'|", flux_lipschitz), ("sup |f' + h'|", source_slope)):
        if not math.isfinite(bound):
            raise DomainError(f"{what} over [-1, 1] overflows a float")
    return FluxModel(
        name=name,
        f_poly=fc,
        h_poly=hc,
        f=_evaluator(fc),
        df=df,
        h=_evaluator(hc),
        dh=dh,
        structure=check_structure(fc, hc),
        flux_lipschitz=flux_lipschitz,
        source_slope=source_slope,
    )


def burgers_model() -> FluxModel:
    """The built-in model f(s) = s**2/2 - 1/2, h = 0."""
    return polynomial_model("burgers", (-0.5, 0.0, 0.5), (0.0,))
