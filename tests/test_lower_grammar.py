"""A differential test of model._lower over the language it admits: programs of one or two
statements x = e or x[...] = e, e built from + - * /, maximum, minimum, where with a comparison,
polynomial calls, the literals of model._CONSTANTS and slices of a name.  Each lowered program runs on
the edge grid and must leave every name bitwise as numpy running the same text leaves it, or be
refused with ContractError; a program refused for want of scratch must compile given enough."""

import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from horizonfv import model
from horizonfv.errors import ContractError

EDGES = (0.0, -0.0, 1.0, -1.0, 2.0 ** -1074, -2.0 ** -1074, 1.0 - 2.0 ** -53, -(1.0 - 2.0 ** -53))
_I = np.arange(64)
# u and v pair every two edge values; the other names are further arrangements of the grid
INPUTS = {"u": _I // 8, "v": _I % 8, "w": (3 * _I + _I // 8) % 8, "x": (5 * _I + 1) % 8, "y": (7 * _I + 3) % 8,
          "s": np.arange(65) * 3 % 8}
INPUTS = {name: np.array(EDGES)[index] for name, index in INPUTS.items()}
# Burgers' f, f(s) = s (a unit lead folded to the bare argument), a cubic with a unit lead and a zero
# inside, and a constant
POLYS = {"p": (-0.5, 0.0, 0.5), "q": (0.0, 1.0), "r": (0.25, -1.0, 0.0, 1.0), "k": (-2.0,)}
SCRATCH = ("t0", "t1", "t2", "t3", "t4", "t5", "t6", "t7")
UFUNCS = {"add": np.add, "subtract": np.subtract, "multiply": np.multiply, "divide": np.divide,
          "maximum": np.maximum, "minimum": np.minimum, "where": np.where}
_ARRAY = re.compile(r"\b[uvwxy]\b|\bs\[")
ARRAYS = ("u", "v", "w", "x", "y", "s[1:]", "s[:-1]")
LITERALS = ("0.0", "0.5", "1.0", "2.0")
# a target that is neither a name nor all of one, with values of its 63 cells; refused
PART = ("x[1:]", ("s[2:]", "s[:-2]"))
TARGETS = (*[(t, ARRAYS) for t in ("x", "x[...]", "y", "y[...]") for _ in range(2)], PART)


def _program(data: bytes) -> str:
    """One or two statements decoded from data, read a byte at a time (0 once it runs out), so that
    Hypothesis draws one blob per example and shrinks it towards shorter programs."""
    stream = iter(data)

    def byte():
        return next(stream, 0)

    def expression(depth, arrays, top=False):
        kind = byte() % 16 if depth else 0
        if kind < 5:  # a leaf: an array, or a literal one time in four
            pool = LITERALS if byte() % 4 == 3 else arrays
            return pool[byte() % len(pool)]
        operands = [expression(depth - 1, arrays) for _ in range(2)]
        if kind < 10:
            return f"({operands[0]} {'+-*/'[byte() % 4]} {operands[1]})"
        if kind < 12:
            return f"{('maximum', 'minimum')[byte() % 2]}({operands[0]}, {operands[1]})"
        if kind < 14 or not (top or kind == 15):  # a where nested in an operation is refused
            return f"{'pqrk'[byte() % 4]}({operands[0]})"
        sides = [expression(depth - 1 if byte() % 4 == 0 else 0, arrays) for _ in range(2)]  # mostly leaves
        return f"where({sides[0]} {('<=', '<', '>')[byte() % 3]} {sides[1]}, {operands[0]}, {operands[1]})"

    lines = []
    for _ in range(1 + byte() % 2):
        target, arrays = TARGETS[byte() % len(TARGETS)]
        value = expression(3, arrays, top=True)
        if not _ARRAY.search(value):  # an array in every value, so each result is one
            value = f"({value} + {arrays[byte() % len(arrays)]})"
        lines.append(f"{target} = {value}")
    return "\n".join(lines)


PROGRAMS = st.binary(min_size=1, max_size=48).map(_program)


def _numpy(source: str) -> dict:
    """The names after numpy runs source, the polynomials as the model's evaluators (Horner text)."""
    scope = {name: value.copy() for name, value in INPUTS.items()}
    names = {**UFUNCS, **{p: model._evaluator(c) for p, c in POLYS.items()}}
    with np.errstate(all="ignore"):
        exec(source, names, scope)
    return scope


def _lowered(lines: list, cells: dict) -> dict:
    scope = {**{name: value.copy() for name, value in INPUTS.items()},
             **{t: np.empty(64) for t in SCRATCH}, **{name: np.array(c) for name, c in cells.items()}}
    with np.errstate(all="ignore"):
        exec("\n".join(lines), dict(UFUNCS), scope)
    return scope


def _bits(scope: dict, name: str) -> bytes:
    return np.broadcast_to(np.asarray(scope[name], dtype=float), INPUTS[name].shape).tobytes()


def test_lowered_programs_equal_numpy_bitwise_or_are_refused():
    seen = Counter()

    @settings(max_examples=2000, suppress_health_check=[HealthCheck.too_slow])
    @given(PROGRAMS, st.integers(0, 3))
    @example("x = q(u)\nx[...] = v", 0)  # x = q(u) is a new array, not u, which x[...] = v would change
    @example("x = q(u * v)\ny = where(u <= v, w * w, u)", 1)  # nor the scratch array that w * w reuses
    @example("x = u\nx = q(x)\nx[...] = v", 0)
    @example("y = maximum(k(u), q(y))", 1)  # q(y) is y, which k(u) overwrites before maximum reads it
    def check(source, n_scratch):
        try:
            expected = _numpy(source)
        except (ZeroDivisionError, ValueError, TypeError):  # Python-float division, or a shape numpy refuses
            assume(False)
        cells = {}
        try:
            lines = model._lower(source, POLYS, cells, SCRATCH[:n_scratch])
        except ContractError as exc:
            seen["refused"] += 1
            if "it needs more than" in str(exc):  # with enough scratch it compiles or is refused otherwise
                try:
                    lines = model._lower(source, POLYS, cells, SCRATCH)
                except ContractError as again:
                    assert "it needs more than" not in str(again), source
                    return
            else:
                return
        got = _lowered(lines, cells)
        seen["compiled"] += 1
        for name in INPUTS:
            assert _bits(got, name) == _bits(expected, name), (source, lines, name)

    check()
    assert seen["compiled"] >= 1000, seen


@pytest.mark.parametrize("source, why", [
    ("x[1:] = a * b", "a statement is one x = e or x[...] = e"),  # an out= of x[1:] is not x
    ("x.y = a", "a statement is one x = e or x[...] = e"),
    ("x = where(f(a) <= b, a, b)", "text is only a name, a slice of a name, a literal or a comparison of two"),
    ("x = where(a <= b <= c, a, b)", "text is only a name, a slice of a name, a literal or a comparison of two"),
    ("x[...] = a * (a + b)[1:]", "text is only a name, a slice of a name, a literal or a comparison of two"),
    ("x = minimum(0.5 + 0.5, a)", "it operates on constants alone"),  # x = add(half, half) would be 0-d
    ("x = a + f(0.5)", "it operates on constants alone"),
    ("y = maximum(f(a), g(y))", "it reads y after an earlier operation wrote into it"),  # g(y) is y, read late
])
def test_lower_refuses_what_it_would_miscompile(source, why):
    with pytest.raises(ContractError, match=f"^cannot write .*: {re.escape(why)}$"):
        model._lower(source, {"f": (-0.5, 0.0, 0.5), "g": (0.0, 1.0)}, {}, ["t0", "t1"])
