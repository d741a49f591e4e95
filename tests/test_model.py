import dataclasses
import hashlib
import json
import math
import re

import numpy as np
import pytest

from horizonfv import (
    DEFAULT_KRUZHKOV_LEVELS,
    Background,
    ContractError,
    DomainError,
    build_fhat_table,
    build_uniform_mesh,
    check_structure,
    max_timestep,
    polynomial_model,
)
from horizonfv import characteristics, harness, model, scheme
from horizonfv.cli import main
from horizonfv.entropy import _quadratic_flux
from kruzhkov import kruzhkov_pair

# The evaluators burgers_model() had before it became a polynomial model;
# perfbench and every Burgers artifact rely on the new ones rounding alike.
BURGERS_LAMBDAS = {
    "f": lambda s: 0.5 * s * s - 0.5,
    "df": lambda s: np.multiply(s, 1.0),
    "h": lambda s: np.multiply(s, 0.0),
    "dh": lambda s: np.multiply(s, 0.0),
}

# f + h = (s^2 - 1)((s - 0.0005)^2 - 1e-8): positive on (0.0004, 0.0006),
# a gap between two points of a 1001-sample grid
GAP_MODEL = ((-0.5, 0.0, 0.5), (0.5 - 2.4e-7, 0.001, -1.5 + 2.4e-7, -0.001, 1.0))
# f' = s (s - 0.0004)(s - 0.0006) changes sign twice inside (0, 0.002)
WIGGLE_F = (0.0, 0.0, 1.2e-7, -0.001 / 3, 0.25)
WIGGLE_H = (-1.0, 0.0, 1.0 - 1.2e-7, 0.001 / 3, -0.25)  # h = s^2 - 1 - f
SEXTIC_F = (-13 / 6, 0.0, 5.5, 0.0, -5.0, 0.0, 5 / 3)  # -(5/3)(1-s^2)^3 + s^2/2 - 1/2


def test_burgers_values(burgers):
    assert burgers.f(0.0) == -0.5
    assert burgers.f(1.0) + burgers.h(1.0) == 0.0
    assert burgers.f(-1.0) + burgers.h(-1.0) == 0.0
    assert burgers.df(-0.5) == -0.5
    assert burgers.dh(0.3) == 0.0


def test_burgers_vectorized(burgers):
    s = np.linspace(-1, 1, 11)
    assert np.allclose(burgers.f(s), 0.5 * s * s - 0.5)
    assert np.allclose(burgers.df(s), s)


def test_burgers_evaluators_match_the_old_lambdas(burgers):
    arrays = (np.array([0.0, -0.0, 1.0, -1.0, np.nan, np.inf, -np.inf, 0.5, -1e-170]),
              np.linspace(-1.0, 1.0, 10001))
    scalars = (0.0, -0.0, 1.0, -1.0, 0.3, float("nan"), float("inf"), float("-inf"))
    with np.errstate(invalid="ignore"):
        for name, old in BURGERS_LAMBDAS.items():
            new = getattr(burgers, name)
            for x in arrays:
                assert new(x).tobytes() == old(x).tobytes(), name
            for x in scalars:
                assert np.float64(new(x)).tobytes() == np.float64(old(x)).tobytes(), (name, x)


@pytest.mark.parametrize("c", [0.0, 0.25, -1.75])
def test_constant_evaluator_keeps_the_type_and_shape_of_its_argument(c):
    const = polynomial_model("const", (-0.5, 0.0, 0.5), (c,)).h

    def ufunc_form(x):  # the same product through numpy's dispatch
        zero = np.multiply(x, 0.0)
        return zero + c if c else zero

    for x in (0.3, -0.5, 1.0, -0.0, 0):
        y = const(x)
        assert type(y) is float
        assert np.float64(y).tobytes() == ufunc_form(x).tobytes()
    assert math.copysign(1.0, const(-0.5)) == (-1.0 if c == 0.0 else math.copysign(1.0, c))
    for x in (np.linspace(-1.0, 1.0, 7), np.full((2, 3), -0.5), np.array(0.5), np.array(-0.5)):
        y = const(x)
        assert np.shape(y) == x.shape
        assert np.asarray(y).dtype == np.float64
        assert np.asarray(y).tobytes() == np.asarray(ufunc_form(x)).tobytes()


def _horner(coeffs, s):
    """The written-out Horner order the compiled evaluators must keep."""
    c0, *middle, lead = coeffs
    acc = s * lead
    for c in reversed(middle):
        if c:
            acc = acc + c
        acc = acc * s
    return acc + c0 if c0 else acc


EDGE_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310, 1e-170, 0.3, -0.7,
               1.0, -1.0, 1.5, 1e154, -1e300, 1e308, -1.7976931348623157e308, math.inf, -math.inf, math.nan)


def test_compiled_evaluators_match_the_written_out_horner_bitwise(monkeypatch, burgers, quartic, sextic,
                                                                 shifted, rounding_quartic):
    cases = [(f"{m.name}.{name}", poly) for m in (burgers, quartic, sextic, shifted, rounding_quartic)
             for name, poly in (("f", m.f_poly), ("df", model._polyder(m.f_poly)), ("h", m.h_poly),
                                ("dh", model._polyder(m.h_poly)))]
    seen = []  # the tuples a Fhat table compiles, its Taylor series included
    monkeypatch.setattr(characteristics, "_evaluator", lambda c: seen.append(c) or model._evaluator(c))
    build_fhat_table(burgers)
    cases += [(f"fhat[{i}]", coeffs) for i, coeffs in enumerate(seen)]
    assert max(len(c) for _, c in cases) == 31
    arrays = (np.array(EDGE_FLOATS), np.linspace(-1.0, 1.0, 2001), np.array(0.3), np.array(-0.0),
              np.array([0.3 + 0.4j, -1.0 - 0.0j, 1e-170j, 2.0 + 1e308j]))
    with np.errstate(all="ignore"):
        for label, coeffs in cases:
            fn = model._evaluator(coeffs)
            if len(coeffs) == 1:
                continue  # the constant branch has its own test
            for x in EDGE_FLOATS:
                got, want = fn(x), _horner(coeffs, x)
                assert type(got) is float, label
                assert np.float64(got).tobytes() == np.float64(want).tobytes(), (label, x)
            for x in arrays:
                got, want = fn(x), _horner(coeffs, x)
                assert type(got) is type(want) and np.shape(got) == np.shape(want), (label, x)
                assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), (label, x)


def test_evaluator_cache_returns_one_function_per_tuple_and_stays_bounded():
    coeffs = (-0.5, 0.0, 0.5)
    assert model._evaluator(coeffs) is model._evaluator(tuple(list(coeffs)))
    assert model._evaluator(coeffs) is not model._evaluator((-0.5, 0.0, 0.25))
    maxsize = model._evaluator.cache_info().maxsize
    assert maxsize is not None
    fns = {model._evaluator((1.0, float(k))) for k in range(1, maxsize + 11)}
    assert len(fns) == maxsize + 10
    assert model._evaluator.cache_info().currsize <= maxsize
    # a fresh compile of an evicted tuple computes the same bits
    assert model._evaluator((1.0, 1.0))(0.3) == 1.0 * 0.3 + 1.0 == _horner((1.0, 1.0), 0.3)


def test_evaluator_source_holds_no_coefficient_text():
    fn = model._evaluator((0.125, 0.0, -3.75, 2.5))
    assert sorted(cell.cell_contents for cell in fn.__closure__) == [-3.75, 0.125, 2.5]
    assert not {0.125, -3.75, 2.5} & set(fn.__code__.co_consts)


def test_replace_keeps_the_certificate(burgers):
    # the benchmark's tracer swaps in counting evaluators this way
    counted = dataclasses.replace(burgers, f=abs, df=abs, h=abs, dh=abs)
    assert counted.f is abs and counted.dh is abs
    assert counted.structure is burgers.structure
    assert counted.flux_lipschitz == burgers.flux_lipschitz
    assert counted.source_slope == burgers.source_slope


def test_derivative_crosscheck(structure_models):
    grid = np.linspace(-0.999, 0.999, 1001)
    step = 1e-6
    for m in structure_models:
        for fn, dfn in ((m.f, m.df), (m.h, m.dh)):
            approx = (fn(grid + step) - fn(grid - step)) / (2 * step)
            exact = dfn(grid)
            assert np.max(np.abs(approx - exact) / (1.0 + np.abs(exact))) <= 1e-6


def test_coefficients_trimmed():
    m = polynomial_model("padded", [-0.5, 0.0, 0.5, 0.0, -0.0], [0.0, 0.0])
    assert m.f_poly == (-0.5, 0.0, 0.5)
    assert m.h_poly == (0.0,)


def test_structure_burgers_all_flags(burgers):
    assert burgers.structure.all_ok
    assert check_structure(burgers.f_poly, burgers.h_poly) == burgers.structure


def test_structure_linear_flux_fails_roots():
    linear = polynomial_model("linear", [0.0, 1.0], [0.0])
    rep = linear.structure
    assert not rep.boundary_roots_ok  # f(1) + h(1) = 1
    assert not rep.flux_monotone_shape_ok


def test_structure_positive_interior_fails():
    # f + h = 0.1 (1 - s^2) > 0 inside, with clean roots at the ends
    lifted = polynomial_model("lifted", [-0.5, 0.0, 0.5], [0.6, 0.0, -0.6])
    rep = lifted.structure
    assert rep.boundary_roots_ok
    assert not rep.interior_negative_ok


def test_structure_positive_between_samples_fails():
    rep = polynomial_model("gap", *GAP_MODEL).structure
    assert rep.boundary_roots_ok and rep.boundary_nondegenerate_ok and rep.flux_monotone_shape_ok
    assert not rep.interior_negative_ok


def test_structure_flux_wiggle_between_samples_fails():
    rep = polynomial_model("wiggle", WIGGLE_F, WIGGLE_H).structure
    assert rep.boundary_roots_ok and rep.boundary_nondegenerate_ok and rep.interior_negative_ok
    assert not rep.flux_monotone_shape_ok


def test_structure_multiple_root_of_flux_slope(quartic):
    # f' = 2 s^3 has a triple root at 0, the point the shape changes
    assert quartic.structure.all_ok


def test_cli_refuses_model_positive_between_samples(tmp_path):
    out = tmp_path / "out"
    f_coeffs, h_coeffs = (", ".join(repr(c) for c in poly) for poly in GAP_MODEL)
    cfg = tmp_path / "gap.ini"
    cfg.write_text(f"""[model]
model = custom
f_coeffs = {f_coeffs}
h_coeffs = {h_coeffs}
[geometry]
mass = 1.0
r_max = 12.0
cells = 50
[evolution]
t_end = 0.1
[run]
output_dir = {out}
""")
    assert main(["run", str(cfg)]) == 1
    assert "interior_negative_ok" in (out / "failure_report.json").read_text()
    assert not (out / "snapshots.csv").exists()


def test_sextic_flux_lipschitz_is_the_sup():
    m = polynomial_model("sextic", SEXTIC_F, [0.0])
    grid = np.linspace(-1.0, 1.0, 200001)
    values = np.abs(m.df(grid))
    assert m.flux_lipschitz >= values.max()
    peak = grid[np.argmax(values)]
    fine = np.abs(m.df(np.linspace(peak - 2e-5, peak + 2e-5, 4001)))
    assert abs(m.flux_lipschitz - fine.max()) <= 1e-14 * fine.max()
    assert m.source_slope == m.flux_lipschitz  # h = 0


@pytest.mark.parametrize("name", ["burgers", "quartic", "sextic", "shifted", "rounding_quartic"])
def test_slope_bounds_are_certified(request, name):
    # the flux bound is the least float at or above sup |f'|, so the certification
    # started one ulp below it returns it; the source slope is certified too
    m = request.getfixturevalue(name)
    low = math.nextafter(m.flux_lipschitz, -math.inf)
    assert model._certified_bound((m.f_poly,), low) == m.flux_lipschitz
    assert model._certified_bound((m.f_poly, m.h_poly), m.source_slope) == m.source_slope


def test_slope_bound_steps_over_an_interior_peak():
    # f' = 1 + 3 ulp (1 - s^2) is 1 at both ends and 1 + 3 ulp at 0, where
    # lam - f' only touches zero; the bound is certified one ulp past the peak
    ulp = 2.0 ** -52
    f = (0.0, 1.0 + 3 * ulp, 0.0, -ulp)
    assert model._certified_bound((f,), 1.0) == 1.0 + 4 * ulp
    assert polynomial_model("peak", f, (0.0,)).flux_lipschitz == 1.0 + 4 * ulp


def test_sextic_fhat_is_the_log_of_the_flux():
    # h = 0, so Fhat(u) = log(f(u) / f(0)); f is taken in its factored form
    # (s^2 - 1)((5/3)(s^2 - 1)^2 + 1/2), because Horner's sum of the
    # coefficients loses about 1e-12 relative within 1e-3 of +/-1
    table = build_fhat_table(polynomial_model("sextic", SEXTIC_F, [0.0]))
    u = np.linspace(-0.999, 0.999, 2001)
    w = (1.0 - u) * (1.0 + u)
    expected = np.log(w) + np.log(5.0 / 3.0 * w * w + 0.5) - math.log(13.0 / 6.0)
    assert np.max(np.abs(table.value(u) - expected)) <= 1e-13


def test_cli_sextic_steady_drift_and_characteristics(tmp_path):
    out = tmp_path / "out"
    cfg = tmp_path / "sextic.ini"
    cfg.write_text(f"""[model]
model = custom
f_coeffs = {", ".join(repr(c) for c in SEXTIC_F)}
h_coeffs = 0.0
[geometry]
mass = 1.0
r_max = 12.0
cells = 50
[evolution]
t_end = 0.1
[characteristics]
s_max = 1.0
[run]
output_dir = {out}
""")
    for command in ("steady", "steady-drift", "characteristics"):
        assert main([command, str(cfg)]) == 0, command
    assert len((out / "steady.csv").read_text().splitlines()) == 51
    assert math.isfinite(json.loads((out / "steady_drift.json").read_text())["l1_drift"])
    assert json.loads((out / "summary.json").read_text())["invariant_drift"] <= 1e-8


# max_timestep as the sampled sup |f' + h'| gave it; every sup here sits at
# an endpoint, so the exact sup must reproduce these bits
SAMPLED_TIMESTEPS = {
    # model: (transport-limited on 50 cells to r = 12, source-limited with L = 1e-6)
    "burgers": (0.05999999999999978, 1.1024988975),
    "quartic": (0.02999999999999989, 0.55124944875),
    "shifted": (0.05999999999999978, 1.1024988975),
}


def test_max_timestep_bitwise_against_sampled(structure_models):
    mesh = build_uniform_mesh(Background(1.0), 12.0, 50)
    for m in structure_models:
        transport, source = SAMPLED_TIMESTEPS[m.name]
        assert max_timestep(mesh, m, m.flux_lipschitz) == transport
        assert max_timestep(mesh, m, 1e-6) == source


def test_kruzhkov_values(burgers):
    pair = kruzhkov_pair(burgers, 0.0)
    assert pair.U(0.5) == 0.5
    assert pair.F(0.5) == pytest.approx(0.125, abs=1e-15)  # f(0.5) - f(0)
    assert pair.U(0.0) == 0.0
    assert pair.dU(0.7) == 1.0
    assert pair.dU(-0.7) == -1.0


def test_kruzhkov_flux_vanishes_at_level(burgers):
    for k in DEFAULT_KRUZHKOV_LEVELS:
        pair = kruzhkov_pair(burgers, k)
        assert pair.F(k) == 0.0
        assert pair.U(0.0) == 0.0


def test_kruzhkov_even_flux_cancellation(burgers):
    # f is even, so F(-k) = sign(-2k)(f(-k) - f(k)) = 0
    pair = kruzhkov_pair(burgers, 0.25)
    assert pair.F(-0.25) == 0.0


def test_kruzhkov_odd_symmetry_for_centered_level(burgers):
    pair = kruzhkov_pair(burgers, 0.0)
    v = np.linspace(-1, 1, 41)
    assert np.allclose(pair.F(-v), -np.asarray(pair.F(v)), atol=1e-15)


def test_kruzhkov_level_domain(burgers):
    with pytest.raises(DomainError):
        kruzhkov_pair(burgers, 1.5)
    kruzhkov_pair(burgers, 1.0)
    kruzhkov_pair(burgers, -1.0)


# F(v) = int_0^v w f'(w) dw of the quadratic entropy, in closed form
QUADRATIC_FLUX = {
    "burgers": lambda v: v ** 3 / 3.0,
    "quartic": lambda v: 0.4 * v ** 5,
    "shifted": lambda v: v ** 3 / 3.0,
}


def test_quadratic_entropy_flux_values(structure_models):
    v = np.linspace(-1, 1, 21)
    for m in structure_models:
        flux = _quadratic_flux(m)
        assert flux(0.0) == 0.0
        assert np.allclose(flux(v), QUADRATIC_FLUX[m.name](v), atol=1e-15)
    assert _quadratic_flux(structure_models[0])(0.6) == pytest.approx(0.072, abs=1e-15)


@pytest.mark.parametrize("k", [None, -0.75, -0.25, 0.0, 0.25, 0.75])
def test_entropy_flux_compatibility(structure_models, k):
    # F'(v) = f'(v) U'(v) by centered differences, away from the kink; k None
    # is the quadratic entropy U = v**2/2 with the certificate's own F
    step = 1e-5
    for m in structure_models:
        if k is None:
            F, dU = _quadratic_flux(m), lambda v: v
        else:
            pair = kruzhkov_pair(m, k)
            F, dU = pair.F, pair.dU
        v = np.linspace(-0.99, 0.99, 199)
        if k is not None:
            v = v[np.abs(v - k) > 1e-3]
        approx = (np.asarray(F(v + step)) - np.asarray(F(v - step))) / (2 * step)
        exact = np.asarray(m.df(v), dtype=float) * np.asarray(dU(v), dtype=float)
        assert np.max(np.abs(approx - exact) / (1.0 + np.abs(m.df(v)))) <= 1e-6


def test_polynomial_degree_cap():
    with pytest.raises(DomainError):
        polynomial_model("toolong", list(range(10)), [0.0])
    with pytest.raises(DomainError):
        polynomial_model("nan", [-0.5, float("nan"), 0.5], [0.0])


def test_polynomial_degree_cap_counts_the_degree_after_trimming():
    m = polynomial_model("quadratic", (-0.5, 0.0, 0.5) + (0.0,) * 7, (0.0,) * 12)
    assert m.f_poly == (-0.5, 0.0, 0.5) and m.h_poly == (0.0,)
    with pytest.raises(DomainError, match="<= 8, got 2 for f and 9 for h$"):
        polynomial_model("long h", (-0.5, 0.0, 0.5), (0.0,) * 9 + (1.0,))


# huge coefficients: f' = 1e308 + 2e308 s overflows, and so does f + h = 2e308 at s = 1
OVERFLOWING_FLUX = ((0.0, 1e308, 1e308), (0.0,))
OVERFLOWING_SOURCE = ((-0.5, 0.0, 0.5), (1e308, 1e308))


def test_overflowing_flux_slope_is_refused_by_name():
    with pytest.raises(DomainError, match="a coefficient of f' overflows a float"):
        polynomial_model("big", *OVERFLOWING_FLUX)


def test_overflowing_boundary_value_is_refused_by_name():
    with pytest.raises(DomainError, match=r"f \+ h at s = 1 overflows a float"):
        polynomial_model("big", *OVERFLOWING_SOURCE)
    with pytest.raises(DomainError, match=r"f \+ h at s = 1 overflows a float"):
        check_structure(*OVERFLOWING_SOURCE)


def test_tiny_leading_coefficient_is_dropped_from_the_peak_search():
    # f = s**2 + 1e-320 s**3: np.roots of f'' = 2 + 6e-320 s overflows its
    # companion matrix; the bound is certified on the full polynomial
    m = polynomial_model("tiny", (0.0, 0.0, 1.0, 1e-320), (0.0,))
    assert m.f_poly == (0.0, 0.0, 1.0, 1e-320)
    assert 2.0 <= m.flux_lipschitz <= 2.0 + 4 * math.ulp(2.0)
    assert 2.0 <= m.source_slope <= 2.0 + 4 * math.ulp(2.0)


def test_polynomial_model_shifted_structure(shifted):
    assert shifted.structure.all_ok


@pytest.mark.parametrize("source", [
    "x[...] = a * b + x",  # multiply(a, b, x); add(x, x, x) gave 12 where numpy gives 7
    "x[...] = x + a * b",
    "x[...] = (x + a) * x",
    "x[...] = a * b + x[1:]",
    "x[...] = f(x)",  # Horner's first product goes into x, its later ones read x
    "x[...] = a * b * f(x + c)",
    "x = a * b + x",
])
def test_lower_refuses_a_read_of_its_target_after_an_operation_wrote_into_it(source):
    with pytest.raises(ContractError, match=f"^cannot write {re.escape(repr(source))}: it reads x after an "
                                            "earlier operation wrote into it$"):
        model._lower(source, {"f": (0.5, 1.0, 2.0)}, {}, ["t", "u"])


@pytest.mark.parametrize("source", [
    "x[...] = a * x + b",  # x is read by the first operation, before anything is written into it
    "x[...] = x + a",
    "x[...] = maximum(x, a) * minimum(b, c)",
    "x = where(x <= a, b * c, x)",
])
def test_lower_writes_a_read_of_its_target_before_any_operation_wrote_into_it(source):
    grid = np.array([0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324, 1.0 - 2.0 ** -53, -(1.0 - 2.0 ** -53), 0.3, -0.7])
    names = {name: np.roll(grid, k) for k, name in enumerate("abcx")}
    ufuncs = {"add": np.add, "multiply": np.multiply, "maximum": np.maximum, "minimum": np.minimum, "where": np.where}
    expected = {name: v.copy() for name, v in names.items()}
    exec(source, ufuncs, expected)
    cells, scope = {}, {name: v.copy() for name, v in names.items()}
    lines = model._lower(source, {}, cells, ["t", "u"])
    scope.update({"t": np.empty_like(grid), "u": np.empty_like(grid), **{k: np.array(v) for k, v in cells.items()}})
    exec("\n".join(lines), ufuncs, scope)
    assert scope["x"].tobytes() == expected["x"].tobytes()


def test_generated_kernel_sources_are_unchanged_by_the_target_read_refusal(monkeypatch, burgers, quartic, sextic,
                                                                           shifted, rounding_quartic):
    # every generated text: the step under each bundled flux, the shooting and the exterior tracer for
    # each model, each bundled flux's function and the interior tracer; the digest is of the texts
    # _lower wrote before it refused a read of a written target
    sources = []
    for module in (scheme, harness, characteristics):
        monkeypatch.setattr(module, "_closure",
                            lambda source, *args: sources.append(source) or model._closure(source, *args))
    for m in (burgers, quartic, sextic, shifted, rounding_quartic):
        df_poly = model._polyder(m.f_poly)
        for formula, _ in scheme._FLUXES.values():
            scheme._step_kernel.__wrapped__(m.f_poly, m.h_poly, formula, m.flux_lipschitz)
        harness._chars_kernel.__wrapped__(m.f_poly, df_poly, m.h_poly)
        characteristics._exterior_kernel.__wrapped__(m.f_poly, df_poly, m.h_poly)
    for kind, (formula, _) in scheme._FLUXES.items():
        scheme._numpy_flux.__wrapped__(kind, formula)
    characteristics._interior_kernel.__wrapped__()
    assert len(sources) == 29
    assert (hashlib.sha256("\0".join(sources).encode()).hexdigest()
            == "2472c3957f248c9a65759fee2fa0b1d918f23f460839d3ad73ead336234efc48")
