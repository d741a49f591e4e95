import math
import re
import sys
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from horizonfv import characteristics, model
from horizonfv import (
    Background,
    CharState,
    DomainError,
    NumericsError,
    RangeError,
    StepSizeError,
    UnsupportedModelError,
    build_fhat_table,
    build_uniform_mesh,
    exterior_invariant,
    fhat_inverse,
    h_prime_interior,
    interior_invariant,
    polynomial_model,
    steady_profile,
    trace_exterior,
    trace_interior,
)
from horizonfv.characteristics import _guard_u
from horizonfv.quadrature import adaptive_simpson
from horizonfv.cli import main
from fate import classify_fate, escape_velocity

# f = (s^2 - 1)/4, h = 7(s^2 - 1)/4: admissible, with Fhat(u) = log(1 - u^2)/8,
# so (1 - u^2) / a^8 is conserved and the plus branch bottoms out near -2.5
# at the clamp, far shallower than the log of the clamp distance
SHALLOW_F = (-0.25, 0.0, 0.25)
SHALLOW_H = (-1.75, 0.0, 1.75)


@pytest.fixture(scope="module")
def shallow_table():
    return build_fhat_table(polynomial_model("shallow", SHALLOW_F, SHALLOW_H))


# --- the exterior right-hand side by hand ---------------------------------------

def _rhs_exterior(m, mass, r, u):
    """(dt/ds, dr/ds, du/ds) of the exterior characteristic system, the
    reference right-hand side the tracer replays are checked against."""
    if not r > 2.0 * mass:
        raise DomainError("outside")
    a = 1.0 - 2.0 * mass / r
    du = (2.0 * mass / (r - 2.0 * mass) ** 2) * (float(m.f(u)) + float(m.h(u)))
    return 1.0 / (a * a), float(m.df(u)) / a, du


def test_rhs_exterior_worked_example(burgers):
    # a = 1/2, f'(0.5) / a = 1, (2 / 4) (f + h)(0.5) = -3/16
    assert _rhs_exterior(burgers, 1.0, 4.0, 0.5) == (4.0, 1.0, -0.1875)


def test_rhs_exterior_roots_are_stationary_in_u(burgers):
    for u in (1.0, -1.0):
        _, _, du = _rhs_exterior(burgers, 1.0, 5.0, u)
        assert du == 0.0


def test_rhs_exterior_flat_space(burgers):
    assert _rhs_exterior(burgers, 0.0, 5.0, 0.3) == (1.0, 0.3, 0.0)


# --- Fhat and its inverses ----------------------------------------------------

def test_fhat_matches_burgers_closed_form(fhat_table):
    us = np.linspace(-0.999, 0.999, 201)
    worst = max(abs(fhat_table.value(u) - math.log(1.0 - u * u)) for u in us)
    assert worst <= 1e-10


def test_fhat_worked_values(fhat_table):
    assert fhat_table.value(0.0) == 0.0
    assert fhat_table.value(0.6) == pytest.approx(math.log(0.64), abs=1e-11)
    assert fhat_table.value(-0.6) == pytest.approx(math.log(0.64), abs=1e-11)


def test_fhat_near_clamp_matches_cancellation_free_forms(fhat_table, quartic):
    eps = 1e-9
    tail = np.logspace(-9, -1, 300)
    u = np.concatenate((np.linspace(-1.0 + eps, 1.0 - eps, 4001), 1.0 - tail, tail - 1.0))
    burgers_form = np.log1p(-u) + np.log1p(u)
    assert np.max(np.abs(fhat_table.value(u) - burgers_form)) <= 1e-13
    quartic_form = burgers_form + np.log1p(u * u)
    assert np.max(np.abs(build_fhat_table(quartic).value(u) - quartic_form)) <= 1e-13


def test_fhat_of_a_flat_flux_keeps_relative_accuracy_near_zero():
    # f = (s^8 - 1)/2, h = 0: Fhat = log1p(-u^8), far below the rounding of
    # the residue logarithms near 0, so the branch samples there are only
    # monotone because the Taylor series takes over
    table = build_fhat_table(polynomial_model("octic", (-0.5,) + (0.0,) * 7 + (0.5,), (0.0,)))
    u = np.linspace(-0.999, 0.999, 2001)
    assert np.max(np.abs(table.value(u) - np.log1p(-u ** 8))) <= 1e-13
    small = np.array([1e-3, 1 / 512, -0.05, 0.2])
    assert np.max(np.abs(table.value(small) / np.log1p(-small ** 8) - 1.0)) <= 1e-14


def test_fhat_value_takes_scalars_and_arrays(fhat_table):
    us = np.array([[-0.7, -1e-3], [0.0, 0.999]])
    got = fhat_table.value(us)
    assert got.shape == us.shape
    assert got.ravel().tolist() == [fhat_table.value(float(u)) for u in us.ravel()]
    assert isinstance(fhat_table.value(0.3), float)


def test_fhat_refuses_repeated_root_of_q():
    # f + h = (s^2 - 1)(s^2 + 1)^2 / 2, so q = (s^2 + 1)^2 / 2 has double
    # roots at +/-i; the model itself is admissible
    m = polynomial_model("double", (-0.5, 0.0, 0.5), (0.0, 0.0, -1.0, 0.0, 0.5, 0.0, 0.5))
    assert m.structure.all_ok
    with pytest.raises(UnsupportedModelError, match="repeated root"):
        build_fhat_table(m)


def test_fhat_table_refuses_inadmissible_model():
    # f + h = s vanishes at 0, so the integrand f'/(f + h) has a pole there
    with pytest.raises(UnsupportedModelError, match="boundary_roots_ok, interior_negative_ok"):
        build_fhat_table(polynomial_model("linear", (0.0, 1.0), (0.0,)))


def test_fhat_table_refuses_a_closed_form_its_quadrature_contradicts(monkeypatch, burgers):
    # no model is known to reach it; a quadrature off by 1e-8 stands in for a wrong closed form
    simpson = characteristics.adaptive_simpson
    monkeypatch.setattr(characteristics, "adaptive_simpson", lambda *args: simpson(*args) + 1e-8)
    with pytest.raises(DomainError, match=r"^model 'burgers': closed-form Fhat\(0\.5\) = .* disagrees with quadrature"):
        build_fhat_table(burgers)


@pytest.mark.parametrize("sample, message", [
    (1280 + 600, r"Fhat is not decreasing and negative on \(0, 1\)$"),  # a plus branch sample
    (600, r"Fhat is not increasing and negative on \(-1, 0\)$"),  # a minus branch sample
])
def test_fhat_table_refuses_branch_samples_out_of_order(monkeypatch, burgers, sample, message):
    # no model is known to reach it; two neighbours among the 2 x 1280 branch samples swapped stand in
    value = characteristics.FhatTable.value

    def swapped(self, u):
        out = value(self, u)
        if np.size(u) == 2560:
            out[[sample, sample + 1]] = out[[sample + 1, sample]]
        return out

    monkeypatch.setattr(characteristics.FhatTable, "value", swapped)
    with pytest.raises(DomainError, match=f"^model 'burgers': {message}"):
        build_fhat_table(burgers)


def test_fhat_domain_clamp(fhat_table):
    with pytest.raises(DomainError):
        fhat_table.value(1.0)
    with pytest.raises(DomainError):
        fhat_table.value(-(1.0 - 1e-12))


def test_fhat_branch_shapes(fhat_table):
    assert np.all(np.diff(fhat_table.plus_f) < 0.0)
    assert np.all(fhat_table.plus_f[1:] < 0.0)
    assert np.all(np.diff(fhat_table.minus_f) > 0.0)
    assert np.all(fhat_table.minus_f[:-1] < 0.0)


def test_fhat_inverse_worked_values(fhat_table):
    assert fhat_inverse(fhat_table, "plus", math.log(0.75)) == pytest.approx(0.5, abs=1e-11)
    assert fhat_inverse(fhat_table, "minus", math.log(0.75)) == pytest.approx(-0.5, abs=1e-11)
    assert fhat_inverse(fhat_table, "plus", 0.0) == 0.0
    assert fhat_inverse(fhat_table, "minus", 0.0) == 0.0


def test_fhat_inverse_range_errors(fhat_table):
    with pytest.raises(RangeError):
        fhat_inverse(fhat_table, "plus", 0.1)
    with pytest.raises(RangeError):
        fhat_inverse(fhat_table, "plus", -1e9)
    with pytest.raises(DomainError):
        fhat_inverse(fhat_table, "sideways", -0.1)


def test_fhat_inverse_refuses_a_nan_target(fhat_table):
    for branch in ("plus", "minus"):
        for y in (math.nan, np.array([-0.5, math.nan, -0.1])):
            with pytest.raises(DomainError, match="target is NaN"):
                fhat_inverse(fhat_table, branch, y)


def test_fhat_inverse_roundtrip(fhat_table):
    for u in (0.1, 0.35, 0.8, 0.97):
        assert fhat_inverse(fhat_table, "plus", fhat_table.value(u)) == pytest.approx(u, abs=1e-11)
        assert fhat_inverse(fhat_table, "minus", fhat_table.value(-u)) == pytest.approx(-u, abs=1e-11)


# --- escape velocity and fate ---------------------------------------------------

def test_escape_velocity_closed_form(fhat_table):
    assert escape_velocity(fhat_table, 1.0, 8.0) == pytest.approx(0.5, abs=1e-10)
    assert escape_velocity(fhat_table, 1.0, 4.0) == pytest.approx(math.sqrt(0.5), abs=1e-10)
    assert escape_velocity(fhat_table, 0.0, 5.0) == 0.0


def test_fate_worked_examples(fhat_table):
    escaping = classify_fate(fhat_table, 1.0, 8.0, 0.6)
    assert escaping.kind == "escapes"
    assert not escaping.r_limit_finite
    assert escaping.u_limit == pytest.approx(math.sqrt((0.36 - 0.25) / 0.75), abs=1e-10)

    sub = classify_fate(fhat_table, 1.0, 8.0, 0.3)
    assert sub.kind == "falls_in" and sub.u_limit == -1.0 and sub.r_limit_finite

    neg = classify_fate(fhat_table, 1.0, 8.0, -0.4)
    assert neg.kind == "falls_in"

    marginal = classify_fate(fhat_table, 1.0, 8.0, escape_velocity(fhat_table, 1.0, 8.0))
    assert marginal.kind == "marginal" and marginal.u_limit == 0.0


def test_escape_velocity_of_a_shallow_model(shallow_table):
    # u_esc = sqrt(1 - a^8); at r = 2.1 that needs Fhat = log(a) < -3, below the branch
    assert escape_velocity(shallow_table, 1.0, 4.0) == math.sqrt(1.0 - 2.0 ** -8)
    with pytest.raises(RangeError):
        escape_velocity(shallow_table, 1.0, 2.1)


# --- steady profiles -------------------------------------------------------------

def test_steady_profile_anchor_identity(fhat_table):
    got = steady_profile(fhat_table, 1.0, 4.0, 0.9, np.array([4.0]))
    assert got[0] == pytest.approx(0.9, abs=1e-11)


def test_steady_profile_closed_form(fhat_table):
    grid = np.array([3.0, 4.0, 6.0, 8.0, 12.0])
    got = steady_profile(fhat_table, 1.0, 4.0, 0.9, grid)
    expected = np.sqrt(1.0 - (1.0 - 0.81) * (1.0 - 2.0 / grid) / 0.5)
    assert np.max(np.abs(got - expected)) <= 1e-10
    assert got[np.argsort(grid)].tolist() == sorted(got, reverse=True)  # decreasing for u0 > 0


def test_steady_profile_negative_anchor_increasing(fhat_table):
    grid = np.linspace(2.5, 5.5, 7)
    got = steady_profile(fhat_table, 1.0, 4.0, -0.5, grid)
    assert np.all(np.diff(got) > 0.0)
    expected = -np.sqrt(1.0 - (1.0 - 0.25) * (1.0 - 2.0 / grid) / 0.5)
    assert np.max(np.abs(got - expected)) <= 1e-10


@pytest.mark.parametrize("u0, order", [(0.9, "decreasing"), (-0.5, "increasing")])
def test_steady_profile_refuses_an_inverse_out_of_order(monkeypatch, fhat_table, u0, order):
    # no inverse is known to reach it; two states swapped stand in for one out of order
    inverse = characteristics.fhat_inverse

    def swapped(*args):
        out = inverse(*args)
        out[[3, 4]] = out[[4, 3]]
        return out

    grid = np.linspace(2.5, 5.5, 7)
    steady_profile(fhat_table, 1.0, 4.0, u0, grid)
    monkeypatch.setattr(characteristics, "fhat_inverse", swapped)
    with pytest.raises(RangeError, match=f"^steady profile failed its monotonicity check \\(expected {order} in r\\)$"):
        steady_profile(fhat_table, 1.0, 4.0, u0, grid)


def test_steady_profile_range_error_reports_interval(fhat_table):
    # u0 = -0.5 anchored at r0 = 4 leaves the branch at a(r) = 2/3, i.e. r = 6
    with pytest.raises(RangeError) as err:
        steady_profile(fhat_table, 1.0, 4.0, -0.5, np.array([7.0]))
    assert "admissible" in str(err.value)
    assert "6" in str(err.value)
    # right at the edge it still works
    edge = steady_profile(fhat_table, 1.0, 4.0, -0.5, np.array([5.9]))
    assert edge[0] < 0.0


def test_steady_profile_of_a_shallow_model(shallow_table):
    grid = np.linspace(2.3, 4.1, 50)
    got = steady_profile(shallow_table, 1.0, 4.0, 0.5, grid)
    expected = np.sqrt(1.0 - (1.0 - 0.25) * ((1.0 - 2.0 / grid) / 0.5) ** 8)
    assert np.max(np.abs(got - expected)) <= 1e-15


def test_cli_runs_a_shallow_model(tmp_path):
    out = tmp_path / "out"
    cfg = tmp_path / "shallow.ini"
    cfg.write_text(f"""[model]
model = custom
f_coeffs = {", ".join(map(repr, SHALLOW_F))}
h_coeffs = {", ".join(map(repr, SHALLOW_H))}
[geometry]
mass = 1.0
r_max = 4.1
cells = 10
[evolution]
t_end = 0.1
[steady]
r0 = 4.0
u0 = 0.5
[characteristics]
r0 = 3.0
s_max = 1.0
[run]
output_dir = {out}
""")
    for command in ("steady", "steady-drift", "characteristics"):
        assert main([command, str(cfg)]) == 0, command
    assert not (out / "failure_report.json").exists()


def test_steady_profile_work_is_one_vectorised_inverse(monkeypatch, burgers):
    calls = Counter()

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    monkeypatch.setattr(characteristics, "adaptive_simpson",
                        counting("simpson", characteristics.adaptive_simpson))
    table = build_fhat_table(burgers)
    assert calls["simpson"] <= 2
    monkeypatch.setattr(characteristics, "fhat_inverse",
                        counting("inverse", characteristics.fhat_inverse))
    monkeypatch.setattr(characteristics.FhatTable, "value",
                        counting("value", characteristics.FhatTable.value))
    radii = build_uniform_mesh(Background(1.0), 12.0, 400).centers
    profile = steady_profile(table, 1.0, 4.0, 0.9, radii)
    assert profile.shape == (400,)
    assert calls["inverse"] == 1
    # the anchor value plus a few Newton sweeps over all radii at once
    assert calls["value"] <= 8


def test_steady_profile_sonic_anchor_rejected(fhat_table):
    with pytest.raises(DomainError):
        steady_profile(fhat_table, 1.0, 4.0, 0.0, np.array([4.0]))
    for bad in (math.nan, 1.0, -1.0):  # the message names the refused state
        with pytest.raises(DomainError, match=rf"^u0={bad} must satisfy \|u0\| <= 1 - 1e-09$"):
            steady_profile(fhat_table, 1.0, 4.0, bad, np.array([4.0]))


def test_steady_profile_refuses_radii_at_or_inside_the_horizon(fhat_table):
    for r0 in (2.0, 1.5):
        with pytest.raises(DomainError, match=f"^anchor radius r0={r0} must exceed the horizon radius 2.0$"):
            steady_profile(fhat_table, 1.0, r0, 0.5, np.array([4.0]))
        with pytest.raises(DomainError, match="^steady profile radii must exceed the horizon radius$"):
            steady_profile(fhat_table, 1.0, 4.0, 0.5, np.array([4.0, r0]))


def test_fhat_inverse_refuses_an_iteration_that_does_not_converge(monkeypatch, fhat_table):
    # a single pass leaves the bracket of -1.0 wider than 1e-14; no target is known to need 100
    monkeypatch.setattr(characteristics, "_NEWTON_MAX_ITER", 1)
    with pytest.raises(NumericsError, match="^Fhat inverse on the plus branch did not converge$"):
        fhat_inverse(fhat_table, "plus", -1.0)


def test_adaptive_simpson_of_an_empty_or_reversed_interval_and_its_depth_cap():
    assert adaptive_simpson(math.exp, 1.0, 1.0) == 0.0
    assert adaptive_simpson(math.exp, 1.0, 0.0) == -adaptive_simpson(math.exp, 0.0, 1.0)
    with pytest.raises(NumericsError, match="^adaptive quadrature exceeded depth 60 on "):
        adaptive_simpson(lambda w: float(w > 1e-200), -1.0, 1.0, tol=0.0)  # a jump the halvings never isolate


def test_steady_profile_refuses_a_radius_that_is_not_finite(fhat_table):
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError, match=f"anchor radius r0={bad} is not finite"):
            steady_profile(fhat_table, 1.0, bad, 0.5, np.array([4.0, 6.0]))
        with pytest.raises(DomainError, match=f"steady profile radius {bad} is not finite"):
            steady_profile(fhat_table, 1.0, 4.0, 0.5, np.array([4.0, bad, 6.0]))


# --- exterior traces ---------------------------------------------------------------

def test_trace_flat_space_linear_motion(burgers):
    path = trace_exterior(burgers, 0.0, CharState(0.0, 0.0, 5.0, 0.3), 1e-2, 2.0)
    assert path.stop_reason == "s_max"
    assert np.allclose(path.r, 5.0 + 0.3 * path.s, atol=1e-13)
    assert np.array_equal(path.u, np.full_like(path.u, 0.3))
    assert np.allclose(path.t, path.s, atol=1e-13)


def test_trace_exterior_invariant_conservation(burgers):
    path = trace_exterior(burgers, 1.0, CharState(0.0, 0.0, 8.0, 0.6), 1e-3, 5.0)
    inv = np.log(1.0 - path.u ** 2) - np.log(1.0 - 2.0 / path.r)
    assert np.max(np.abs(inv - inv[0])) / abs(inv[0]) <= 1e-8


def test_trace_exterior_invariant_via_table(burgers, fhat_table):
    path = trace_exterior(burgers, 1.0, CharState(0.0, 0.0, 8.0, 0.6), 1e-3, 2.0)
    inv = exterior_invariant(fhat_table, 1.0, path)
    assert np.max(np.abs(inv - inv[0])) <= 1e-8


@pytest.mark.parametrize("call", ["steady_profile", "trace_exterior", "exterior_invariant"])
@pytest.mark.parametrize("mass", [-1.0, math.nan, math.inf, -math.inf])
def test_characteristics_refuse_a_bad_mass_by_name_before_any_work(monkeypatch, burgers, fhat_table, call, mass):
    path = trace_exterior(burgers, 1.0, CharState(0.0, 0.0, 5.0, 0.6), 0.01, 0.05)

    def no_work(*args):
        raise AssertionError("work done")

    for name in ("fhat_inverse", "_rk4_trace"):
        monkeypatch.setattr(characteristics, name, no_work)
    monkeypatch.setattr(characteristics.FhatTable, "value", no_work)
    calls = {"steady_profile": lambda: steady_profile(fhat_table, mass, 4.0, 0.5, [4.0, 6.0]),
             "trace_exterior": lambda: trace_exterior(burgers, mass, CharState(0.0, 0.0, 5.0, 0.6), 0.01, 0.05),
             "exterior_invariant": lambda: exterior_invariant(fhat_table, mass, path)}
    with pytest.raises(DomainError, match=f"^mass must be finite and >= 0, got {mass}$"):
        calls[call]()


def test_trace_exterior_fourth_order_in_ds(burgers):
    # steep段 of an escaping characteristic; drift well above round-off
    def drift(ds):
        p = trace_exterior(burgers, 1.0, CharState(0.0, 0.0, 2.5, 0.9), ds, 2.0)
        inv = np.log(1.0 - p.u ** 2) - np.log(1.0 - 2.0 / p.r)
        return np.max(np.abs(inv - inv[0])) / abs(inv[0])

    d1, d2 = drift(1e-3), drift(5e-4)
    assert d1 <= 1e-7
    assert d1 / d2 >= 12.0


def test_trace_falls_in_reaches_horizon(burgers):
    path = trace_exterior(burgers, 1.0, CharState(0.0, 0.0, 8.0, -0.1), 1e-3, 50.0)
    assert path.stop_reason == "horizon"
    assert path.u[-1] <= -0.99
    assert path.r[-1] < 2.1
    assert np.all(np.diff(path.u) <= 0.0)  # monotone decay toward -1


def test_trace_r_stop(burgers):
    path = trace_exterior(burgers, 1.0, CharState(0.0, 0.0, 8.0, 0.9), 1e-3, 50.0, r_stop=12.0)
    assert path.stop_reason == "r_stop"
    assert path.r[-1] > 12.0


def test_trace_maximum_principle_bound(burgers):
    # ds fine enough that every path completes (horizon halt or s_max)
    for u0 in (-0.95, -0.5, 0.2, 0.95):
        path = trace_exterior(burgers, 1.0, CharState(0.0, 0.0, 6.0, u0), 1e-4, 3.0)
        assert np.max(np.abs(path.u)) <= 1.0 + 1e-9


def test_trace_overshoot_raises_step_size_error(burgers):
    # too coarse for the horizon approach: the state shoots past -1
    with pytest.raises(StepSizeError):
        trace_exterior(burgers, 1.0, CharState(0.0, 0.0, 6.0, -0.5), 1e-3, 3.0)


def test_guard_u_policy():
    assert _guard_u(1.0 + 5e-10) == 1.0
    assert _guard_u(-1.0 - 5e-10) == -1.0
    assert _guard_u(0.5) == 0.5
    with pytest.raises(StepSizeError):
        _guard_u(1.0 + 5e-9)


def test_trace_refuses_a_trace_that_leaves_the_finite_numbers(burgers):
    # evendf is admissible, with f' of even degree, so a stage state far below -1 moves the radius
    # out: from u = 0 its steps of 1e5 end with u = -inf, which was a StepSizeError, and those of
    # 1e15 with u = nan, which wrote the row (r, u) = (inf, nan) and ended at "horizon"; from u = 0
    # Burgers' step of 1e300 takes a stage radius to -inf, which also ended at "horizon"
    evendf = polynomial_model("evendf", (-0.5, 0.0, 0.5, -0.01, 0.0, 0.01), (0.0,))
    assert evendf.structure.all_ok
    for m, ds in ((evendf, 1e5), (evendf, 1e15), (burgers, 1e300)):
        with pytest.raises(NumericsError, match=re.escape(f"trace from r=3.0, u=0.0 with ds={ds} overflowed: "
                                                          "the trace left the finite numbers")):
            trace_exterior(m, 1.0, CharState(0.0, 0.0, 3.0, 0.0), ds, 3.0 * ds)
    with pytest.raises(NumericsError, match="the trace left the finite numbers$"):
        trace_interior(1.0, 0.5, (0.0, 3.0, 0.0), 1e300, 1e300)
    for u in (math.nan, math.inf, -math.inf):
        with pytest.raises(OverflowError, match="^the trace left the finite numbers$"):
            _guard_u(u)



def test_trace_refuses_a_division_by_a_zero_that_underflowed(burgers):
    # at M = 1e-200 and r = 1e-199, (r - 2M)**2 underflows to 0.0; IEEE's two_m / 0.0 is inf
    with pytest.raises(NumericsError, match=re.escape("trace from r=1e-199, u=0.6 with ds=0.001 overflowed: "
                                                      "the trace left the finite numbers")):
        trace_exterior(burgers, 1e-200, CharState(0.0, 0.0, 1e-199, 0.6), 1e-3, 5.0)

def test_trace_rejects_bad_start(burgers):
    with pytest.raises(DomainError):
        trace_exterior(burgers, 1.0, CharState(0.0, 0.0, 2.0000001, 0.5), -1e-3, 1.0)
    with pytest.raises(DomainError):
        trace_exterior(burgers, 1.0, CharState(0.0, 0.0, 1.5, 0.5), 1e-3, 1.0)


def test_trace_refuses_a_step_that_is_not_finite_and_positive(burgers):
    for ds in (math.inf, math.nan, 0.0, -1e-3, -math.inf):
        with pytest.raises(DomainError, match=r"ds = .* must be finite and positive"):
            trace_exterior(burgers, 1.0, CharState(0.0, 0.0, 5.0, 0.6), ds, 1.0)
        with pytest.raises(DomainError, match=r"ds = .* must be finite and positive"):
            trace_interior(1.0, 0.5, (0.0, 5.0, 0.6), ds, 1.0)


# --- the shifted slicing -----------------------------------------------------------

def test_h_prime_zero_shift_formula():
    for big_r in (3.0, 5.0, 9.0):
        got = h_prime_interior(1.0, 0.0, big_r)
        a = 1.0 - 2.0 / big_r
        assert got == pytest.approx(math.sqrt(2.0 / big_r) / a, abs=1e-14)


def test_h_prime_worked_example():
    assert h_prime_interior(1.0, 0.5, 4.0) == pytest.approx(1.178030178747903, abs=1e-12)


def test_h_prime_nonnegative_radicand_for_admissible_shift():
    for big_r in np.linspace(2.01, 200.0, 50):
        for shift in (0.2, 0.5, 1.0):
            assert h_prime_interior(1.0, shift, big_r) >= 0.0


def test_h_prime_negative_radicand_reports_range():
    # shift beyond the mass makes the radicand negative at large R
    with pytest.raises(DomainError) as err:
        h_prime_interior(0.3, 0.5, 0.7)
    assert "valid range" in str(err.value)
    h_prime_interior(0.3, 0.5, 0.62)  # inside the admissible window


def _exact_h_prime(mass, shift, big_r):
    """sqrt(1 - a R**2 / r**2) / a with a = 1 - 2M/R and r = R - shift, exact in fractions up to the
    rounding of the radicand and of a to floats."""
    m, s, big = Fraction(mass), Fraction(shift), Fraction(big_r)
    a = 1 - 2 * m / big
    return math.sqrt(1 - a * (big / (big - s)) ** 2) / float(a)


def test_h_prime_keeps_its_digits_at_large_radius_for_shift_up_to_mass():
    # with shift = M the exact radicand is M**2 / (R - M)**2; 1 - a (R/r)**2 lost it to the rounding of
    # 1 - 1, giving 9.94e-8 for 1.0000003e-7 at R = 1e7 and 0.0 from R ~ 7.9e7 on
    for big_r in (1e7, 3e7, 7.9e7, 1e9, 78668898.29584378):
        exact = _exact_h_prime(1.0, 1.0, big_r)
        assert exact > 0.0 and abs(h_prime_interior(1.0, 1.0, big_r) - exact) <= 1e-13 * exact, big_r
    path = trace_interior(1.0, 1.0, (0.0, 135099352.1198025, 0.6), 1e-3, 0.01, r_stop=1e12)
    assert path.stop_reason == "s_max" and len(path) == 11
    for r0 in np.geomspace(1e8, 1e10, 200):
        assert trace_interior(1.0, 1.0, (0.0, float(r0), 0.6), 1e-3, 0.01, r_stop=1e12).stop_reason == "s_max"


def test_h_prime_is_within_1e_13_of_the_exact_value_for_shift_up_to_mass(rng):
    for _ in range(20000):
        mass = float(10.0 ** rng.uniform(-2.0, 2.0))
        shift = mass if rng.uniform() < 0.25 else float(mass * rng.uniform(-1.0, 1.0))
        big_r = float(2.0 * mass * (1.0 + 1e-3) * 10.0 ** rng.uniform(0.0, 9.0))
        exact = _exact_h_prime(mass, shift, big_r)
        assert abs(h_prime_interior(mass, shift, big_r) - exact) <= 1e-13 * exact, (mass, shift, big_r)


def test_h_prime_domain_guards():
    with pytest.raises(DomainError):
        h_prime_interior(1.0, 0.5, 2.0)
    with pytest.raises(DomainError):
        h_prime_interior(1.0, 5.0, 4.0)  # R - shift < 0


def test_trace_interior_pinned_states():
    for u0 in (1.0, -1.0):
        path = trace_interior(1.0, 0.5, (0.0, 6.0, u0), 1e-2, 1.0)
        assert np.array_equal(path.u, np.full_like(path.u, u0))


def test_trace_interior_invariant(burgers):
    path = trace_interior(1.0, 0.5, (0.0, 8.0, 0.6), 1e-3, 5.0)
    inv = interior_invariant(1.0, path)
    assert np.max(np.abs(inv - inv[0])) / abs(inv[0]) <= 1e-8


def test_trace_interior_horizon_regular_infall():
    # the shifted slicing has no stiff factor at R = 2M: an infalling trace
    # walks all the way down to the guard with the state pinned near -1
    path = trace_interior(1.0, 0.5, (0.0, 3.0, -0.5), 1e-3, 60.0)
    assert path.stop_reason == "horizon"
    assert path.r[-1] == pytest.approx(2.0, abs=1e-5)
    assert path.u[-1] == pytest.approx(-1.0, abs=1e-4)
    assert np.max(np.abs(path.u)) <= 1.0


def test_interior_matches_exterior_curve(burgers):
    # same areal radius and state: both tracers draw the same (r, u) curve,
    # read off through the shared conserved combination
    ext = trace_exterior(burgers, 1.0, CharState(0.0, 0.0, 8.0, 0.6), 1e-3, 3.0)
    intr = trace_interior(1.0, 0.5, (0.0, 8.0, 0.6), 1e-3, 3.0)
    c_ext = (1.0 - ext.u[0] ** 2) / (1.0 - 2.0 / ext.r[0])
    c_int = (1.0 - intr.u[0] ** 2) / (1.0 - 2.0 / intr.r[0])
    assert c_ext == pytest.approx(c_int, rel=1e-14)
    # resample the interior curve at a few exterior radii and compare states
    for r_q in (8.2, 8.5, 9.0):
        u_ext = np.interp(r_q, ext.r, ext.u)
        u_int = np.interp(r_q, intr.r, intr.u)
        assert u_ext == pytest.approx(u_int, abs=1e-6)


# --- bitwise replays of the tracers ------------------------------------------------

class _StageHalt(Exception):
    pass


def _reference_rk4(rhs, s, t, r, u, ds, s_max, guard_r, r_stop):
    """Reference RK4 over rhs(t, r, u): tuple stages, 0.5 * ds * k and
    ds / 6.0 * (...) written out in every product, _guard_u after every
    step; a stage below guard_r raises _StageHalt and ends the trace at
    "horizon"."""
    out = [[s], [t], [r], [_guard_u(u)]]
    u = out[3][0]
    reason = "s_max"
    for _ in range(max(int(round((s_max - s) / ds)), 0)):
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
        for column, value in zip(out, (s, t, r, u)):
            column.append(value)
        if r_stop is not None and r > r_stop:
            reason = "r_stop"
            break
    return reason, [np.array(column).tobytes() for column in out]


def _reference_exterior(m, mass, start, ds, s_max, r_stop=None):
    guard_r = 2.0 * mass * (1.0 + 1e-6)

    def rhs(t, r, u):
        if not r > guard_r:
            raise _StageHalt
        return _rhs_exterior(m, mass, r, u)

    return _reference_rk4(rhs, start.s, start.t, start.r, start.u, ds, s_max, guard_r, r_stop)


def _outcome(trace, *args):
    try:
        path = trace(*args)
    except StepSizeError as exc:
        return "StepSizeError", str(exc)
    if isinstance(path, tuple):
        return path
    return path.stop_reason, [a.tobytes() for a in (path.s, path.t, path.r, path.u)]


# (r0 - 2M, u0, ds, s_max, r_stop - 2M)
EXTERIOR_STARTS = ((3.0, 0.6, 1e-2, 2.0, None), (3.0, 0.9, 1e-2, 30.0, 6.0),
                   (0.5, -0.4, 1e-2, 30.0, None), (4.0, -0.5, 1e-2, 8.0, None),
                   (2.0, -0.0, 1e-2, 1.0, None), (1.0, 1.0, 1e-2, 1.0, None))


def test_trace_exterior_replays_the_two_layer_rk4_bitwise(burgers, quartic, shifted):
    seen = Counter()
    for m in (burgers, quartic, shifted):
        for mass in (0.0, 0.5, 1.0):
            for dr, u0, ds, s_max, stop in EXTERIOR_STARTS:
                args = (m, mass, CharState(0.0, 0.25, 2.0 * mass + dr, u0), ds, s_max,
                        None if stop is None else 2.0 * mass + stop)
                got = _outcome(trace_exterior, *args)
                assert got == _outcome(_reference_exterior, *args), (m.name, mass, dr, u0)
                seen[got[0]] += 1
    assert set(seen) == {"s_max", "horizon", "r_stop", "StepSizeError"}


def test_trace_exterior_steps_that_end_early_match_the_reference(burgers):
    # coarse steps from just above the guard end the trace at the second,
    # third or fourth stage of a step, or after it; with f + h > 0 inside
    # (inadmissible) the state rises and overshoots +1
    rising = polynomial_model("rising", (-0.5, 0.0, 0.5), (1.0, 0.0, -1.0))
    outcomes = Counter()
    for m, r_grid, states in ((burgers, np.linspace(2.0005, 2.3, 13), (-0.9, -0.5, -0.1, 0.0)),
                              (rising, (2.1, 2.5), (0.5, 0.9))):
        for ds in (0.01, 0.02, 0.05, 0.1):
            for r0 in r_grid:
                for u0 in states:
                    args = (m, 1.0, CharState(0.0, 0.0, float(r0), u0), ds, 2.0)
                    got = _outcome(trace_exterior, *args)
                    assert got == _outcome(_reference_exterior, *args), (m.name, ds, r0, u0)
                    outcomes[got[0], "overshot to u=1." in got[1]] += 1
    assert outcomes[("horizon", False)] and outcomes[("StepSizeError", True)]


def _reference_interior(mass, shift, start, ds, s_max, r_stop=None):
    guard_r = 2.0 * mass * (1.0 + 1e-6)

    def rhs(t, r, u):
        if not r > guard_r:
            raise _StageHalt
        a = 1.0 - 2.0 * mass / r
        hp = h_prime_interior(mass, shift, r)
        return 1.0 + hp * u * a, a * u, (mass / (r * r)) * (u * u - 1.0)

    t0, r0, u0 = start
    return _reference_rk4(rhs, 0.0, t0, r0, u0, ds, s_max, guard_r, r_stop)


@pytest.mark.parametrize("mass, shift, start, ds, s_max, r_stop", [
    (1.0, 0.5, (0.0, 8.0, 0.6), 1e-2, 5.0, None),
    (1.0, 0.5, (0.0, 3.0, -0.5), 1e-2, 60.0, None),   # horizon
    (1.0, 1.0, (0.5, 2.5, -0.99), 0.1, 40.0, None),   # horizon inside a step
    (1.0, 0.2, (0.0, 6.0, 1.0), 1e-2, 2.0, None),     # pinned state
    (0.5, 0.25, (0.0, 3.0, 0.9), 1e-2, 40.0, 9.0),    # r_stop
])
def test_trace_interior_replays_the_reference_bitwise(mass, shift, start, ds, s_max, r_stop):
    args = (mass, shift, start, ds, s_max, r_stop)
    assert _outcome(trace_interior, *args) == _outcome(_reference_interior, *args)


# (r0, u0, ds, s_max, r_stop) of the steady benchmark workload's characteristic
STEADY_START = (8.0, 0.6, 1e-3, 5.0, 120.0)


def test_trace_exterior_replays_the_reference_on_every_model(burgers, quartic, sextic, shifted,
                                                             rounding_quartic):
    seen = Counter()
    for m in (sextic, rounding_quartic):
        for mass in (0.0, 0.5, 1.0):
            for dr, u0, ds, s_max, stop in EXTERIOR_STARTS:
                args = (m, mass, CharState(0.0, 0.25, 2.0 * mass + dr, u0), ds, s_max,
                        None if stop is None else 2.0 * mass + stop)
                got = _outcome(trace_exterior, *args)
                assert got == _outcome(_reference_exterior, *args), (m.name, mass, dr, u0)
                seen[got[0]] += 1
    assert set(seen) == {"s_max", "horizon", "r_stop"}
    r0, u0, ds, s_max, r_stop = STEADY_START
    for m in (burgers, quartic, sextic, shifted, rounding_quartic):
        args = (m, 1.0, CharState(0.0, 0.0, r0, u0), ds, s_max, r_stop)
        got = _outcome(trace_exterior, *args)
        assert got == _outcome(_reference_exterior, *args), m.name
        assert got[0] == "s_max" and len(got[1][0]) == 8 * 5001, m.name


def test_trace_interior_replays_the_reference_from_the_steady_start():
    r0, u0, ds, s_max, r_stop = STEADY_START
    args = (1.0, 0.5, (0.0, r0, u0), ds, s_max, r_stop)
    got = _outcome(trace_interior, *args)
    assert got == _outcome(_reference_interior, *args)
    assert got[0] == "s_max" and len(got[1][0]) == 8 * 5001


def test_trace_refuses_a_step_count_that_is_not_finite(burgers):
    for s_max, ds in ((1e300, 1e-300), (math.inf, 1e-2), (math.nan, 1e-2)):
        with pytest.raises(DomainError, match="is not finite"):
            trace_exterior(burgers, 1.0, CharState(0.0, 0.0, 5.0, 0.6), ds, s_max)
        with pytest.raises(DomainError, match="is not finite"):
            trace_interior(1.0, 0.5, (0.0, 5.0, 0.6), ds, s_max)


def test_trace_refuses_a_step_count_above_the_cap_before_its_first_step(burgers):
    # 10**6 steps hold about 190 MB of rows; a refused count is checked before the loop starts, so
    # with r_stop close by the admitted count at the cap stops after a few steps
    start = CharState(0.0, 0.0, 5.0, 0.6)
    assert trace_exterior(burgers, 1.0, start, 1e-3, 1000.0, 5.01).stop_reason == "r_stop"
    assert trace_interior(1.0, 0.5, (0.0, 5.0, 0.6), 1e-3, 1000.0, 5.01).stop_reason == "r_stop"
    for s_max, ds in ((1000.002, 1e-3), (1.0, 1e-7), (1e10, 1.0)):
        message = f"step count \\(s_max - s0\\) / ds = {s_max / ds:.17g} exceeds the cap of 1000000 steps"
        with pytest.raises(DomainError, match=message):
            trace_exterior(burgers, 1.0, start, ds, s_max, 5.01)
        with pytest.raises(DomainError, match=message):
            trace_interior(1.0, 0.5, (0.0, 5.0, 0.6), ds, s_max, 5.01)


def test_trace_refuses_a_start_state_outside_the_domain(burgers):
    for t0, r0, u0 in ((0.0, 5.0, 1.5), (0.0, 5.0, -1.5), (0.0, 5.0, math.nan), (math.inf, 5.0, 0.6),
                       (math.nan, 5.0, 0.6), (0.0, math.inf, 0.6)):
        with pytest.raises(DomainError, match="start state"):
            trace_exterior(burgers, 1.0, CharState(0.0, t0, r0, u0), 1e-2, 1.0)
        with pytest.raises(DomainError, match="start state"):
            trace_interior(1.0, 0.5, (t0, r0, u0), 1e-2, 1.0)
    # a tiny overshoot is rounding, and is clamped
    for u0 in (1.0 + 5e-10, -1.0 - 5e-10):
        assert trace_exterior(burgers, 1.0, CharState(0.0, 0.0, 5.0, u0), 1e-2, 1.0).u[0] == round(u0)
        assert trace_interior(1.0, 0.5, (0.0, 5.0, u0), 1e-2, 1.0).u[0] == round(u0)


# --- the compiled RK4 kernel ---------------------------------------------------------

def _coefficients(polys):
    return sorted(c for poly in polys for c in poly if c)


def test_trace_kernel_writes_a_models_own_evaluators_inline(burgers, sextic, rounding_quartic):
    for m in (burgers, sextic, rounding_quartic):
        polys = (m.f_poly, model._polyder(m.f_poly), m.h_poly)
        kernel = characteristics._exterior_kernel(*polys)
        # a lead of 1.0 is a factor of 1.0, which the text leaves out with its cell
        assert sorted(cell.cell_contents for cell in kernel.__closure__) == \
            sorted(c for poly in polys for i, c in enumerate(poly) if c and not (c == 1.0 and 0 < i == len(poly) - 1))
        evaluators, calls = {m.f.__code__, m.df.__code__, m.h.__code__}, []

        def profile(frame, event, arg):
            if event == "call" and frame.f_code in evaluators:
                calls.append(frame.f_code.co_name)

        sys.setprofile(profile)
        try:
            path = trace_exterior(m, 1.0, CharState(0.0, 0.0, 5.0, 0.6), 1e-2, 2.0)
        finally:
            sys.setprofile(None)
        assert calls == [] and len(path) == 201 and not path.u.flags.writeable


def test_trace_kernel_source_holds_no_coefficient_text(monkeypatch, rounding_quartic):
    sources = []
    monkeypatch.setattr(characteristics, "_closure",
                        lambda source, *args: sources.append(source) or model._closure(source, *args))
    polys = (rounding_quartic.f_poly, model._polyder(rounding_quartic.f_poly), rounding_quartic.h_poly)
    kernel = characteristics._exterior_kernel.__wrapped__(*polys)
    (source,) = sources
    values = _coefficients(polys)
    assert len(values) == 12
    for c in values:
        assert repr(c) not in source and repr(abs(c)) not in source, c
    assert not set(values) & set(kernel.__code__.co_consts)


def test_trace_kernel_cache_returns_one_kernel_per_tuple_set_and_stays_bounded(burgers, quartic):
    cache = characteristics._exterior_kernel
    polys = (burgers.f_poly, model._polyder(burgers.f_poly), burgers.h_poly)
    assert cache(*polys) is cache(*(tuple(list(p)) for p in polys))
    assert cache(*polys) is not cache(quartic.f_poly, model._polyder(quartic.f_poly), quartic.h_poly)
    maxsize = cache.cache_info().maxsize
    assert maxsize is not None
    kernels = {cache((1.0, float(k)), (float(k),), (0.0,)) for k in range(1, maxsize + 11)}
    assert len(kernels) == maxsize + 10
    assert cache.cache_info().currsize <= maxsize
    # a fresh compile of an evicted tuple set steps the same bits
    m = polynomial_model("burgers", burgers.f_poly, burgers.h_poly)
    args = (1.0, CharState(0.0, 0.0, 5.0, 0.6), 1e-2, 2.0)
    assert _outcome(trace_exterior, m, *args) == _outcome(_reference_exterior, m, *args)


def _unfolded_exterior_kernel(f_poly, df_poly, h_poly):
    """_exterior_kernel's text without its folds: every lead multiplied in, and h always added."""
    cells = {}

    def value(name, poly, u):
        expr, named = model._horner(poly, u, name + "_")
        cells.update(named)
        return f"({expr})"

    def stage(k, r, u):
        return (f"a = 1.0 - two_m / {r}\n"
                f"{k}t, {k}r, {k}u = 1.0 / (a * a), {value('df', df_poly, u)} / a, "
                f"(two_m / ({r} - two_m) ** 2) * ({value('f', f_poly, u)} + {value('h', h_poly, u)})")

    return model._closure(characteristics._rk4_source("two_m", stage), cells, characteristics._LOOP_NAMES)


def test_folded_trace_kernel_traces_the_unfolded_text_bitwise(burgers, quartic, sextic, shifted, rounding_quartic):
    # EXTERIOR_STARTS (horizon arrivals, r_stop, s_max) at three masses, the steady workload's start, and
    # 100 three-step starts with masses down to 1e-150 and steps up to 1e300, most of which overflow
    rng = np.random.default_rng(36)
    draws = (10.0 ** rng.uniform(-150.0, 2.0, 100), 10.0 ** rng.uniform(-5.0, 3.0, 100), rng.uniform(-1.0, 1.0, 100),
             10.0 ** rng.uniform(-3.0, 300.0, 100))
    extreme = zip(*(draw.tolist() for draw in draws))  # Python floats, as the tracer takes
    starts = [(mass, CharState(0.0, 0.25, 2.0 * mass + dr, u0), ds, s_max, None if stop is None else 2.0 * mass + stop)
              for mass in (0.0, 0.5, 1.0) for dr, u0, ds, s_max, stop in EXTERIOR_STARTS]
    r0, u0, ds, s_max, r_stop = STEADY_START
    starts.append((1.0, CharState(0.0, 0.0, r0, u0), ds, s_max, r_stop))
    starts += [(mass, CharState(0.0, 0.0, 2.0 * mass * (1.0 + dr), u0), ds, 3.0 * ds, None)
               for mass, dr, u0, ds in extreme]
    seen = Counter()
    for m in (burgers, quartic, sextic, shifted, rounding_quartic):
        polys = (m.f_poly, model._polyder(m.f_poly), m.h_poly)
        kernels = (characteristics._exterior_kernel(*polys), _unfolded_exterior_kernel(*polys))
        for mass, start, ds, s_max, r_stop in starts:
            outcomes = []
            for kernel in kernels:  # as trace_exterior runs its kernel
                try:
                    path = characteristics._rk4_trace(kernel, (2.0 * mass,), start, ds, s_max,
                                                      2.0 * mass * (1.0 + characteristics._HORIZON_GUARD), r_stop)
                    outcomes.append((path.stop_reason, [a.tobytes() for a in (path.s, path.t, path.r, path.u)]))
                except (StepSizeError, NumericsError) as exc:
                    outcomes.append((type(exc).__name__, str(exc)))
            assert outcomes[0] == outcomes[1], (m.name, mass, start, ds)
            seen[outcomes[0][0]] += 1
    assert set(seen) == {"s_max", "horizon", "r_stop", "StepSizeError", "NumericsError"}, seen


def test_trace_kernel_folds_a_unit_lead_and_a_zero_source(monkeypatch, burgers, quartic, shifted, rounding_quartic):
    # Burgers' f'(u) is u and its zero h is left out; quartic's f' has lead 2; kept keeps its zero h, as
    # its f(0) is 0, and shifted and rounding_quartic their nonzero h
    kept = polynomial_model("kept", (0.0, 0.0, 0.5), (0.0,))
    sources = []
    monkeypatch.setattr(characteristics, "_closure",
                        lambda source, *args: sources.append(source) or model._closure(source, *args))
    for m in (burgers, quartic, kept, shifted, rounding_quartic):
        characteristics._exterior_kernel.__wrapped__(m.f_poly, model._polyder(m.f_poly), m.h_poly)
    burgers_text, quartic_text, kept_text, shifted_text, rounding_text = sources
    assert "(u) / a" in burgers_text and "df_1" not in burgers_text and "* 0.0" not in burgers_text
    assert "(u * df_3 * u * u) / a" in quartic_text and "* 0.0" not in quartic_text
    assert "(u) / a" in kept_text and "* ((u * f_2 * u) + (u * 0.0))" in kept_text
    assert "(u) / a" in shifted_text and "+ (u * 0.0 + h_0))" in shifted_text
    assert "+ (" in rounding_text.split("** 2) * ", 1)[1].splitlines()[0]
