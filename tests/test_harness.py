import ast
import dataclasses
import json
import math
import sys
import warnings
from collections import Counter

import numpy as np
import pytest

from horizonfv import (
    Background,
    CflError,
    CharState,
    DomainError,
    NumericsError,
    Preset,
    PresetError,
    StateVector,
    UnsupportedModelError,
    build_uniform_mesh,
    burgers_model,
    exact_solution_by_shooting,
    fuzz_invariants,
    max_timestep,
    numerical_flux,
    polynomial_model,
    project_initial,
    run,
    self_convergence,
    steady_drift_detail,
    step,
    trace_exterior,
)
from horizonfv import entropy, harness, model, scheme
from horizonfv.harness import presets, restrict_halving, run_preset
from horizonfv.scheme import FLUX_KINDS, NumericalFlux, bump_data
from allocations import allocations
from oracle_error import oracle_compare, oracle_convergence
from reference_update import reference_update


@pytest.fixture(scope="module")
def smooth():
    return presets()["smooth"]


def test_restriction_conserves_mass(rng):
    fine = rng.uniform(-1, 1, 128)
    coarse = restrict_halving(fine)
    # widths double under coarsening, so plain sums match after the 2x factor
    assert 2.0 * np.sum(coarse) == pytest.approx(np.sum(fine), abs=1e-13)
    with pytest.raises(DomainError):
        restrict_halving(fine[:-1])


def test_preset_catalog():
    ps = presets()
    assert set(ps) == {"smooth", "riemann", "flat"}
    for p in ps.values():
        assert p.t_end > 0 and p.cells >= 2


def test_flat_preset_is_exact_fixed_point(burgers):
    result = self_convergence(presets()["flat"], burgers, levels=3)
    assert all(rec.l1_diff == 0.0 for rec in result.levels)
    assert np.isnan(result.observed_order)


def test_levels_guard(smooth, burgers):
    with pytest.raises(DomainError):
        self_convergence(smooth, burgers, levels=2)


def test_smooth_self_convergence_first_order(smooth, burgers):
    result = self_convergence(smooth, burgers, levels=3)
    diffs = [rec.l1_diff for rec in result.levels]
    assert all(d > 0 for d in diffs)
    assert all(a > b for a, b in zip(diffs, diffs[1:]))
    assert result.observed_order >= 0.8


def test_riemann_self_convergence(burgers):
    result = self_convergence(presets()["riemann"], burgers, levels=3)
    diffs = [rec.l1_diff for rec in result.levels]
    assert all(d > 0 for d in diffs)
    assert result.observed_order >= 0.5


def crossing_time_guard(m, mass, v0, r_lo, r_hi, t_max, n_chars=256, dt=0.002):
    """Earliest coordinate time at which adjacent characteristics cross,
    scaled by the 0.9 safety margin; None if no crossing before t_max."""
    r = np.linspace(r_lo, r_hi, n_chars)
    u = np.clip(np.asarray(v0(r), dtype=float), -1.0, 1.0)
    t = 0.0
    for _ in range(int(math.ceil(t_max / dt))):
        r, u = harness._integrate_chars(m, mass, r, u, dt, 1)
        t += dt
        if np.any(np.diff(r) < 0.0):
            return 0.9 * t
    return None


def test_smooth_preset_below_crossing_guard(smooth, burgers):
    guard = crossing_time_guard(burgers, smooth.mass, smooth.v0,
                                2.0001, smooth.r_max + 2.0, t_max=6.0)
    assert guard is not None
    assert smooth.t_end <= guard


def test_crossing_guard_detects_compression():
    m = burgers_model()
    steep = lambda r: -0.9 * np.tanh(4.0 * (np.asarray(r, dtype=float) - 6.0))
    guard = crossing_time_guard(m, 1.0, steep, 3.0, 11.0, t_max=6.0)
    assert guard is not None and guard < 2.0


def _row_reference(m, mass, r, u, t_end, n_steps):
    """One characteristic of the ensemble by RK4 in coordinate time, in Python floats."""
    def rhs(r, u):
        return (1.0 - 2.0 * mass / r) * float(m.df(u)), \
            (2.0 * mass / (r * r)) * (float(m.f(u)) + float(m.h(u)))

    dt = t_end / n_steps
    for _ in range(n_steps):
        k1 = rhs(r, u)
        k2 = rhs(r + 0.5 * dt * k1[0], u + 0.5 * dt * k1[1])
        k3 = rhs(r + 0.5 * dt * k2[0], u + 0.5 * dt * k2[1])
        k4 = rhs(r + dt * k3[0], u + dt * k3[1])
        r = r + dt / 6.0 * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0])
        u = u + dt / 6.0 * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1])
    return r, u


def _counted(fn, counts, name):
    def evaluate(x):
        counts[name] += 1
        return fn(x)
    return evaluate


@pytest.mark.parametrize("n", [1, 7, 400, 1600])
def test_integrate_chars_matches_the_per_row_formula_bitwise(n, rng, sextic, rounding_quartic):
    # the sextic; f with an odd coefficient and h of degree 4
    models = (burgers_model(), polynomial_model("quartic", [-0.5, 0.0, 0.0, 0.0, 0.5], [0.0]),
              polynomial_model("shifted", [0.0, 0.0, 0.5], [-0.5]), sextic, rounding_quartic)
    for m in models:
        for mass in (0.0, 1.0, 2.0):
            r0 = rng.uniform(2.0 * mass + 0.05, 14.0, n)
            u0 = rng.uniform(-1.0, 1.0, n)
            u0[:7] = [-0.0, 1.0, 0.0, -1.0, 0.5, -0.75, 0.3][:n]
            r, u = harness._integrate_chars(m, mass, r0, u0, 0.6, 12)
            rows = [_row_reference(m, mass, float(a), float(b), 0.6, 12) for a, b in zip(r0, u0)]
            assert r.shape == u.shape == (n,)
            assert r.tobytes() == np.array([row[0] for row in rows]).tobytes()
            assert u.tobytes() == np.array([row[1] for row in rows]).tobytes()


def _evaluator_calls(m, run):
    """run() under a profiler; the names of m's f, f' and h that it called."""
    evaluators, calls = {m.f.__code__, m.df.__code__, m.h.__code__}, []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in evaluators:
            calls.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        out = run()
    finally:
        sys.setprofile(None)
    return calls, out


def test_shooting_kernel_writes_a_models_own_evaluators_inline(burgers, quartic, sextic, shifted,
                                                                 rounding_quartic):
    r0, u0 = np.linspace(3.0, 9.0, 5), np.linspace(-0.8, 0.8, 5)
    for m in (burgers, quartic, sextic, shifted, rounding_quartic):
        polys = (m.f_poly, model._polyder(m.f_poly), m.h_poly)
        kernel = harness._chars_kernel(*polys)
        cells = dict(zip(kernel.__code__.co_freevars, (cell.cell_contents for cell in kernel.__closure__)))
        assert all(isinstance(c, np.ndarray) and c.shape == () and c.dtype == np.float64 for c in cells.values())
        assert sorted(float(cells.pop(name)) for name in ("one", "two")) == [1.0, 2.0]
        # a lead of 1.0 is a factor of 1.0, which the lowering leaves out with its cell
        assert sorted(float(c) for name, c in cells.items() if name != "zero") == \
            sorted(c for poly in polys for i, c in enumerate(poly) if c and not (c == 1.0 and 0 < i == len(poly) - 1))
        calls, _ = _evaluator_calls(m, lambda: harness._integrate_chars(m, 1.0, r0, u0, 0.3, 6))
        assert calls == []


def test_kernels_never_call_a_models_evaluators_when_they_are_swapped(burgers, quartic, sextic, shifted,
                                                                      rounding_quartic):
    # the four evaluators replaced by counting wrappers, as the benchmark's tracer replaces them
    def trace(m):
        path = trace_exterior(m, 1.0, CharState(0.0, 0.0, 5.0, 0.6), 1e-2, 2.0)
        return path.stop_reason, [a.tobytes() for a in (path.s, path.t, path.r, path.u)]

    def shoot(m):
        return exact_solution_by_shooting(m, 1.0, bump_data(0.5, 6.0, 1.0), 0.3, np.linspace(3.0, 9.0, 7)).tobytes()

    def evolve(m):  # the finite volume step under each bundled flux, with and without a horizon
        values = np.linspace(-0.9, 0.9, 40)
        return [run(build_uniform_mesh(Background(mass), 2.0 * mass + 10.0, 40), numerical_flux(kind, m),
                    values, t_end=0.2).final.values.tobytes()
                for kind in FLUX_KINDS for mass in (0.0, 1.0)]

    for m in (burgers, quartic, sextic, shifted, rounding_quartic):
        counts = Counter()
        swapped = dataclasses.replace(m, **{name: _counted(getattr(m, name), counts, name)
                                            for name in ("f", "df", "h", "dh")})
        assert trace(swapped) == trace(m), m.name
        assert shoot(swapped) == shoot(m), m.name
        assert evolve(swapped) == evolve(m), m.name
        assert counts == {}, m.name


def test_in_place_horner_statements_equal_the_horner_expression_bitwise(burgers, quartic, sextic, shifted,
                                                                         rounding_quartic):
    tiny = 5e-324
    grid = [0.0, -0.0, 1.0, -1.0, 1.0 - 2.0 ** -53, -(1.0 - 2.0 ** -53), tiny, -tiny, 0.3, -0.7, 0.5]
    u = np.array(grid)
    for m in (burgers, quartic, sextic, shifted, rounding_quartic):
        for poly in (m.f_poly, model._polyder(m.f_poly), m.h_poly):
            expr, names = model._horner(poly, "u", "c_")
            cells = {}
            statements = model._lower("out[...] = c(u)", {"c": poly}, cells, [])
            assert cells == {**names, **({"zero": 0.0} if "0.0" in expr else {})}
            out = np.full_like(u, np.nan)
            scope = {"u": u, "out": out, **{k: np.array(v) for k, v in cells.items()}}
            exec("\n".join(statements), {"add": np.add, "multiply": np.multiply}, scope)
            expected = np.array([eval(expr, {}, {"u": x, **names}) for x in grid])
            assert out.tobytes() == expected.tobytes(), (m.name, poly)
            assert out.tobytes() == model._evaluator(poly)(u).tobytes()


def _chars_kernel_from_text(*polys):
    """_CHARS_LOOP with its formulas, f + h unfolded, run as plain numpy text, f, f' and h as evaluators."""
    stages = harness._STAGES.format(h_u=" + h(u)", h_su=" + h(su)")
    body = "\n".join(" " * 8 + line for line in (stages + harness._RK4_STEP).splitlines())
    names = {"np": np, **{name: model._evaluator(poly) for name, poly in zip(("f", "df", "h"), polys)}}
    return model._closure(harness._CHARS_LOOP.format(body=body), {}, names)


def test_lowered_shooting_kernel_equals_its_formulas_run_in_numpy_bitwise(burgers, quartic, sextic, shifted,
                                                                         rounding_quartic):
    grid = [0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324, 1.0 - 2.0 ** -53, -(1.0 - 2.0 ** -53), 0.3, -0.7]
    u0 = np.array(grid * len(grid))
    r0 = np.repeat(np.linspace(2.5, 9.0, len(grid)), len(grid))
    for m in (burgers, quartic, sextic, shifted, rounding_quartic):
        polys = (m.f_poly, model._polyder(m.f_poly), m.h_poly)
        for two_m in (0.0, 2.0):
            scalars = [np.array(x) for x in (two_m, 0.05, 0.025, 0.05 / 6.0)]
            lowered = harness._chars_kernel(*polys)(np.array((r0, u0)), 3, *scalars)
            plain = _chars_kernel_from_text(*polys)(np.array((r0, u0)), 3, *scalars)
            assert np.concatenate(lowered).tobytes() == np.concatenate(plain).tobytes(), (m.name, two_m)


def test_shooting_kernel_allocates_nothing_in_its_loop(monkeypatch, burgers, shifted):
    for m in (burgers, shifted):
        sources = []
        monkeypatch.setattr(harness, "_closure",
                            lambda source, *args: sources.append(source) or model._closure(source, *args))
        harness._chars_kernel.__wrapped__(m.f_poly, model._polyder(m.f_poly), m.h_poly)
        (source,) = sources
        tree = ast.parse(source)
        (loop,) = [node for node in ast.walk(tree) if isinstance(node, ast.For)]
        assert all(allocations(statement) == ([], 0) for statement in loop.body)
        names, masks = allocations(tree)
        assert masks == 0 and len(names) <= 7  # six (2, n) buffers before the lowering, one more at most


def test_shooting_kernel_source_holds_no_coefficient_text(monkeypatch, burgers, quartic, sextic, shifted,
                                                          rounding_quartic):
    for m in (burgers, quartic, sextic, shifted, rounding_quartic):
        sources = []
        monkeypatch.setattr(harness, "_closure",
                            lambda source, *args: sources.append(source) or model._closure(source, *args))
        polys = (m.f_poly, model._polyder(m.f_poly), m.h_poly)
        kernel = harness._chars_kernel.__wrapped__(*polys)
        (source,) = sources
        values = [c for poly in polys for c in poly if c]
        for c in values:
            assert repr(c) not in source and repr(abs(c)) not in source, (m.name, c)
        assert not [c for c in kernel.__code__.co_consts if isinstance(c, float)]


@pytest.mark.parametrize("targets, t_end, match", [
    ([9.0, 4.0], 1.2, "not strictly increasing"),
    ([4.0, 4.0, 9.0], 1.2, "not strictly increasing"),
    ([4.0, math.nan, 9.0], 1.2, "a target is not finite"),
    ([4.0, math.inf], 1.2, "a target is not finite"),
    ([], 1.2, "non-empty 1-d"),
    (4.0, 1.2, "non-empty 1-d"),
    ([4.0, 9.0], math.inf, "t_end = inf"),
    ([4.0, 9.0], math.nan, "t_end = nan"),
    ([4.0, 9.0], -0.5, "t_end = -0.5"),
    ([4.0, 9.0], 1.2, ("mass = nan", math.nan)),
    ([4.0, 9.0], 1.2, ("mass = inf", math.inf)),
    ([4.0, 9.0], 1.2, ("mass = -inf", -math.inf)),
    ([4.0, 9.0], 1.2, (r"mass = -0\.5", -0.5)),
    # dt = 0.002 puts f'(u)/(2M) dt = -3.33 at u = -1 and r = 2M, past RK4's accurate interval [-2, 0]
    ([4.0, 9.0], 1.2, (r"mass = 0\.0003 is below 0\.00050000000000000001,", 3e-4)),
])
def test_shooting_refuses_bad_input_before_the_probe_shot(monkeypatch, smooth, burgers, targets, t_end, match):
    """match is the pattern of the refusal, or (pattern, mass) where the case varies the mass."""
    match, mass = match if isinstance(match, tuple) else (match, smooth.mass)

    def no_shot(*args):
        raise AssertionError("shot fired")

    monkeypatch.setattr(harness, "_integrate_chars", no_shot)
    with pytest.raises(DomainError, match=match):
        exact_solution_by_shooting(burgers, mass, smooth.v0, t_end, targets)


def test_shooting_accepts_the_least_accurate_mass_and_refuses_below_it(burgers):
    # dt = 0.3 / 150 = 0.002 and sup |f'| = 1 put the least mass at dt / (2 RK4_ACCURATE) = 0.0005
    targets, v0 = np.linspace(1.0, 9.0, 9), bump_data(0.5, 6.0, 1.0)
    assert np.all(np.isfinite(exact_solution_by_shooting(burgers, 0.0005, v0, 0.3, targets)))
    with pytest.raises(DomainError, match=r"mass = 0\.000499 is below 0\.0005"):
        exact_solution_by_shooting(burgers, 0.000499, v0, 0.3, targets)


@pytest.mark.parametrize("shot, row, bad", [(0, 0, math.nan), (0, 1, math.inf), (1, 0, -math.inf), (1, 1, math.nan)])
def test_shooting_refuses_a_shot_that_is_not_finite(monkeypatch, smooth, burgers, shot, row, bad):
    """shot 0 is the probe, shot 1 the first pass of the root finder; row 0 the arrival, row 1 the state."""
    integrate, starts = harness._integrate_chars, []

    def poisoned(m, mass, r0, u0, t_end, n_steps):
        arrival = integrate(m, mass, r0, u0, t_end, n_steps)
        if len(starts) == shot:
            arrival[row][3] = bad
        starts.append(r0[3])
        return arrival

    monkeypatch.setattr(harness, "_integrate_chars", poisoned)
    with pytest.raises(NumericsError, match="is not finite") as exc:
        exact_solution_by_shooting(burgers, smooth.mass, smooth.v0, smooth.t_end, np.linspace(3.0, 9.0, 7))
    assert len(starts) == shot + 1
    assert f"from r0 = {starts[shot]:.17g} is not finite" in str(exc.value)


def _multiplied_cells(monkeypatch, module, build, *key):
    """The values of the closure cells that the multiplies of the kernel build(*key) read."""
    sources = []
    monkeypatch.setattr(module, "_closure",
                        lambda source, *args: sources.append(source) or model._closure(source, *args))
    kernel = build.__wrapped__(*key)
    cells = dict(zip(kernel.__code__.co_freevars, (cell.cell_contents for cell in kernel.__closure__)))
    (source,) = sources
    return [float(cells[arg.id]) for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "multiply"
            for arg in node.args if isinstance(arg, ast.Name) and arg.id in cells]


def test_kernels_leave_out_unit_factors_and_a_zero_source_where_f_of_zero_is_not_zero(monkeypatch, burgers):
    # h = 0 is x * 0.0; with f(0) = 0, f(x) may be -0.0, which adding h can turn into 0.0, so h stays
    kept = polynomial_model("kept", (0.0, 0.0, 0.5), (0.0,))
    assert kept.structure.flux_monotone_shape_ok
    for m, source_kept in ((burgers, False), (kept, True)):
        for module, build, key in ((scheme, scheme._step_kernel,
                                    (m.f_poly, m.h_poly, scheme._FLUXES["godunov"][0], m.flux_lipschitz)),
                                   (harness, harness._chars_kernel, (m.f_poly, model._polyder(m.f_poly), m.h_poly))):
            factors = _multiplied_cells(monkeypatch, module, build, *key)
            assert 1.0 not in factors, (m.name, module.__name__)
            assert (0.0 in factors) == source_kept, (m.name, module.__name__)


def test_oracle_constant_data():
    m = burgers_model()
    flatc = Preset(name="flatc", mass=0.0, r_max=10.0, cells=64, t_end=0.5,
                   flux_kind="godunov", cfl_fraction=0.9,
                   v0=lambda r: np.full_like(np.asarray(r, dtype=float), -0.3))
    assert oracle_compare(flatc, m, 64) <= 1e-13


def test_oracle_fixed_point_data():
    m = burgers_model()
    ones = Preset(name="ones", mass=1.0, r_max=12.0, cells=64, t_end=0.5,
                  flux_kind="godunov", cfl_fraction=0.9,
                  v0=lambda r: np.ones_like(np.asarray(r, dtype=float)))
    assert oracle_compare(ones, m, 64) <= 1e-13


def test_oracle_error_halves(smooth, burgers):
    e100 = oracle_compare(smooth, burgers, 100)
    e200 = oracle_compare(smooth, burgers, 200)
    assert e100 > 0 and e200 > 0
    assert e100 / e200 >= 1.5


@pytest.mark.parametrize("mass", [0.0, 1.0])
@pytest.mark.parametrize("name", ["quartic", "shifted"])
def test_oracle_convergence_is_first_order_for_other_models(request, smooth, name, mass):
    result = oracle_convergence(dataclasses.replace(smooth, mass=mass), request.getfixturevalue(name), [100, 200, 400])
    assert all(a > b > 0.0 for a, b in zip(result.errors, result.errors[1:]))
    assert result.observed_order >= 0.9


def test_shooting_rejects_crossed_characteristics():
    m = burgers_model()
    steep = lambda r: -0.9 * np.tanh(4.0 * (np.asarray(r, dtype=float) - 6.0))
    with pytest.raises(PresetError):
        exact_solution_by_shooting(m, 1.0, steep, 4.0, np.linspace(4.0, 8.0, 16))


def _bisection_reference(m, mass, v0, t_end, targets, dt_target=0.002):
    """The oracle's former root-finder: 48 bisection passes over the whole
    reachable interval, then one more integration from the midpoints."""
    n_steps = max(64, int(math.ceil(t_end / dt_target)))
    lo = np.full_like(targets, 2.0 * mass * (1.0 + 1e-10) if mass > 0.0
                      else max(1e-9, float(targets[0]) - (t_end + 1.0)))
    hi = np.full_like(targets, float(targets[-1]) + 1.05 * t_end + 0.5)

    def shoot(r0):
        u0 = np.clip(np.asarray(v0(r0), dtype=float), -1.0, 1.0)
        return harness._integrate_chars(m, mass, r0, u0, t_end, n_steps)

    for _ in range(48):
        mid = 0.5 * (lo + hi)
        below = shoot(mid)[0] < targets
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return shoot(0.5 * (lo + hi))[1]


@pytest.mark.parametrize("name, mass, cells", [
    pytest.param("burgers", 1.0, 100, id="100"), pytest.param("burgers", 1.0, 400, id="400")] + [
    (name, mass, 100) for name in ("burgers", "quartic", "shifted") for mass in (0.5, 1.0, 2.0)
    if (name, mass) != ("burgers", 1.0)])
def test_shooting_matches_bisection_reference(request, smooth, name, mass, cells):
    m, preset = request.getfixturevalue(name), dataclasses.replace(smooth, mass=mass)
    mesh, _ = run_preset(preset, m, cells)
    args = (m, mass, preset.v0, preset.t_end, mesh.centers)
    exact = exact_solution_by_shooting(*args)
    assert np.max(np.abs(exact - _bisection_reference(*args))) <= 1e-12


def _counted_shots(monkeypatch):
    """The number of starts of each _integrate_chars call, in order."""
    integrate, sizes = harness._integrate_chars, []

    def counted(m, mass, r0, *args):
        sizes.append(r0.size)
        return integrate(m, mass, r0, *args)

    monkeypatch.setattr(harness, "_integrate_chars", counted)
    return sizes


@pytest.mark.parametrize("name", ["burgers", "quartic"])
def test_shooting_smooth_takes_three_integrations_at_400_targets(monkeypatch, request, smooth, name):
    # the probe, P(target) for every target, and one correction for those still outside the tolerance
    m = request.getfixturevalue(name)
    mesh, _ = run_preset(smooth, m, 400)
    sizes = _counted_shots(monkeypatch)
    exact_solution_by_shooting(m, smooth.mass, smooth.v0, smooth.t_end, mesh.centers)
    assert len(sizes) == 3 and sizes[:2] == [1600, 400]


def test_shooting_converges_where_a_stencil_holds_equal_probe_arrivals(monkeypatch, smooth, burgers):
    # the probe's arrival k is set to that of k + 1: the target between arrivals k + 1 and k + 2 has
    # both in its stencil k .. k + 3, so its cubic is 0/0 and the bracket's regula falsi takes over
    integrate, targets, shots = harness._integrate_chars, np.array([5.3]), []
    args = (burgers, smooth.mass, smooth.v0, smooth.t_end, targets)

    def flattened(m, mass, r0, *rest):
        r, u = integrate(m, mass, r0, *rest)
        if not shots:  # the probe
            k = np.searchsorted(r, targets[0]) - 2
            r[k] = r[k + 1]
        shots.append((r0, r))
        return r, u

    monkeypatch.setattr(harness, "_integrate_chars", flattened)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        exact = exact_solution_by_shooting(*args)
    monkeypatch.undo()
    assert np.max(np.abs(exact - _bisection_reference(*args))) <= 1e-12
    (probe, arrival), (first, _) = shots[:2]
    j = np.searchsorted(arrival, targets[0])
    lo, hi, g_lo, g_hi = probe[j - 1], probe[j], arrival[j - 1] - targets[0], arrival[j] - targets[0]
    assert arrival[j - 2] == arrival[j - 1] and first[0] == hi - g_hi / ((g_hi - g_lo) / (hi - lo))


def test_shooting_linear_arrival_map_stops_early(monkeypatch):
    sizes = _counted_shots(monkeypatch)
    targets = (np.arange(64) + 0.5) * (10.0 / 64)
    u = exact_solution_by_shooting(burgers_model(), 0.0, lambda r: np.full_like(r, -0.3), 0.5, targets)
    assert np.all(u == -0.3)
    assert len(sizes) <= 3


@pytest.mark.parametrize("mass, level, targets", [
    (1.0, 0.5, np.linspace(1.5, 8.0, 16)),   # inside the horizon
    (0.0, 0.7, np.linspace(0.05, 8.0, 16)),  # upstream of every right-moving characteristic
])
def test_shooting_rejects_unreachable_targets(mass, level, targets):
    with pytest.raises(PresetError, match="reachable range"):
        exact_solution_by_shooting(burgers_model(), mass, lambda r: np.full_like(r, level), 0.5, targets)


def test_steady_drift_small_and_first_order():
    m = burgers_model()
    d200 = steady_drift_detail(m, 1.0, 4.0, 0.9, 200, 1.0)[0]
    assert 0.0 < d200 < 0.1
    d400 = steady_drift_detail(m, 1.0, 4.0, 0.9, 400, 1.0)[0]
    assert d200 / d400 >= 1.7


def test_steady_drift_refuses_inadmissible_model():
    linear = polynomial_model("linear", (0.0, 1.0), (0.0,))
    with pytest.raises(UnsupportedModelError, match="inadmissible: boundary_roots_ok"):
        steady_drift_detail(linear, 1.0, 4.0, 0.5, 40, 0.1)


def test_steady_drift_flat_constant_exact():
    m = burgers_model()
    assert steady_drift_detail(m, 0.0, 4.0, 0.9, 64, 1.0, r_max=10.0)[0] == 0.0


def test_fuzz_clean_and_deterministic():
    rep1 = fuzz_invariants(6, 2024)
    rep2 = fuzz_invariants(6, 2024)
    assert rep1.ok
    assert rep1.worst_abs_state <= 1.0
    assert rep1.worst_entropy_residual <= 1e-13
    assert rep1.worst_balance_gap_rel <= 1e-12
    assert rep1.worst_decomposition_defect <= 1e-13
    assert json.dumps(rep1.to_dict(), sort_keys=True) == json.dumps(rep2.to_dict(), sort_keys=True)


def test_fuzz_refuses_a_negative_seed_before_the_first_trial(monkeypatch):
    monkeypatch.setattr(harness, "run", lambda *args, **kwargs: pytest.fail("a trial ran"))
    with pytest.raises(DomainError, match="seed -1"):
        fuzz_invariants(1, -1)


def test_fuzz_runs_the_model_it_is_given(burgers, sextic):
    default, given, other = (fuzz_invariants(2, 3, m=m).to_dict() for m in (None, burgers, sextic))
    assert json.dumps(default, sort_keys=True) == json.dumps(given, sort_keys=True)
    assert other["ok"] and other["total_steps"] > default["total_steps"]
    # the same draws; the end time follows the model's step bound through the step budget
    drawn = lambda report: [{k: v for k, v in c.items() if k != "t_end"} for c in report["trial_configs"]]
    assert drawn(other) == drawn(default)


def test_fuzz_different_seeds_differ():
    rep1 = fuzz_invariants(3, 1)
    rep2 = fuzz_invariants(3, 2)
    assert json.dumps(rep1.to_dict(), sort_keys=True) != json.dumps(rep2.to_dict(), sort_keys=True)


def test_fuzz_reports_reproduction_configs():
    rep = fuzz_invariants(4, 9)
    assert len(rep.trial_configs) == 4
    for cfg in rep.trial_configs:
        assert set(cfg) >= {"mass", "flux", "cfl_fraction", "breaks", "values", "t_end"}
        assert 0.0 <= cfg["mass"] <= 2.0
        assert 0.0 < cfg["cfl_fraction"] <= 1.0


@pytest.mark.parametrize("seed, trials", [(921988858, 5), (416866623, 25), (431328546, 21)])
def test_fuzz_coefficient_rounding_is_not_a_violation(seed, trials):
    # the last trial of each is an eo-flux run whose neighbouring cells come
    # within ~1e-10; a flux difference divided by such a jump read down to
    # -1.05e-7, while the increments give the smallest coefficient exactly
    rep = fuzz_invariants(trials, seed, tau_scale=0.9)
    assert rep.ok, rep.violations
    assert rep.min_convex_coeff == 0.0 and math.copysign(1.0, rep.min_convex_coeff) == 1.0  # not -0.0


# Rusanov with its dissipation sign flipped: f(u) + f(v) minus Rusanov's flux
ANTI_DIFFUSIVE = "fluxes = f_left + f_right - (0.5 * (f_left + f_right) - half_lam * (right - left))"


def test_fuzz_flags_non_monotone_flux(monkeypatch):
    def numerical_flux(kind, m):
        return NumericalFlux("anti", m, ANTI_DIFFUSIVE)

    monkeypatch.setattr(harness, "numerical_flux", numerical_flux)
    rep = fuzz_invariants(3, 7)
    assert "convex_coefficient" in {v["kind"] for v in rep.violations}


def test_fuzz_records_a_state_breach_and_runs_on(monkeypatch):
    # with the anti-diffusive flux, trial 0 of seed 6 leaves [-1, 1] in its
    # third step; trials 1 and 2 stay inside and reach their t_end
    def numerical_flux(kind, m):
        return NumericalFlux("anti", m, ANTI_DIFFUSIVE)

    real_run = harness.run
    trials = []  # per trial: (mesh, nf, fraction, observed states after each step)

    def recording_run(mesh, nf, values, *, on_step, cfl_fraction, **kwargs):
        afters = []
        trials.append((mesh, nf, cfl_fraction, afters))

        def observe(after, report):
            afters.append(after)
            on_step(after, report)

        return real_run(mesh, nf, values, on_step=observe, cfl_fraction=cfl_fraction, **kwargs)

    monkeypatch.setattr(harness, "numerical_flux", numerical_flux)
    monkeypatch.setattr(harness, "run", recording_run)
    monkeypatch.setattr(harness, "FUZZ_CELLS", 50)
    rep = fuzz_invariants(3, 6)
    breaches = [v for v in rep.violations if v["kind"] == "state_invariant"]
    assert len(breaches) == 1 and breaches[0]["config"]["trial"] == 0
    assert "maximum principle" in breaches[0]["detail"]
    assert len(rep.trial_configs) == 3 and len(trials) == 3
    assert [after.step_index for after in trials[0][3]] == [1, 2]
    assert rep.total_steps == sum(len(afters) for *_, afters in trials)
    # the breaching step is the next one, and it is not counted
    mesh, nf, fraction, afters = trials[0]
    tau = fraction * max_timestep(mesh, nf.model, nf.lipschitz_bound)
    with pytest.raises(NumericsError):
        step(afters[-1], mesh, nf, tau)
    for config, (*_, afters) in zip(rep.trial_configs[1:], trials[1:]):
        assert afters[-1].time == pytest.approx(config["t_end"], abs=1e-15)


def test_run_names_the_step_time_and_first_cell_of_a_state_breach(mesh_m1, burgers):
    # the anti-diffusive flux takes Riemann data out of [-1, 1] within a few steps; the message is
    # the StateVector text followed by the breaching step, its time and its first cell outside
    nf = NumericalFlux("anti", burgers, ANTI_DIFFUSIVE)
    afters, messages = [], []
    for on_step in (lambda after, report: afters.append(after), None):
        with pytest.raises(NumericsError) as exc:
            run(mesh_m1, nf, project_initial(mesh_m1, scheme.step_data(0.8, -0.4, 7.0))[0], t_end=1.0,
                on_step=on_step)
        messages.append(str(exc.value))
    tau = 0.9 * max_timestep(mesh_m1, burgers, nf.lipschitz_bound)
    *_, values = reference_update(afters[-1].values, mesh_m1, burgers, nf, tau)
    cell = int(np.flatnonzero(np.abs(values) > 1.0)[0])
    assert messages[0] == messages[1] == (
        f"state leaves [-1, 1]: max |v| = {np.max(np.abs(values)):.17g} (discrete maximum principle violated) "
        f"at step {len(afters) + 1}, t = {afters[-1].time + tau:.17g}, cell {cell} (v = {values[cell]:.17g})")


def test_one_campaign_step_is_one_certificate_from_one_reconstruction(mesh_m1, burgers, rng,
                                                                     monkeypatch):
    # the campaign's per-step check makes one certificate call; it rebuilds
    # the face states once and evaluates f(v) and h(v) once each outside the
    # entropy fluxes
    counts = Counter()
    active = []

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            counts[name] += 1
            active.append(name)
            try:
                return fn(*args, **kwargs)
            finally:
                active.pop()
        return wrapped

    for name in ("cell_entropy_residuals", "face_reconstruction", "numerical_entropy_flux"):
        monkeypatch.setattr(entropy, name, counting(name, getattr(entropy, name)))

    def counted(name, fn):
        def evaluate(x):
            counts[name + (" in entropy flux" if "numerical_entropy_flux" in active else "")] += 1
            return fn(x)
        return evaluate

    model = dataclasses.replace(burgers, f=counted("f", burgers.f), h=counted("h", burgers.h))
    nf = harness.numerical_flux("godunov", model)
    state = StateVector(values=rng.uniform(-1.0, 1.0, mesh_m1.n_cells), time=0.0, step_index=0)
    tau = 0.9 * max_timestep(mesh_m1, model, nf.lipschitz_bound)
    new_state, step_report = step(state, mesh_m1, nf, tau)
    counts.clear()
    report = harness.FuzzReport(trials=1, seed=0)
    check = harness._step_checks(report, {}, mesh_m1, nf)
    check(new_state, step_report)
    assert report.total_steps == 1 and report.ok
    assert counts["cell_entropy_residuals"] == 1 and counts["face_reconstruction"] == 1
    assert counts["f"] == 1 and counts["h"] == 1
    assert counts["numerical_entropy_flux"] == 2


def test_fuzz_records_a_decomposition_defect_with_its_trial(monkeypatch):
    # a defect above the tolerance, reported at every step, is a violation
    # of each step, recorded with the trial's reproduction data
    defect = 2.0 * harness.DECOMPOSITION_TOL
    monkeypatch.setattr(entropy, "convex_decomposition_check", lambda *args: defect)
    rep = fuzz_invariants(2, 3)
    found = [v for v in rep.violations if v["kind"] == "convex_decomposition"]
    assert len(found) == rep.total_steps > 0 and all(v["detail"] == defect for v in found)
    assert {v["config"]["trial"] for v in found} == {0, 1}
    assert all(v["config"] is rep.trial_configs[v["config"]["trial"]] for v in found)
    assert rep.worst_decomposition_defect == defect and not rep.ok


def test_fuzz_cfl_injection_meta_test():
    with pytest.raises(CflError):
        fuzz_invariants(1, 5, tau_scale=2.0)


def test_fuzz_trials_guard():
    with pytest.raises(DomainError):
        fuzz_invariants(0, 1)


def test_run_preset_resolution_override(smooth, burgers):
    mesh, result = run_preset(smooth, burgers, cells=40)
    assert mesh.n_cells == 40
    assert result.final.time == smooth.t_end
