import dataclasses
import json
import math
import sys
from collections import Counter

import numpy as np
import pytest

from horizonfv import (
    DEFAULT_KRUZHKOV_LEVELS,
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
    run,
    self_convergence,
    steady_drift_detail,
    step,
    trace_exterior,
)
from horizonfv import entropy, harness, model
from horizonfv.harness import presets, restrict_halving, run_preset
from horizonfv.scheme import FLUX_KINDS, NumericalFlux, bump_data, flux_rusanov
from oracle_error import oracle_compare


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


def test_flat_preset_is_exact_fixed_point():
    result = self_convergence(presets()["flat"], levels=3)
    assert all(rec.l1_diff == 0.0 for rec in result.levels)
    assert np.isnan(result.observed_order)


def test_levels_guard(smooth):
    with pytest.raises(DomainError):
        self_convergence(smooth, levels=2)


def test_smooth_self_convergence_first_order(smooth):
    result = self_convergence(smooth, levels=3)
    diffs = [rec.l1_diff for rec in result.levels]
    assert all(d > 0 for d in diffs)
    assert all(a > b for a, b in zip(diffs, diffs[1:]))
    assert result.observed_order >= 0.8


def test_riemann_self_convergence():
    result = self_convergence(presets()["riemann"], levels=3)
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


def test_smooth_preset_below_crossing_guard(smooth):
    guard = crossing_time_guard(smooth.model, smooth.mass, smooth.v0,
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
        assert sorted(float(c) for name, c in cells.items() if name != "zero") == \
            sorted(c for poly in polys for c in poly if c)
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
        return [run(build_uniform_mesh(Background(mass), 2.0 * mass + 10.0, 40), m, numerical_flux(kind, m),
                    initial_values=values, t_end=0.2).final.values.tobytes()
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
            statements = model._in_place(poly, "u", "c_", "out", cells)
            assert cells == names
            out = np.full_like(u, np.nan)
            scope = {"u": u, "out": out, "zero": np.array(0.0), **{k: np.array(v) for k, v in names.items()}}
            exec("\n".join(statements), {"add": np.add, "mul": np.multiply}, scope)
            expected = np.array([eval(expr, {}, {"u": x, **names}) for x in grid])
            assert out.tobytes() == expected.tobytes(), (m.name, poly)
            assert out.tobytes() == model._evaluator(poly)(u).tobytes()


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


@pytest.mark.parametrize("targets, t_end, dt_target, match", [
    ([9.0, 4.0], 1.2, 0.002, "not strictly increasing"),
    ([4.0, 4.0, 9.0], 1.2, 0.002, "not strictly increasing"),
    ([4.0, math.nan, 9.0], 1.2, 0.002, "a target is not finite"),
    ([4.0, math.inf], 1.2, 0.002, "a target is not finite"),
    ([], 1.2, 0.002, "non-empty 1-d"),
    (4.0, 1.2, 0.002, "non-empty 1-d"),
    ([4.0, 9.0], math.inf, 0.002, "t_end = inf"),
    ([4.0, 9.0], math.nan, 0.002, "t_end = nan"),
    ([4.0, 9.0], -0.5, 0.002, "t_end = -0.5"),
    ([4.0, 9.0], 1.2, 0.0, "dt_target = 0.0"),
    ([4.0, 9.0], 1.2, -0.002, "dt_target = -0.002"),
    ([4.0, 9.0], 1.2, math.inf, "dt_target = inf"),
    ([4.0, 9.0], 1.2, math.nan, "dt_target = nan"),
    ([4.0, 9.0], 1.2, 0.002, ("mass = nan", math.nan)),
    ([4.0, 9.0], 1.2, 0.002, ("mass = inf", math.inf)),
    ([4.0, 9.0], 1.2, 0.002, ("mass = -inf", -math.inf)),
    ([4.0, 9.0], 1.2, 0.002, (r"mass = -0\.5", -0.5)),
])
def test_shooting_refuses_bad_input_before_the_probe_shot(monkeypatch, smooth, targets, t_end, dt_target, match):
    """match is the pattern of the refusal, or (pattern, mass) where the case varies the mass."""
    match, mass = match if isinstance(match, tuple) else (match, smooth.mass)

    def no_shot(*args):
        raise AssertionError("shot fired")

    monkeypatch.setattr(harness, "_integrate_chars", no_shot)
    with pytest.raises(DomainError, match=match):
        exact_solution_by_shooting(smooth.model, mass, smooth.v0, t_end, targets, dt_target)


def test_oracle_constant_data():
    m = burgers_model()
    flatc = Preset(name="flatc", model=m, mass=0.0, r_max=10.0, cells=64, t_end=0.5,
                   flux_kind="godunov", cfl_fraction=0.9,
                   v0=lambda r: np.full_like(np.asarray(r, dtype=float), -0.3))
    assert oracle_compare(flatc, 64) <= 1e-13


def test_oracle_fixed_point_data():
    m = burgers_model()
    ones = Preset(name="ones", model=m, mass=1.0, r_max=12.0, cells=64, t_end=0.5,
                  flux_kind="godunov", cfl_fraction=0.9,
                  v0=lambda r: np.ones_like(np.asarray(r, dtype=float)))
    assert oracle_compare(ones, 64) <= 1e-13


def test_oracle_error_halves(smooth):
    e100 = oracle_compare(smooth, 100)
    e200 = oracle_compare(smooth, 200)
    assert e100 > 0 and e200 > 0
    assert e100 / e200 >= 1.5


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


@pytest.mark.parametrize("cells", [100, 400])
def test_shooting_matches_bisection_reference(smooth, cells):
    mesh, _ = run_preset(smooth, cells)
    args = (smooth.model, smooth.mass, smooth.v0, smooth.t_end, mesh.centers)
    exact = exact_solution_by_shooting(*args)
    assert np.max(np.abs(exact - _bisection_reference(*args))) <= 1e-12


def test_shooting_linear_arrival_map_stops_early(monkeypatch):
    calls = []
    integrate = harness._integrate_chars

    def counted(*args):
        calls.append(args)
        return integrate(*args)

    monkeypatch.setattr(harness, "_integrate_chars", counted)
    targets = (np.arange(64) + 0.5) * (10.0 / 64)
    u = exact_solution_by_shooting(burgers_model(), 0.0, lambda r: np.full_like(r, -0.3), 0.5, targets)
    assert np.all(u == -0.3)
    assert len(calls) <= 3


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


def anti_diffusive(m, u, v):  # Rusanov with its dissipation sign flipped
    return m.f(u) + m.f(v) - flux_rusanov(m, u, v)


def test_fuzz_flags_non_monotone_flux(monkeypatch):
    monotone = harness.numerical_flux

    def numerical_flux(kind, m):
        return NumericalFlux("anti", monotone(kind, m).lipschitz_bound, anti_diffusive)

    monkeypatch.setattr(harness, "numerical_flux", numerical_flux)
    rep = fuzz_invariants(3, 7)
    assert "convex_coefficient" in {v["kind"] for v in rep.violations}


def test_fuzz_records_a_state_breach_and_runs_on(monkeypatch):
    # with the anti-diffusive flux, trial 0 of seed 6 leaves [-1, 1] in its
    # third step; trials 1 and 2 stay inside and reach their t_end
    monotone = harness.numerical_flux

    def numerical_flux(kind, m):
        return NumericalFlux("anti", monotone(kind, m).lipschitz_bound, anti_diffusive)

    real_run = harness.run
    trials = []  # per trial: (mesh, model, nf, fraction, observed states after each step)

    def recording_run(mesh, m, nf, *, on_step, cfl_fraction, **kwargs):
        afters = []
        trials.append((mesh, m, nf, cfl_fraction, afters))

        def observe(before, after, report):
            afters.append(after)
            on_step(before, after, report)

        return real_run(mesh, m, nf, on_step=observe, cfl_fraction=cfl_fraction, **kwargs)

    monkeypatch.setattr(harness, "numerical_flux", numerical_flux)
    monkeypatch.setattr(harness, "run", recording_run)
    rep = fuzz_invariants(3, 6, cells=50)
    breaches = [v for v in rep.violations if v["kind"] == "state_invariant"]
    assert len(breaches) == 1 and breaches[0]["config"]["trial"] == 0
    assert "maximum principle" in breaches[0]["detail"]
    assert len(rep.trial_configs) == 3 and len(trials) == 3
    assert [after.step_index for after in trials[0][4]] == [1, 2]
    assert rep.total_steps == sum(len(afters) for *_, afters in trials)
    # the breaching step is the next one, and it is not counted
    mesh, m, nf, fraction, afters = trials[0]
    tau = fraction * max_timestep(mesh, m, nf.lipschitz_bound)
    with pytest.raises(NumericsError):
        step(afters[-1], mesh, m, nf, tau)
    for config, (*_, afters) in zip(rep.trial_configs[1:], trials[1:]):
        assert afters[-1].time == pytest.approx(config["t_end"], abs=1e-15)


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
    new_state, step_report = step(state, mesh_m1, model, nf, tau)
    counts.clear()
    report = harness.FuzzReport(trials=1, seed=0)
    check = harness._step_checks(report, {}, mesh_m1, model, nf, DEFAULT_KRUZHKOV_LEVELS)
    check(state, new_state, step_report)
    assert report.total_steps == 1 and report.ok
    assert counts["cell_entropy_residuals"] == 1 and counts["face_reconstruction"] == 1
    assert counts["f"] == 1 and counts["h"] == 1
    assert counts["numerical_entropy_flux"] == 2


def test_fuzz_cfl_injection_meta_test():
    with pytest.raises(CflError):
        fuzz_invariants(1, 5, tau_scale=2.0)


def test_fuzz_trials_guard():
    with pytest.raises(DomainError):
        fuzz_invariants(0, 1)


def test_run_preset_resolution_override(smooth):
    mesh, result = run_preset(smooth, cells=40)
    assert mesh.n_cells == 40
    assert result.final.time == smooth.t_end
