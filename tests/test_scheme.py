import dataclasses
import math

import numpy as np
import pytest

from horizonfv import model, scheme
from horizonfv import (
    Background,
    CflError,
    ContractError,
    DomainError,
    NumericsError,
    StateVector,
    UnsupportedModelError,
    build_uniform_mesh,
    convex_coefficients,
    fixed_boundary,
    flux_engquist_osher,
    flux_godunov,
    flux_rusanov,
    max_timestep,
    numerical_flux,
    polynomial_model,
    project_initial,
    run,
    step,
)

ALL_FLUXES = ("godunov", "eo", "rusanov")


# --- two-point flux values -------------------------------------------------

def test_rusanov_values(burgers):
    assert flux_rusanov(burgers, 0.5, 0.5) == -0.375
    assert flux_rusanov(burgers, 1.0, -1.0) == 1.0
    assert flux_rusanov(burgers, -1.0, 1.0) == -1.0


def test_godunov_values(burgers):
    assert flux_godunov(burgers, -1.0, 1.0) == -0.5   # min through the sonic point
    assert flux_godunov(burgers, 1.0, -1.0) == 0.0    # max at the interval ends
    assert flux_godunov(burgers, 0.3, 0.3) == pytest.approx(-0.455, abs=1e-15)


def test_engquist_osher_values(burgers):
    assert flux_engquist_osher(burgers, 0.5, -0.5) == -0.25
    assert flux_engquist_osher(burgers, 0.7, 0.7) == burgers.f(0.7)
    assert flux_engquist_osher(burgers, -0.2, 0.9) == -0.5  # both arguments clip to 0


@pytest.mark.parametrize("kind", ALL_FLUXES)
def test_consistency(burgers, kind):
    nf = numerical_flux(kind, burgers)
    v = np.linspace(-1.0, 1.0, 41)
    assert np.max(np.abs(nf.evaluate(burgers, v, v) - burgers.f(v))) <= 1e-12


@pytest.mark.parametrize("kind", ALL_FLUXES)
def test_monotonicity_sampled(burgers, kind):
    nf = numerical_flux(kind, burgers)
    grid = np.linspace(-1.0, 1.0, 41)
    u, v = np.meshgrid(grid, grid, indexing="ij")
    table = nf.evaluate(burgers, u, v)
    # nondecreasing in the inside argument, nonincreasing in the outside one
    assert np.all(np.diff(table, axis=0) >= -1e-14)
    assert np.all(np.diff(table, axis=1) <= 1e-14)


def test_godunov_requires_unimodal_shape():
    linear = polynomial_model("linear", [0.0, 1.0], [0.0])
    with pytest.raises(UnsupportedModelError):
        flux_godunov(linear, 0.1, 0.2)
    with pytest.raises(UnsupportedModelError):
        numerical_flux("eo", linear)


def test_unknown_flux_kind(burgers):
    with pytest.raises(DomainError):
        numerical_flux("upwindish", burgers)


# --- single updates ---------------------------------------------------------

def brute_force_step(values, mesh, m, nf, tau, ghost):
    """Direct per-cell transcription of the update, with explicit +/- face
    weights; an independent oracle for the vectorized implementation."""
    n = values.size
    out = np.empty(n)
    for i in range(n):
        v = values[i]
        left_state = values[i - 1] if i > 0 else values[0]
        right_state = values[i + 1] if i < n - 1 else ghost
        f_left = nf.evaluate(m, left_state, v)
        f_right = nf.evaluate(m, v, right_state)
        a_left = mesh.face_weights[i]
        a_right = mesh.face_weights[i + 1]
        dr = mesh.widths[i]
        flux_sum = a_right * (f_right - m.f(v)) - a_left * (f_left - m.f(v))
        out[i] = v - tau / dr * flux_sum + tau * mesh.cell_thetas[i] * (m.f(v) + m.h(v))
    return out


@pytest.mark.parametrize("kind", ALL_FLUXES)
def test_step_matches_brute_force(mesh_m1, burgers, rng, kind):
    nf = numerical_flux(kind, burgers)
    tau = 0.9 * max_timestep(mesh_m1, burgers, nf.lipschitz_bound)
    values = rng.uniform(-1.0, 1.0, mesh_m1.n_cells)
    state = StateVector(values=values, time=0.0, step_index=0)
    new_state, report = step(state, mesh_m1, burgers, nf, tau)
    expected = brute_force_step(values, mesh_m1, burgers, nf, tau, ghost=values[-1])
    assert np.max(np.abs(new_state.values - expected)) <= 1e-14
    assert new_state.time == tau
    assert new_state.step_index == 1
    assert report.tau_used == tau
    assert report.fluxes.size == mesh_m1.faces.size


def test_constant_state_fixed_flat(mesh_flat, burgers):
    for kind in ALL_FLUXES:
        nf = numerical_flux(kind, burgers)
        state = StateVector(values=np.full(mesh_flat.n_cells, 0.37), time=0.0, step_index=0)
        new_state, _ = step(state, mesh_flat, burgers, nf, 0.02)
        assert np.array_equal(new_state.values, state.values)


@pytest.mark.parametrize("value", [1.0, -1.0])
def test_boundary_states_fixed_curved(mesh_m1, structure_models, value):
    for m in structure_models:
        for kind in ALL_FLUXES:
            nf = numerical_flux(kind, m)
            tau = 0.9 * max_timestep(mesh_m1, m, nf.lipschitz_bound)
            state = StateVector(values=np.full(mesh_m1.n_cells, value), time=0.0, step_index=0)
            new_state, _ = step(state, mesh_m1, m, nf, tau)
            assert np.array_equal(new_state.values, state.values)


def test_cfl_guard(mesh_m1, burgers):
    nf = numerical_flux("godunov", burgers)
    bound = max_timestep(mesh_m1, burgers, nf.lipschitz_bound)
    state = StateVector(values=np.zeros(mesh_m1.n_cells), time=0.0, step_index=0)
    with pytest.raises(CflError):
        step(state, mesh_m1, burgers, nf, 2.0 * bound)
    with pytest.raises(CflError):
        step(state, mesh_m1, burgers, nf, 0.0)


def test_nan_detection(mesh_m1, burgers):
    # the step reads the model's coefficients, not its f, so the NaN comes
    # in through a custom flux, which it calls with three arguments
    def poisoned(m, u, v):
        out = flux_rusanov(m, u, v)
        out[5] = np.nan
        return out

    nf = scheme.NumericalFlux("poisoned", burgers.flux_lipschitz, poisoned)
    state = StateVector(values=np.zeros(mesh_m1.n_cells), time=0.0, step_index=0)
    with pytest.raises(NumericsError, match="NaN in state values"):
        step(state, mesh_m1, burgers, nf, 1e-3)


def test_state_vector_rejects_out_of_range():
    with pytest.raises(NumericsError):
        StateVector(values=np.array([0.0, 1.0 + 1e-12]), time=0.0, step_index=0)


@pytest.mark.parametrize("values, message", [
    ([2.0, np.nan], "NaN in state values"),
    ([np.nan], "NaN in state values"),
    ([np.inf], "discrete maximum principle violated"),
    ([-np.inf, 0.5], "discrete maximum principle violated"),
    ([0.0, 1.0 + 1e-12], "discrete maximum principle violated"),
])
def test_state_vector_messages_under_one_reduction(values, message):
    with pytest.raises(NumericsError, match=message):
        StateVector(values=np.array(values), time=0.0, step_index=0)


@pytest.mark.parametrize("values", [[-1.5, 0.2], [0.3, 1.25, -1.125], [-1.0 - 2 ** -52, 1.0],
                                    [np.inf, -2.0], [-np.inf, 0.5]])
def test_state_vector_message_names_the_largest_magnitude(values):
    peak = float(np.max(np.abs(values)))
    with pytest.raises(NumericsError) as exc:
        StateVector(values=np.array(values), time=0.0, step_index=0)
    assert str(exc.value) == (f"state leaves [-1, 1]: max |v| = {peak:.17g} "
                              "(discrete maximum principle violated)")


def test_state_vector_accepts_the_closed_interval():
    edge = np.array([-1.0, 1.0, -0.0, 5e-324, -5e-324])
    state = StateVector(values=edge, time=0.0, step_index=0)
    assert state.values.tobytes() == edge.tobytes()  # -0.0 and subnormals kept as they are


def test_state_vector_owns_its_values(mesh_m1, burgers):
    arr = np.linspace(-0.5, 0.5, 8)
    state = StateVector(values=arr, time=0.0, step_index=0)
    arr[0] = 0.9
    assert state.values[0] == -0.5
    assert not state.values.flags.writeable
    view = np.linspace(-0.5, 0.5, 8)[::2]  # a view owns no data, so it is copied too
    view.setflags(write=False)
    assert StateVector(values=view, time=0.0, step_index=0).values is not view
    # step hands over its fresh read-only array as is
    nf = numerical_flux("godunov", burgers)
    new_state, _ = step(StateVector(values=np.zeros(mesh_m1.n_cells), time=0.0, step_index=0),
                        mesh_m1, burgers, nf, 0.5 * max_timestep(mesh_m1, burgers, nf.lipschitz_bound))
    assert StateVector(values=new_state.values, time=0.0, step_index=0).values is new_state.values


def test_convex_coefficients_reconstruction(mesh_m1, burgers, rng):
    nf = numerical_flux("godunov", burgers)
    tau = 0.9 * max_timestep(mesh_m1, burgers, nf.lipschitz_bound)
    values = rng.uniform(-1.0, 1.0, mesh_m1.n_cells)
    state = StateVector(values=values, time=0.0, step_index=0)
    _, report = step(state, mesh_m1, burgers, nf, tau)
    a_center, a_left, a_right = convex_coefficients(report, mesh_m1, burgers, nf)
    assert np.max(np.abs(a_center + a_left + a_right - 1.0)) <= 1e-12
    assert min(a_left.min(), a_right.min()) >= 0.0
    assert not np.any(np.signbit(a_left) | np.signbit(a_right))  # a zero coefficient is 0.0, not -0.0
    assert a_center.min() >= 0.5 - 1e-12  # CFL puts at least half the weight on the cell


def test_convex_coefficients_fall_back_to_the_flux_quotients(mesh_m1, burgers, rng):
    # without increments the coefficients are the recorded flux differences
    # over the state jumps; with a fixed ghost and random data no jump is
    # zero, so both ways agree up to the quotients' rounding
    outer = fixed_boundary(0.3)
    state = StateVector(values=rng.uniform(-1.0, 1.0, mesh_m1.n_cells), time=0.0, step_index=0)
    for kind in ALL_FLUXES:
        nf = numerical_flux(kind, burgers)
        _, report = step(state, mesh_m1, burgers, nf, max_timestep(mesh_m1, burgers, nf.lipschitz_bound),
                         outer=outer)
        exact = convex_coefficients(report, mesh_m1, burgers, nf)
        quotient = convex_coefficients(report, mesh_m1, burgers, dataclasses.replace(nf, increments=None))
        assert np.max(np.abs(np.array(exact) - np.array(quotient))) <= 1e-12


# --- Harten increments -------------------------------------------------------

@pytest.mark.parametrize("model", ["burgers", "quartic", "sextic"])
@pytest.mark.parametrize("kind", ALL_FLUXES)
def test_increments_match_the_flux_quotients(request, model, kind, rng):
    # The quotients (nf - f(v))/(u - v) and (nf - f(u))/(u - v) carry the
    # rounding of a flux difference, a few ulps of max |f|, over |u - v|.
    # Measured over 400 000 pairs with |u - v| > 1e-6: at most 5.3 such
    # units (quartic, Rusanov), or 1.1e-9 absolute (sextic).
    m = request.getfixturevalue(model)
    nf = numerical_flux(kind, m)
    u = rng.uniform(-1.0, 1.0, 20000)
    v = np.clip(u + rng.choice([-1.0, 1.0], u.size) * 10.0 ** rng.uniform(-6.0, 0.3, u.size), -1.0, 1.0)
    keep = np.abs(u - v) > 1e-6
    u, v = u[keep], v[keep]
    c, d = nf.increments(m, u, v)
    flux = nf.evaluate(m, u, v)
    unit = np.finfo(float).eps * np.max(np.abs(m.f(np.linspace(-1.0, 1.0, 2001)))) / np.abs(u - v)
    assert np.all(np.abs(c - (flux - m.f(v)) / (u - v)) <= 8.0 * unit)
    assert np.all(np.abs(d - (flux - m.f(u)) / (u - v)) <= 8.0 * unit)


@pytest.mark.parametrize("kind", ALL_FLUXES)
def test_burgers_increments_are_nonnegative_and_take_their_limits(burgers, kind, rng):
    base = np.array([-1.0, -0.75, -0.5, -1e-9, -5e-324, 0.0, 5e-324, 1e-9, 0.3, 0.5, 0.75, 1.0])
    grid = np.clip(np.concatenate((base, np.nextafter(base, -2.0), np.nextafter(base, 2.0))), -1.0, 1.0)
    near = rng.uniform(-1.0, 1.0, 1000)
    u, v = (np.concatenate((pair.ravel(), near)) for pair in np.meshgrid(grid, grid))
    v[-near.size:] = np.nextafter(near, rng.choice([-2.0, 2.0], near.size))  # 1 ulp apart
    nf = numerical_flux(kind, burgers)
    c, d = nf.increments(burgers, u, v)
    assert c.min() >= 0.0 and d.min() >= 0.0

    c, d = nf.increments(burgers, grid, grid)  # at a zero jump, the limits
    if kind == "rusanov":
        expected = (0.5 * (1.0 + grid), 0.5 * (1.0 - grid))
    else:
        expected = (np.maximum(grid, 0.0), np.maximum(-grid, 0.0))
    np.testing.assert_allclose(c, expected[0], rtol=1e-15, atol=5e-324)
    np.testing.assert_allclose(d, expected[1], rtol=1e-15, atol=5e-324)


def test_rusanov_increments_hold_where_the_divided_difference_rounds_past_the_bound(rounding_quartic):
    m = rounding_quartic
    u, v = np.array([-1.0]), np.array([-0.9999999999999997])
    assert m.structure.all_ok
    assert scheme._divided_difference(m, u, v)[0] < -m.flux_lipschitz
    c, d = numerical_flux("rusanov", m).increments(m, u, v)
    assert c[0] >= 0.0 and d[0] >= 0.0


# --- the horizon face -------------------------------------------------------

def test_inner_ghost_is_inert(mesh_m1, burgers, rng):
    nf = numerical_flux("godunov", burgers)
    tau = 0.9 * max_timestep(mesh_m1, burgers, nf.lipschitz_bound)
    values = rng.uniform(-1.0, 1.0, mesh_m1.n_cells)
    state = StateVector(values=values, time=0.0, step_index=0)
    baseline, _ = step(state, mesh_m1, burgers, nf, tau)
    for ghost in (-1.0, 0.73, 1.0):
        altered, _ = step(state, mesh_m1, burgers, nf, tau, inner_ghost=ghost)
        assert np.array_equal(baseline.values, altered.values)


# --- bitwise replay of the update -------------------------------------------

def reference_update(values, mesh, m, nf, tau, outer, inner_ghost=None):
    """The update as a plain transcription: face states by concatenation,
    the flux's own 3-argument evaluate, and the grouped divergence
    a_R F_R - a_L F_L - f(v)(a_R - a_L); returns (face states, fluxes,
    new values)."""
    inner = values[0] if inner_ghost is None else float(inner_ghost)
    states = np.concatenate(([inner], values, [outer.ghost(float(values[-1]))]))
    fluxes = np.asarray(nf.evaluate(m, states[:-1], states[1:]), dtype=float)
    fc = np.asarray(m.f(values), dtype=float)
    hc = np.asarray(m.h(values), dtype=float)
    a_l, a_r = mesh.face_weights[:-1], mesh.face_weights[1:]
    flux_term = a_r * fluxes[1:] - a_l * fluxes[:-1] - fc * (a_r - a_l)
    return states, fluxes, values - (tau / mesh.widths) * flux_term + tau * mesh.cell_thetas * (fc + hc)


def custom_rusanov(m, u, v):  # a 3-argument flux: no increments, no f values taken
    return flux_rusanov(m, u, v)


def replay_fluxes(m):
    return [numerical_flux(kind, m) for kind in ALL_FLUXES] + \
        [scheme.NumericalFlux("custom", m.flux_lipschitz, custom_rusanov)]


@pytest.mark.parametrize("model_name", ["burgers", "quartic", "sextic"])
@pytest.mark.parametrize("mass", [0.0, 1.0])
def test_step_replays_the_reference_update_bitwise(request, model_name, mass):
    m = request.getfixturevalue(model_name)
    mesh = build_uniform_mesh(Background(mass), 2.0 * mass + 10.0, 40)
    values = np.random.default_rng(7).uniform(-1.0, 1.0, mesh.n_cells)
    values[[3, 11, 17]] = (1.0, -1.0, -0.0)
    for nf in replay_fluxes(m):
        for outer in (scheme.COPY_BOUNDARY, fixed_boundary(-0.3)):
            seen = []
            result = run(mesh, m, nf, initial_values=values, t_end=0.137, outer=outer,
                         on_step=lambda before, after, report: seen.append((before, after, report)))
            assert seen[-1][2].tau_used < result.tau_base  # the shortened last step is covered
            for before, after, report in seen:
                states, fluxes, expected = reference_update(before.values, mesh, m, nf, report.tau_used,
                                                            outer)
                assert after.values.tobytes() == expected.tobytes(), (nf.kind, after.step_index)
                assert report.fluxes.tobytes() == fluxes.tobytes(), (nf.kind, after.step_index)
                assert report.states.tobytes() == states.tobytes(), (nf.kind, after.step_index)
                assert not report.states.flags.writeable
            retained = [a for _, after, report in seen for a in (after.values, report.fluxes, report.states)]
            assert not any(np.shares_memory(a, b) for i, a in enumerate(retained)
                           for b in retained[i + 1:])
            state = seen[0][0]
            tau = seen[0][2].tau_used
            for ghost in (-1.0, 0.73):
                stepped, report = step(state, mesh, m, nf, tau, outer=outer, inner_ghost=ghost)
                states, fluxes, expected = reference_update(state.values, mesh, m, nf, tau, outer, ghost)
                assert stepped.values.tobytes() == expected.tobytes()
                assert report.fluxes.tobytes() == fluxes.tobytes()
                assert report.states.tobytes() == states.tobytes()


def test_step_refuses_factors_for_another_tau(mesh_m1, burgers):
    nf = numerical_flux("godunov", burgers)
    tau = 0.5 * max_timestep(mesh_m1, burgers, nf.lipschitz_bound)
    state = StateVector(values=np.zeros(mesh_m1.n_cells), time=0.0, step_index=0)
    with pytest.raises(ContractError):
        step(state, mesh_m1, burgers, nf, tau,
             factors=scheme._step_factors(mesh_m1, 0.5 * tau, 2.0 * tau))


def test_step_refuses_the_bundled_shape_fluxes_for_a_model_without_the_shape(mesh_flat):
    # the formula is found by the identity of evaluate, whatever the kind says
    linear = polynomial_model("linear", [0.0, 1.0], [0.0])
    state = StateVector(values=np.zeros(mesh_flat.n_cells), time=0.0, step_index=0)
    for evaluate, kind in ((flux_godunov, "godunov"), (flux_engquist_osher, "eo")):
        nf = scheme.NumericalFlux("custom", linear.flux_lipschitz, evaluate)
        with pytest.raises(UnsupportedModelError, match=f"^{kind} flux needs"):
            step(state, mesh_flat, linear, nf, 0.01)


GODUNOV, RUSANOV = (scheme._FORMULAS[flux][1] for flux in (flux_godunov, flux_rusanov))
STEP_FORMULAS = (*(formula for _, formula in scheme._FORMULAS.values()), scheme._CALL)


def _nonzero_coefficients(m):
    return sorted(c for poly in (m.f_poly, m.h_poly) for c in poly if c)


def test_step_kernel_binds_coefficients_and_scalars_as_0d_cells(burgers, quartic, sextic, shifted,
                                                                rounding_quartic):
    for m in (burgers, quartic, sextic, shifted, rounding_quartic):
        for formula in STEP_FORMULAS:
            kernel = scheme._step_kernel(m.f_poly, m.h_poly, formula, m.flux_lipschitz)
            cells = dict(zip(kernel.__code__.co_freevars, (cell.cell_contents for cell in kernel.__closure__)))
            assert all(isinstance(c, np.ndarray) and c.shape == () and c.dtype == np.float64
                       for c in cells.values())
            scalars = {"zero": 0.0, "half": 0.5, "half_lam": 0.5 * m.flux_lipschitz, "f_zero": m.f(0.0)}
            assert all(float(cells.pop(name)) == value for name, value in scalars.items() if name in cells)
            assert sorted(float(c) for c in cells.values()) == _nonzero_coefficients(m), (m.name, formula)


def test_step_kernel_source_holds_no_coefficient_text(monkeypatch, burgers, quartic, sextic, shifted,
                                                      rounding_quartic):
    for m in (burgers, quartic, sextic, shifted, rounding_quartic):
        for formula in STEP_FORMULAS:
            sources = []
            monkeypatch.setattr(scheme, "_closure",
                                lambda source, *args: sources.append(source) or model._closure(source, *args))
            kernel = scheme._step_kernel.__wrapped__(m.f_poly, m.h_poly, formula, m.flux_lipschitz)
            (source,) = sources
            for c in _nonzero_coefficients(m) + [0.5 * m.flux_lipschitz, m.f(0.0)]:
                assert repr(c) not in source and repr(abs(c)) not in source, (m.name, c)
            assert not [c for c in kernel.__code__.co_consts if isinstance(c, float)]


def test_step_kernel_cache_returns_one_kernel_per_key_and_stays_bounded(mesh_m1, burgers, quartic):
    cache = scheme._step_kernel
    key = (burgers.f_poly, burgers.h_poly, GODUNOV, burgers.flux_lipschitz)
    assert cache(*key) is cache(tuple(list(burgers.f_poly)), tuple(list(burgers.h_poly)), GODUNOV, 1.0)
    assert cache(*key) is not cache(quartic.f_poly, quartic.h_poly, GODUNOV, quartic.flux_lipschitz)
    assert cache(*key) is not cache(burgers.f_poly, burgers.h_poly, RUSANOV, burgers.flux_lipschitz)
    nf = numerical_flux("godunov", burgers)
    state = StateVector(values=np.linspace(-0.9, 0.9, mesh_m1.n_cells), time=0.0, step_index=0)
    tau = 0.9 * max_timestep(mesh_m1, burgers, nf.lipschitz_bound)
    before = step(state, mesh_m1, burgers, nf, tau)[0].values.tobytes()
    maxsize = cache.cache_info().maxsize
    assert maxsize is not None
    kernels = {cache((-0.5, 0.0, float(k)), (0.0,), RUSANOV, float(k)) for k in range(1, maxsize + 11)}
    assert len(kernels) == maxsize + 10
    assert cache.cache_info().currsize <= maxsize
    # a step through a fresh compile of the evicted key gives the same bits
    assert step(state, mesh_m1, burgers, nf, tau)[0].values.tobytes() == before


# --- time loops --------------------------------------------------------------

def test_run_checks_every_tau_against_its_one_bound(mesh_m1, burgers, monkeypatch):
    # the bound is derived once per run and every tau is checked where its
    # step factors are built, so a fraction above 1 is refused before the
    # first step even when t_end is shorter than that step
    bound = scheme.max_timestep
    calls = []
    monkeypatch.setattr(scheme, "max_timestep", lambda *args: calls.append(args) or bound(*args))
    nf = numerical_flux("godunov", burgers)
    result = run(mesh_m1, burgers, nf, v0=lambda r: 0.5 * np.cos(r), t_end=0.37)
    assert len(calls) == 1 and result.steps > 1 and result.final.time == 0.37
    tau_bound = bound(mesh_m1, burgers, nf.lipschitz_bound)
    observed = []
    with pytest.raises(CflError):
        run(mesh_m1, burgers, nf, v0=lambda r: np.zeros_like(r), t_end=0.5 * tau_bound,
            cfl_fraction=1.5, on_step=lambda *args: observed.append(args))
    assert not observed
    with pytest.raises(CflError):
        scheme._step_factors(mesh_m1, 1.5 * tau_bound, tau_bound)


def test_run_lands_exactly_and_bounds(mesh_m1, burgers):
    nf = numerical_flux("godunov", burgers)
    result = run(mesh_m1, burgers, nf, v0=lambda r: np.zeros_like(r), t_end=0.5)
    assert result.final.time == 0.5
    assert np.max(np.abs(result.final.values)) <= 1.0
    assert result.snapshots[0].time == 0.0
    assert result.snapshots[-1] is result.final


def test_run_fixed_point(mesh_m1, burgers):
    nf = numerical_flux("eo", burgers)
    result = run(mesh_m1, burgers, nf, v0=lambda r: np.ones_like(r), t_end=1.0)
    assert np.array_equal(result.final.values, np.ones(mesh_m1.n_cells))


def test_step_and_run_build_no_convex_coefficients(mesh_m1, burgers, rng, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the hot path rebuilt the convex coefficients")

    monkeypatch.setattr(scheme, "convex_coefficients", forbidden)
    nf = numerical_flux("godunov", burgers)
    tau = 0.9 * max_timestep(mesh_m1, burgers, nf.lipschitz_bound)
    state = StateVector(values=rng.uniform(-1.0, 1.0, mesh_m1.n_cells), time=0.0, step_index=0)
    new_state, report = step(state, mesh_m1, burgers, nf, tau)
    assert new_state.step_index == 1
    assert report.tau_used == tau and report.fluxes.size == mesh_m1.n_cells + 1
    result = scheme.run(mesh_m1, burgers, nf, v0=lambda r: np.sin(r), t_end=0.3,
                        outer=fixed_boundary(-0.2))
    assert result.final.time == 0.3


def test_run_on_step_sees_every_step_once(mesh_m1, burgers):
    nf = numerical_flux("eo", burgers)
    seen = []

    def observe(state_before, state_after, report):
        seen.append((state_after.step_index, state_before, report, report.tau_used, state_after))

    t_end = 0.37
    result = run(mesh_m1, burgers, nf, v0=lambda r: 0.6 * np.cos(r), t_end=t_end,
                 snapshot_every=4, on_step=observe)
    assert [entry[0] for entry in seen] == list(range(1, result.steps + 1))
    assert seen[0][1] is result.snapshots[0]
    assert all(entry[2].tau_used == entry[3] for entry in seen)
    assert all(entry[3] == result.tau_base for entry in seen[:-1])
    last_tau = seen[-1][3]
    assert 0.0 < last_tau < result.tau_base  # the shortened last step is observed
    assert seen[-1][1].time + last_tau == pytest.approx(t_end, abs=1e-15)
    # each observed pre-step state, stepped again by hand, gives the next one
    for (_, before, report, tau, observed_after), (_, after, _, _, _) in zip(seen, seen[1:]):
        replay, replay_report = step(before, mesh_m1, burgers, nf, tau)
        assert np.array_equal(replay.values, after.values)
        assert np.array_equal(replay_report.fluxes, report.fluxes)
        assert after.step_index == before.step_index + 1
        assert observed_after is after  # the state handed over is the next step's start
    final_replay, _ = step(seen[-1][1], mesh_m1, burgers, nf, last_tau)
    assert np.array_equal(final_replay.values, result.final.values)
    assert np.array_equal(seen[-1][4].values, result.final.values)


def test_run_snapshot_cadence(mesh_m1, burgers):
    nf = numerical_flux("godunov", burgers)
    result = run(mesh_m1, burgers, nf, v0=lambda r: np.zeros_like(r), t_end=1.0,
                 snapshot_every=3)
    indices = [s.step_index for s in result.snapshots]
    assert indices[0] == 0
    assert all(i % 3 == 0 for i in indices[1:-1])
    assert indices[-1] == result.steps


def test_run_clamps_overshooting_data(mesh_m1, burgers):
    result = run(mesh_m1, burgers, numerical_flux("godunov", burgers),
                 v0=lambda r: 1.2 * np.sin(r), t_end=0.01)
    assert result.clamped_cells > 0
    assert np.max(np.abs(result.snapshots[0].values)) <= 1.0


def test_riemann_stationary_shock_flat(burgers):
    # equal-area data (1, -1): interface flux equals the boundary flux value,
    # so the exact solution is a standing shock and godunov preserves it
    mesh = build_uniform_mesh(Background(0.0), 10.0, 40)
    nf = numerical_flux("godunov", burgers)
    v0 = lambda r: np.where(r < 5.0, 1.0, -1.0)
    result = run(mesh, burgers, nf, v0=v0, t_end=0.25)
    assert np.array_equal(result.final.values, result.snapshots[0].values)
    assert set(np.unique(result.final.values)) == {-1.0, 1.0}


def test_fixed_outer_boundary(mesh_m1, burgers):
    nf = numerical_flux("godunov", burgers)
    outer = fixed_boundary(0.25)
    result = run(mesh_m1, burgers, nf, v0=lambda r: np.zeros_like(r), t_end=0.3, outer=outer)
    assert np.max(np.abs(result.final.values)) <= 1.0
    with pytest.raises(DomainError):
        fixed_boundary(1.5)


def test_run_parameter_validation(mesh_m1, burgers):
    nf = numerical_flux("godunov", burgers)
    with pytest.raises(DomainError):
        run(mesh_m1, burgers, nf, v0=lambda r: np.zeros_like(r), t_end=0.0)
    with pytest.raises(DomainError):
        run(mesh_m1, burgers, nf, v0=lambda r: np.zeros_like(r), t_end=1.0, cfl_fraction=1.5)


def test_run_refuses_a_t_end_that_is_not_finite(mesh_m1, burgers, monkeypatch):
    # a loop that got past the check would step without end; one step is allowed
    calls = []

    def one_step(*args, **kwargs):
        if calls:
            raise AssertionError("run stepped towards a t_end that is not finite")
        calls.append(args)
        return step(*args, **kwargs)

    monkeypatch.setattr(scheme, "step", one_step)
    nf = numerical_flux("godunov", burgers)
    for t_end in (math.inf, math.nan):
        with pytest.raises(DomainError, match=f"t_end must be positive and finite, got {t_end}"):
            run(mesh_m1, burgers, nf, v0=lambda r: np.zeros_like(r), t_end=t_end)
    assert not calls


def test_projection_averages_within_bounds(mesh_m1, rng):
    values, clamped = project_initial(mesh_m1, lambda r: np.sin(3 * r))
    assert clamped == 0
    assert np.max(np.abs(values)) <= 1.0
    # quadrature of a constant reproduces it to round-off
    const, _ = project_initial(mesh_m1, lambda r: np.full_like(r, 0.4))
    assert np.max(np.abs(const - 0.4)) <= 1e-15


# --- flat-space reduction ----------------------------------------------------

def plain_conservative_step(values, dr, tau, m, nf):
    """Textbook scheme v - (tau/dr)(F_right - F_left) with copy ghosts."""
    left = np.concatenate(([values[0]], values))
    right = np.concatenate((values, [values[-1]]))
    fluxes = nf.evaluate(m, left, right)
    return values - (tau / dr) * (fluxes[1:] - fluxes[:-1])


@pytest.mark.parametrize("kind", ALL_FLUXES)
def test_flat_space_bitwise_equivalence(burgers, rng, kind):
    mesh = build_uniform_mesh(Background(0.0), 10.0, 64)
    nf = numerical_flux(kind, burgers)
    tau = 0.9 * max_timestep(mesh, burgers, nf.lipschitz_bound)
    values = rng.uniform(-1.0, 1.0, mesh.n_cells)
    state = StateVector(values=values, time=0.0, step_index=0)
    mirror = values.copy()
    for _ in range(50):
        state, _ = step(state, mesh, burgers, nf, tau)
        mirror = plain_conservative_step(mirror, mesh.widths[0], tau, burgers, nf)
        assert np.array_equal(state.values, mirror)
