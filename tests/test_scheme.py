import ast
import dataclasses
import inspect
import math
import re
import typing

import numpy as np
import pytest

import horizonfv
from horizonfv import entropy, model, scheme
from horizonfv import (
    Background,
    CflError,
    ContractError,
    DomainError,
    FluxModel,
    NumericsError,
    StateVector,
    UnsupportedModelError,
    build_uniform_mesh,
    convex_coefficients,
    max_timestep,
    numerical_flux,
    polynomial_model,
    project_initial,
    run,
    step,
)
from allocations import allocations
from reference_update import reference_update

ALL_FLUXES = ("godunov", "eo", "rusanov")


def averages(mesh, v0):
    """The cell averages of v0 that run takes."""
    return project_initial(mesh, v0)[0]


# --- two-point flux values -------------------------------------------------

def test_rusanov_values(burgers):
    flux_rusanov = numerical_flux("rusanov", burgers).evaluate
    assert flux_rusanov(burgers, 0.5, 0.5) == -0.375
    assert flux_rusanov(burgers, 1.0, -1.0) == 1.0
    assert flux_rusanov(burgers, -1.0, 1.0) == -1.0


def test_godunov_values(burgers):
    flux_godunov = numerical_flux("godunov", burgers).evaluate
    assert flux_godunov(burgers, -1.0, 1.0) == -0.5   # min through the sonic point
    assert flux_godunov(burgers, 1.0, -1.0) == 0.0    # max at the interval ends
    assert flux_godunov(burgers, 0.3, 0.3) == pytest.approx(-0.455, abs=1e-15)


def test_engquist_osher_values(burgers):
    flux_engquist_osher = numerical_flux("eo", burgers).evaluate
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
    with pytest.raises(UnsupportedModelError):  # the function numerical_flux("godunov", m).evaluate is
        scheme._numpy_flux("godunov", scheme._FLUXES["godunov"][0])(linear, 0.1, 0.2)
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
    new_state, report = step(state, mesh_m1, nf, tau)
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
        new_state, _ = step(state, mesh_flat, nf, 0.02)
        assert np.array_equal(new_state.values, state.values)


@pytest.mark.parametrize("value", [1.0, -1.0])
def test_boundary_states_fixed_curved(mesh_m1, structure_models, value):
    for m in structure_models:
        for kind in ALL_FLUXES:
            nf = numerical_flux(kind, m)
            tau = 0.9 * max_timestep(mesh_m1, m, nf.lipschitz_bound)
            state = StateVector(values=np.full(mesh_m1.n_cells, value), time=0.0, step_index=0)
            new_state, _ = step(state, mesh_m1, nf, tau)
            assert np.array_equal(new_state.values, state.values)


def test_cfl_guard(mesh_m1, burgers):
    nf = numerical_flux("godunov", burgers)
    bound = max_timestep(mesh_m1, burgers, nf.lipschitz_bound)
    state = StateVector(values=np.zeros(mesh_m1.n_cells), time=0.0, step_index=0)
    with pytest.raises(CflError):
        step(state, mesh_m1, nf, 2.0 * bound)
    with pytest.raises(CflError):
        step(state, mesh_m1, nf, 0.0)


def test_nan_detection(mesh_m1, burgers):
    # the step reads the model's coefficients, not its f, so the NaN comes in through a flux formula:
    # on a zero state every jump is zero, and zero over zero is NaN
    nf = scheme.NumericalFlux("poisoned", burgers, "fluxes = (right - left) / (right - left)")
    state = StateVector(values=np.zeros(mesh_m1.n_cells), time=0.0, step_index=0)
    with np.errstate(invalid="ignore"), pytest.raises(NumericsError, match="NaN in state values"):
        step(state, mesh_m1, nf, 1e-3)


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


def _max_and_min_check(vals, step_index, time):
    """The step's range check as a max and a min over the state, the reference for its one pass:
    None where vals passes, else the text of its NumericsError."""
    top, bottom = float(vals.max()), float(vals.min())
    if top <= 1.0 and bottom >= -1.0:
        return None
    message = "NaN in state values" if math.isnan(top) else (
        f"state leaves [-1, 1]: max |v| = {max(top, -bottom):.17g} (discrete maximum principle violated)")
    cell = int(np.argmin(np.abs(vals) <= 1.0))
    return message + f" at step {step_index}, t = {time:.17g}, cell {cell} (v = {vals[cell]:.17g})"


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 1.0 + 2.0 ** -52, -1.0 - 2.0 ** -52,
                                   -0.0, 1.0, -1.0])
def test_step_range_check_gives_the_outcome_and_text_of_a_max_and_a_min(monkeypatch, mesh_m1, burgers, value):
    real, written = scheme._step_kernel, []

    def poisoned(*key):  # the step kernel, then value written into cell 5 of the update
        def kernel(s, v_new, *rest):
            fluxes = real(*key)(s, v_new, *rest)
            v_new[5] = value
            written.append(v_new.copy())
            return fluxes
        return kernel

    monkeypatch.setattr(scheme, "_step_kernel", poisoned)
    nf = numerical_flux("godunov", burgers)
    state = StateVector(values=np.linspace(-0.9, 0.9, mesh_m1.n_cells), time=0.25, step_index=3)
    tau = 0.5 * max_timestep(mesh_m1, burgers, nf.lipschitz_bound)
    try:
        after, _ = step(state, mesh_m1, nf, tau)
    except NumericsError as exc:
        assert str(exc) == _max_and_min_check(written[0], 4, 0.25 + tau)
    else:
        assert _max_and_min_check(written[0], 4, 0.25 + tau) is None
        assert after.values.tobytes() == written[0].tobytes()


def test_state_vector_owns_its_values(mesh_m1, burgers):
    arr = np.linspace(-0.5, 0.5, 8)
    state = StateVector(values=arr, time=0.0, step_index=0)
    arr[0] = 0.9
    assert state.values[0] == -0.5
    assert not state.values.flags.writeable
    view = np.linspace(-0.5, 0.5, 8)[::2]  # a view owns no data, so it is copied too
    view.setflags(write=False)
    assert StateVector(values=view, time=0.0, step_index=0).values is not view
    # so is another state's read-only array: no two states share values
    nf = numerical_flux("godunov", burgers)
    new_state, _ = step(StateVector(values=np.zeros(mesh_m1.n_cells), time=0.0, step_index=0),
                        mesh_m1, nf, 0.5 * max_timestep(mesh_m1, burgers, nf.lipschitz_bound))
    again = StateVector(values=new_state.values, time=0.0, step_index=0).values
    assert again.flags.owndata and not np.shares_memory(again, new_state.values)
    assert again.tobytes() == new_state.values.tobytes()


def test_convex_coefficients_reconstruction(mesh_m1, burgers, rng):
    nf = numerical_flux("godunov", burgers)
    tau = 0.9 * max_timestep(mesh_m1, burgers, nf.lipschitz_bound)
    values = rng.uniform(-1.0, 1.0, mesh_m1.n_cells)
    state = StateVector(values=values, time=0.0, step_index=0)
    _, report = step(state, mesh_m1, nf, tau)
    a_center, a_left, a_right = convex_coefficients(report, mesh_m1, nf)
    assert np.max(np.abs(a_center + a_left + a_right - 1.0)) <= 1e-12
    assert min(a_left.min(), a_right.min()) >= 0.0
    assert not np.any(np.signbit(a_left) | np.signbit(a_right))  # a zero coefficient is 0.0, not -0.0
    assert a_center.min() >= 0.5 - 1e-12  # CFL puts at least half the weight on the cell


def test_convex_coefficients_fall_back_to_the_flux_quotients(mesh_m1, burgers, rng):
    # without increments the coefficients are the recorded flux differences
    # over the state jumps; with a fixed ghost and random data no jump is
    # zero, so both ways agree up to the quotients' rounding
    outer = 0.3
    state = StateVector(values=rng.uniform(-1.0, 1.0, mesh_m1.n_cells), time=0.0, step_index=0)
    for kind in ALL_FLUXES:
        nf = numerical_flux(kind, burgers)
        _, report = step(state, mesh_m1, nf, max_timestep(mesh_m1, burgers, nf.lipschitz_bound),
                         outer_ghost=outer)
        exact = convex_coefficients(report, mesh_m1, nf)
        quotient = convex_coefficients(report, mesh_m1, dataclasses.replace(nf, increments=None))
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
    baseline, _ = step(state, mesh_m1, nf, tau)
    for ghost in (-1.0, 0.73, 1.0):
        altered, _ = step(state, mesh_m1, nf, tau, inner_ghost=ghost)
        assert np.array_equal(baseline.values, altered.values)


# --- bitwise replay of the update -------------------------------------------

# a flux that is not bundled: Rusanov's written with a division, and without increments
CUSTOM_RUSANOV = "fluxes = (f_left + f_right) / 2.0 - half_lam * (right - left)"


def replay_fluxes(m):
    return [numerical_flux(kind, m) for kind in ALL_FLUXES] + \
        [scheme.NumericalFlux("custom", m, CUSTOM_RUSANOV)]


@pytest.mark.parametrize("model_name", ["burgers", "quartic", "sextic"])
@pytest.mark.parametrize("mass", [0.0, 1.0])
def test_step_replays_the_reference_update_bitwise(request, model_name, mass):
    m = request.getfixturevalue(model_name)
    mesh = build_uniform_mesh(Background(mass), 2.0 * mass + 10.0, 40)
    values = np.random.default_rng(7).uniform(-1.0, 1.0, mesh.n_cells)
    values[[3, 11, 17]] = (1.0, -1.0, -0.0)
    for nf in replay_fluxes(m):
        for outer in (None, -0.3):
            seen = []
            result = run(mesh, nf, values, t_end=0.137, outer_ghost=outer,
                         on_step=lambda after, report: seen.append((after, report)))
            assert seen[-1][1].tau_used < result.tau_base  # the shortened last step is covered
            befores = [values] + [after.values for after, _ in seen[:-1]]
            for before, (after, report) in zip(befores, seen):
                states, fluxes, expected = reference_update(before, mesh, m, nf, report.tau_used, outer)
                assert after.values.tobytes() == expected.tobytes(), (nf.kind, after.step_index)
                assert report.fluxes.tobytes() == fluxes.tobytes(), (nf.kind, after.step_index)
                assert report.states.tobytes() == states.tobytes(), (nf.kind, after.step_index)
                assert not report.states.flags.writeable
            retained = [a for after, report in seen for a in (after.values, report.fluxes, report.states)]
            assert not any(np.shares_memory(a, b) for i, a in enumerate(retained)
                           for b in retained[i + 1:])
            state = result.snapshots[0]
            tau = seen[0][1].tau_used
            for ghost in (-1.0, 0.73):
                stepped, report = step(state, mesh, nf, tau, outer_ghost=outer, inner_ghost=ghost)
                states, fluxes, expected = reference_update(state.values, mesh, m, nf, tau, outer, ghost)
                assert stepped.values.tobytes() == expected.tobytes()
                assert report.fluxes.tobytes() == fluxes.tobytes()
                assert report.states.tobytes() == states.tobytes()


def test_step_refuses_the_bundled_shape_fluxes_for_a_model_without_the_shape():
    # the shape is required by the flux's kind, so binding the flux to the model refuses it, before
    # any step: built directly or by numerical_flux
    linear = polynomial_model("linear", [0.0, 1.0], [0.0])
    for kind in ("godunov", "eo"):
        for bind in (lambda: scheme.NumericalFlux(kind, linear, *scheme._FLUXES[kind]),
                     lambda: numerical_flux(kind, linear)):
            with pytest.raises(UnsupportedModelError, match=f"^{kind} flux needs"):
                bind()


GODUNOV, RUSANOV = (scheme._FLUXES[kind][0] for kind in ("godunov", "rusanov"))
STEP_FORMULAS = (*(formula for formula, _ in scheme._FLUXES.values()), CUSTOM_RUSANOV)


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
            scalars = {"zero": 0.0, "half": 0.5, "two": 2.0, "half_lam": 0.5 * m.flux_lipschitz, "f_zero": m.f(0.0)}
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
    before = step(state, mesh_m1, nf, tau)[0].values.tobytes()
    maxsize = cache.cache_info().maxsize
    assert maxsize is not None
    kernels = {cache((-0.5, 0.0, float(k)), (0.0,), RUSANOV, float(k)) for k in range(1, maxsize + 11)}
    assert len(kernels) == maxsize + 10
    assert cache.cache_info().currsize <= maxsize
    # a step through a fresh compile of the evicted key gives the same bits
    assert step(state, mesh_m1, nf, tau)[0].values.tobytes() == before


EDGE_GRID = [0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324, 1.0 - 2.0 ** -53, -(1.0 - 2.0 ** -53), 0.3, -0.7]
# every ordered pair of the grid appears as a face (state, next state) of this sequence
EDGE_STATES = np.array([x for u in EDGE_GRID for v in EDGE_GRID for x in (u, v)])


def _kernel_from_text(m, formula, lam):
    """_STEP with its formulas, f + h unfolded, run as plain numpy text, f and h the model's evaluators."""
    update = scheme._UPDATE.format(h_v=" + h(v)")
    body = "\n".join(" " * 4 + line for line in f"f_s[...] = f(s)\n{formula}\n{update}".splitlines())
    names = {"np": np, "where": np.where, "f": model._evaluator(m.f_poly), "h": model._evaluator(m.h_poly),
             "half_lam": 0.5 * lam, "f_zero": model._evaluator(m.f_poly)(0.0)}
    return model._closure(scheme._STEP.format(body=body), {}, names)


def test_lowered_step_equals_its_formulas_run_in_numpy_bitwise(burgers, quartic, sextic, shifted,
                                                               rounding_quartic, rng):
    s = EDGE_STATES
    n = s.size - 2
    factors = [rng.uniform(0.0, 2.0, size) for size in (n + 1, n, n, n)]
    factors[1][::7] = 0.0
    for m in (burgers, quartic, sextic, shifted, rounding_quartic):
        for formula in STEP_FORMULAS:
            results = []
            for kernel in (scheme._step_kernel(m.f_poly, m.h_poly, formula, m.flux_lipschitz),
                           _kernel_from_text(m, formula, m.flux_lipschitz)):
                v_new, f_s, a, b = (np.full(size, np.nan) for size in (n, n + 2, n + 1, n + 1))
                results.append((kernel(s, v_new, f_s, a, b, *factors), v_new))
            lowered, plain = results
            for got, expected in zip(lowered, plain):
                assert got.shape == expected.shape and got.tobytes() == expected.tobytes(), (m.name, formula)


def test_step_face_fluxes_equal_the_bundled_fluxes_at_edge_values(burgers, quartic, sextic, shifted,
                                                                  rounding_quartic):
    # +/-0.0, +/-1, the smallest subnormal and the floats next to +/-1 as the left and right state of a
    # face, so a slip in the sign of a zero or in a 0-d constant shows in the bits
    for mass in (0.0, 1.0):
        mesh = build_uniform_mesh(Background(mass), 2.0 * mass + 10.0, EDGE_STATES.size)
        state = StateVector(values=EDGE_STATES, time=0.0, step_index=0)
        for m in (burgers, quartic, sextic, shifted, rounding_quartic):
            for kind in ALL_FLUXES:
                nf = numerical_flux(kind, m)
                tau = 0.5 * max_timestep(mesh, m, nf.lipschitz_bound)
                for ghost in EDGE_GRID:
                    after, report = step(state, mesh, nf, tau, inner_ghost=ghost)
                    states, fluxes, expected = reference_update(EDGE_STATES, mesh, m, nf, tau, inner_ghost=ghost)
                    left, right = report.states[:-1], report.states[1:]
                    assert report.fluxes.tobytes() == np.asarray(nf.evaluate(m, left, right)).tobytes(), (m.name, kind)
                    assert after.values.tobytes() == expected.tobytes(), (m.name, kind, ghost)


def test_step_kernel_allocates_only_its_buffers_and_fluxes(monkeypatch, burgers, shifted):
    # f_s, the face scratch a and b and v_new are the caller's buffers; for Godunov the fluxes are
    # where's result and its mask
    for m in (burgers, shifted):
        for formula in STEP_FORMULAS:
            sources = []
            monkeypatch.setattr(scheme, "_closure",
                                lambda source, *args: sources.append(source) or model._closure(source, *args))
            scheme._step_kernel.__wrapped__(m.f_poly, m.h_poly, formula, m.flux_lipschitz)
            (source,) = sources
            names, masks = allocations(ast.parse(source))
            assert names == ["fluxes"], (m.name, formula)
            assert masks == (formula == GODUNOV), (m.name, formula)


@pytest.mark.parametrize("ghost", [math.nan, math.inf, -math.inf, 5.0, -1.0 - 2.0 ** -52, 1.0 + 2.0 ** -52])
def test_step_refuses_an_inner_ghost_outside_the_state_interval(mesh_m1, mesh_flat, burgers, ghost):
    nf = numerical_flux("godunov", burgers)
    for mesh in (mesh_m1, mesh_flat):
        state = StateVector(values=np.linspace(-0.5, 0.5, mesh.n_cells), time=0.0, step_index=0)
        tau = 0.5 * max_timestep(mesh, burgers, nf.lipschitz_bound)
        with pytest.raises(DomainError, match="^inner_ghost"):
            step(state, mesh, nf, tau, inner_ghost=ghost)
        stalled = dataclasses.replace(nf, model=dataclasses.replace(burgers, flux_lipschitz=0.0))
        for flux, t in ((nf, -tau), (stalled, tau)):
            with pytest.raises(DomainError, match="^inner_ghost"):  # before any other check
                step(state, mesh, flux, t, inner_ghost=ghost)


@pytest.mark.parametrize("kind, formula", [
    ("custom", "fluxes = f_zero * half_lam"),  # reads no face state: one float, not one per face
    ("custom", "fluxes = f_v"),  # a kernel name, one per cell
    ("custom", "fluxes = np.abs(left)"),
    ("custom", "flux = left"),
    ("custom", "half_lam * (right - left)"),
    ("not a name", CUSTOM_RUSANOV),
])
def test_numerical_flux_refuses_a_formula_that_is_not_one_flux_per_face(burgers, kind, formula):
    with pytest.raises(ContractError, match=f"^flux '{kind}': the kind must be a name"):
        scheme.NumericalFlux(kind, burgers, formula)


UNWRITTEN = "not + - * /, maximum, minimum, where, f or (0.0, 0.5, 1.0, 2.0)"


@pytest.mark.parametrize("formula, construct, why", [
    ("fluxes = -left * half_lam", "-left", UNWRITTEN),
    ("fluxes = left ** 2", "left ** 2", UNWRITTEN),
    ("fluxes = 0.3 * (f_left + f_right)", "0.3", UNWRITTEN),
    ("fluxes = (left + right) * where(left <= right, left, right)", "where(left <= right, left, right)",
     "where is only the value of x = ..."),
    ("fluxes = (left - right) * ((left - right) * ((left - right) * (right - left)))", "right - left",
     "it needs more than ['a', 'b']"),
    ("fluxes = left\nfluxes += right", "fluxes += right", "a statement is one x = e"),
])
def test_numerical_flux_refuses_a_formula_the_step_cannot_write(burgers, formula, construct, why):
    # each reads only admitted names, so it is the lowering that names what it cannot write
    with pytest.raises(ContractError, match=f"^flux 'custom': cannot write {re.escape(repr(construct))}: "
                                            f"{re.escape(why)}"):
        scheme.NumericalFlux("custom", burgers, formula)


@pytest.mark.parametrize("kind, formula", [
    ("two", "fluxes = left\nfluxes = right"),  # a bare IndentationError from the function's text before
    ("selfread", "fluxes = left + 0.0 * fluxes"),  # accepted before, and evaluate raised UnboundLocalError
])
def test_numerical_flux_refuses_a_formula_that_is_not_one_assignment_of_fluxes(burgers, kind, formula):
    with pytest.raises(ContractError, match=f"^flux '{kind}': {re.escape(repr(formula))} must be one statement "
                                            "fluxes = ... that reads no fluxes$"):
        scheme.NumericalFlux(kind, burgers, formula)


def test_numerical_flux_refuses_an_evaluate_that_is_not_its_formulas(burgers):
    nf, flux_rusanov = numerical_flux("rusanov", burgers), scheme._numpy_flux("rusanov", scheme._FLUXES["rusanov"][0])
    for evaluate in (numerical_flux("godunov", burgers).evaluate, lambda m, u, v: nf.evaluate(m, u, v), scheme._numpy_flux("custom", nf.formula)):
        with pytest.raises(ContractError, match="^flux 'rusanov': evaluate is not the function of its formula$"):
            dataclasses.replace(nf, evaluate=evaluate)
    assert dataclasses.replace(nf, evaluate=flux_rusanov).evaluate is flux_rusanov is nf.evaluate
    assert dataclasses.replace(nf, increments=None).evaluate is flux_rusanov


# --- time loops --------------------------------------------------------------

def test_run_checks_every_tau_against_its_one_bound(mesh_m1, burgers, monkeypatch):
    # the bound is derived once per run and every tau is checked where its
    # step factors are built, so a fraction above 1 is refused before the
    # first step even when t_end is shorter than that step
    bound = scheme.max_timestep
    calls = []
    monkeypatch.setattr(scheme, "max_timestep", lambda *args: calls.append(args) or bound(*args))
    nf = numerical_flux("godunov", burgers)
    result = run(mesh_m1, nf, averages(mesh_m1, lambda r: 0.5 * np.cos(r)), t_end=0.37)
    assert len(calls) == 1 and result.steps > 1 and result.final.time == 0.37
    tau_bound = bound(mesh_m1, burgers, nf.lipschitz_bound)
    observed = []
    with pytest.raises(CflError):
        run(mesh_m1, nf, np.zeros(mesh_m1.n_cells), t_end=0.5 * tau_bound,
            cfl_fraction=1.5, on_step=lambda *args: observed.append(args))
    assert not observed
    with pytest.raises(CflError):
        scheme._step_factors(mesh_m1, 1.5 * tau_bound, tau_bound)


def test_run_lands_exactly_and_bounds(mesh_m1, burgers):
    nf = numerical_flux("godunov", burgers)
    result = run(mesh_m1, nf, np.zeros(mesh_m1.n_cells), t_end=0.5)
    assert result.final.time == 0.5
    assert np.max(np.abs(result.final.values)) <= 1.0
    assert result.snapshots[0].time == 0.0
    assert result.snapshots[-1] is result.final


def test_run_fixed_point(mesh_m1, burgers):
    nf = numerical_flux("eo", burgers)
    result = run(mesh_m1, nf, averages(mesh_m1, lambda r: np.ones_like(r)), t_end=1.0)
    assert np.array_equal(result.final.values, np.ones(mesh_m1.n_cells))


def test_step_and_run_build_no_convex_coefficients(mesh_m1, burgers, rng, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the hot path rebuilt the convex coefficients")

    monkeypatch.setattr(scheme, "convex_coefficients", forbidden)
    nf = numerical_flux("godunov", burgers)
    tau = 0.9 * max_timestep(mesh_m1, burgers, nf.lipschitz_bound)
    state = StateVector(values=rng.uniform(-1.0, 1.0, mesh_m1.n_cells), time=0.0, step_index=0)
    new_state, report = step(state, mesh_m1, nf, tau)
    assert new_state.step_index == 1
    assert report.tau_used == tau and report.fluxes.size == mesh_m1.n_cells + 1
    result = scheme.run(mesh_m1, nf, averages(mesh_m1, lambda r: np.sin(r)), t_end=0.3,
                        outer_ghost=-0.2)
    assert result.final.time == 0.3


def test_run_on_step_sees_every_step_once(mesh_m1, burgers):
    nf = numerical_flux("eo", burgers)
    seen = []

    def observe(state_after, report):
        seen.append((state_after.step_index, report, report.tau_used, state_after))

    t_end = 0.37
    result = run(mesh_m1, nf, averages(mesh_m1, lambda r: 0.6 * np.cos(r)), t_end=t_end,
                 snapshot_every=4, on_step=observe)
    assert [entry[0] for entry in seen] == list(range(1, result.steps + 1))
    assert all(entry[1].tau_used == entry[2] for entry in seen)
    assert all(entry[2] == result.tau_base for entry in seen[:-1])
    last_tau = seen[-1][2]
    assert 0.0 < last_tau < result.tau_base  # the shortened last step is observed
    assert seen[-2][3].time + last_tau == pytest.approx(t_end, abs=1e-15)
    # each step's report holds the state before it bitwise, and that state,
    # stepped again by hand, gives the state observed after it
    befores = [result.snapshots[0]] + [entry[3] for entry in seen[:-1]]
    for before, (_, report, tau, after) in zip(befores, seen):
        assert report.states[1:-1].tobytes() == before.values.tobytes()
        replay, replay_report = step(before, mesh_m1, nf, tau)
        assert np.array_equal(replay.values, after.values)
        assert np.array_equal(replay_report.fluxes, report.fluxes)
        assert after.step_index == before.step_index + 1
    assert np.array_equal(seen[-1][3].values, result.final.values)


@pytest.mark.parametrize("mass", [0.0, 1.0])
@pytest.mark.parametrize("outer", [None, -0.3], ids=["copy", "fixed"])
@pytest.mark.parametrize("snapshot_every", [1, 10 ** 6])
def test_run_equals_its_observed_self_and_chained_steps_bitwise(burgers, mass, outer, snapshot_every):
    # the three bundled fluxes and a custom one; t_end is not a whole number of base steps, so the
    # last step is shortened
    mesh = build_uniform_mesh(Background(mass), 2.0 * mass + 10.0, 40)
    v0 = lambda r: 0.7 * np.sin(r)
    for nf in replay_fluxes(burgers):
        t_end = 7.3 * 0.9 * max_timestep(mesh, burgers, nf.lipschitz_bound)
        plain, observed = (run(mesh, nf, averages(mesh, v0), t_end=t_end, snapshot_every=snapshot_every,
                               outer_ghost=outer, on_step=on_step) for on_step in (None, lambda *args: None))
        chained, taus = [plain.snapshots[0]], []
        while len(chained) <= plain.steps:
            taus.append(min(plain.tau_base, t_end - chained[-1].time))
            chained.append(step(chained[-1], mesh, nf, taus[-1], outer_ghost=outer)[0])
        assert plain.steps == 8 and 0.0 < taus[-1] < plain.tau_base, nf.kind
        indices = [0, *range(snapshot_every, plain.steps, snapshot_every), plain.steps]
        for result in (plain, observed):
            assert result.steps == plain.steps and result.final is result.snapshots[-1]
            assert [snap.step_index for snap in result.snapshots] == indices
            for snap in result.snapshots:
                assert snap.values.tobytes() == chained[snap.step_index].values.tobytes(), nf.kind
                assert snap.time == (t_end if snap is result.final else chained[snap.step_index].time)


def test_run_snapshots_are_owned_read_only_and_share_no_memory(mesh_m1, burgers):
    nf = numerical_flux("godunov", burgers)
    for on_step in (None, lambda *args: None):
        first = run(mesh_m1, nf, averages(mesh_m1, lambda r: 0.5 * np.cos(r)), t_end=0.3,
                    snapshot_every=1, on_step=on_step)
        arrays = [snap.values for snap in first.snapshots]
        assert len(arrays) == first.steps + 1 and first.final is first.snapshots[-1]
        assert all(a.flags.owndata and not a.flags.writeable for a in arrays)
        assert not any(np.shares_memory(a, b) for i, a in enumerate(arrays) for b in arrays[i + 1:])
        kept = [a.tobytes() for a in arrays]
        run(mesh_m1, nf, averages(mesh_m1, lambda r: -0.5 * np.cos(r)), t_end=0.3, snapshot_every=1,
            on_step=on_step)
        assert [snap.values.tobytes() for snap in first.snapshots] == kept


def test_run_takes_each_step_through_the_step_binding(monkeypatch, mesh_m1, burgers):
    # the benchmark's tracer spans scheme.step through this module binding and counts the cells of
    # the state it is given, so run's loop must call it once per step with the mesh's cells
    cells, take = [], scheme.step

    def counted(state, *args, **kwargs):
        cells.append(state.values.size)
        return take(state, *args, **kwargs)

    monkeypatch.setattr(scheme, "step", counted)
    for on_step in (None, lambda *args: None):
        cells.clear()
        result = run(mesh_m1, numerical_flux("godunov", burgers),
                     averages(mesh_m1, lambda r: 0.5 * np.cos(r)), t_end=0.3, on_step=on_step)
        assert cells == [mesh_m1.n_cells] * result.steps


def test_run_reports_own_a_custom_fluxs_values(mesh_m1, burgers):
    # this formula's fluxes are the left states themselves, a view of the loop's buffer, which the
    # next step overwrites: each report keeps its own copy
    nf = scheme.NumericalFlux("left", burgers, "fluxes = left")
    reports = []
    run(mesh_m1, nf, averages(mesh_m1, lambda r: 0.3 * np.cos(r)), t_end=0.3,
        on_step=lambda after, report: reports.append(report))
    assert len(reports) > 2 and reports[0].fluxes.tobytes() != reports[-1].fluxes.tobytes()
    for report in reports:
        assert report.fluxes.flags.owndata and not report.fluxes.flags.writeable
        assert report.fluxes.tobytes() == report.states[:-1].tobytes()


@pytest.mark.parametrize("inputs, error, name", [
    ({"values": np.full(50, 1.5)}, DomainError, "values"),
    ({"values": np.full(50, np.nan)}, DomainError, "values"),
    ({"values": np.zeros(49)}, ContractError, "values"),
    ({"values": np.zeros((50, 1))}, ContractError, "values"),
    ({"values": np.zeros(50), "snapshot_every": 2.5}, DomainError, "snapshot_every"),
    ({"values": np.zeros(50), "snapshot_every": 0}, DomainError, "snapshot_every"),
])
def test_run_refuses_bad_inputs_before_the_first_step(mesh_m1, burgers, inputs, error, name):
    observed = []
    with pytest.raises(error, match=f"^{name}"):
        run(mesh_m1, numerical_flux("godunov", burgers), t_end=0.1,
            on_step=lambda *args: observed.append(args), **inputs)
    assert not observed


def test_step_refuses_a_state_whose_cell_count_is_not_the_meshs(mesh_m1, burgers):
    nf = numerical_flux("godunov", burgers)
    tau = 0.5 * max_timestep(mesh_m1, burgers, nf.lipschitz_bound)
    for cells in (49, 51):
        with pytest.raises(ContractError, match=f"^state has {cells} cells, mesh has 50$"):
            step(StateVector(values=np.zeros(cells), time=0.0, step_index=0), mesh_m1, nf, tau)

@pytest.mark.parametrize("ghost", [5.0, -1.5, math.nan, math.inf])
def test_step_and_run_refuse_an_outer_ghost_outside_the_state_interval(mesh_m1, burgers, ghost):
    nf = numerical_flux("godunov", burgers)
    state = StateVector(values=np.zeros(mesh_m1.n_cells), time=0.0, step_index=0)
    tau = 0.5 * max_timestep(mesh_m1, burgers, nf.lipschitz_bound)
    # a model whose bound is 0, which max_timestep refuses
    stalled = dataclasses.replace(nf, model=dataclasses.replace(burgers, flux_lipschitz=0.0))
    for flux, t in ((nf, tau), (nf, -tau), (stalled, tau)):  # the ghost is refused before any other check
        with pytest.raises(DomainError, match=rf"^outer_ghost {ghost} outside \[-1, 1\]$"):
            step(state, mesh_m1, flux, t, outer_ghost=ghost)
    observed = []
    with pytest.raises(DomainError, match="^outer_ghost"):
        run(mesh_m1, nf, state.values, t_end=0.1, outer_ghost=ghost,
            on_step=lambda *args: observed.append(args))
    assert not observed


def test_run_snapshot_cadence(mesh_m1, burgers):
    nf = numerical_flux("godunov", burgers)
    result = run(mesh_m1, nf, np.zeros(mesh_m1.n_cells), t_end=1.0,
                 snapshot_every=3)
    indices = [s.step_index for s in result.snapshots]
    assert indices[0] == 0
    assert all(i % 3 == 0 for i in indices[1:-1])
    assert indices[-1] == result.steps
    numpy_int = run(mesh_m1, nf, np.zeros(mesh_m1.n_cells), t_end=1.0, snapshot_every=np.int64(3))
    assert [s.step_index for s in numpy_int.snapshots] == indices  # a numpy integer is an integer


def test_run_clamps_overshooting_data(mesh_m1, burgers):
    # the clamping is project_initial's; run takes the clamped averages
    values, clamped = project_initial(mesh_m1, lambda r: 1.2 * np.sin(r))
    result = run(mesh_m1, numerical_flux("godunov", burgers), values, t_end=0.01)
    assert clamped > 0
    assert np.max(np.abs(result.snapshots[0].values)) <= 1.0


def test_riemann_stationary_shock_flat(burgers):
    # equal-area data (1, -1): interface flux equals the boundary flux value,
    # so the exact solution is a standing shock and godunov preserves it
    mesh = build_uniform_mesh(Background(0.0), 10.0, 40)
    nf = numerical_flux("godunov", burgers)
    v0 = lambda r: np.where(r < 5.0, 1.0, -1.0)
    result = run(mesh, nf, averages(mesh, v0), t_end=0.25)
    assert np.array_equal(result.final.values, result.snapshots[0].values)
    assert set(np.unique(result.final.values)) == {-1.0, 1.0}


def test_fixed_outer_boundary(mesh_m1, burgers):
    nf = numerical_flux("godunov", burgers)
    result = run(mesh_m1, nf, np.zeros(mesh_m1.n_cells), t_end=0.3, outer_ghost=0.25)
    assert np.max(np.abs(result.final.values)) <= 1.0
    # the face states end in the fixed ghost, or in a copy of the outermost cell for None
    state = StateVector(values=np.full(mesh_m1.n_cells, 0.5), time=0.0, step_index=0)
    tau = 0.5 * max_timestep(mesh_m1, burgers, nf.lipschitz_bound)
    assert [step(state, mesh_m1, nf, tau, outer_ghost=ghost)[1].states[-1] for ghost in (-1.0, None)] \
        == [-1.0, 0.5]


def test_run_parameter_validation(mesh_m1, burgers):
    nf = numerical_flux("godunov", burgers)
    with pytest.raises(DomainError):
        run(mesh_m1, nf, np.zeros(mesh_m1.n_cells), t_end=0.0)
    with pytest.raises(DomainError):
        run(mesh_m1, nf, np.zeros(mesh_m1.n_cells), t_end=1.0, cfl_fraction=1.5)


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
            run(mesh_m1, nf, np.zeros(mesh_m1.n_cells), t_end=t_end)
    assert not calls


def test_projection_averages_within_bounds(mesh_m1, rng):
    values, clamped = project_initial(mesh_m1, lambda r: np.sin(3 * r))
    assert clamped == 0
    assert np.max(np.abs(values)) <= 1.0
    # quadrature of a constant reproduces it to round-off
    const, _ = project_initial(mesh_m1, lambda r: np.full_like(r, 0.4))
    assert np.max(np.abs(const - 0.4)) <= 1e-15


# --- a flux carries its model -------------------------------------------------

def test_run_takes_its_cfl_bound_from_the_model_its_flux_carries():
    # the sextic f = s**6/2 - 1/2 has sup |f'| = 3, three times Burgers': at Burgers' bound these data
    # take 25 steps, and Rusanov's flux gives a convex coefficient of -0.107
    sextic = polynomial_model("sextic", [-0.5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.5], [0.0])
    mesh = build_uniform_mesh(Background(0.0), 10.0, 200)
    values = np.where(np.arange(mesh.n_cells) % 2 == 0, 0.99, -0.99)
    for kind in ALL_FLUXES:
        nf = numerical_flux(kind, sextic)
        assert nf.model is sextic and nf.lipschitz_bound == sextic.flux_lipschitz == 3.0
        smallest = []

        def record(after, report):
            smallest.append(min(a.min() for a in convex_coefficients(report, mesh, nf)))

        result = run(mesh, nf, values, t_end=0.3, cfl_fraction=1.0, on_step=record)
        assert result.steps == len(smallest) == 73, kind
        assert min(smallest) >= 0.0, kind


def _parameter_types(fn) -> set:
    """The classes fn's parameters are annotated with, Optional unwrapped; empty for no signature."""
    try:
        parameters = inspect.signature(fn, eval_str=True).parameters.values()
    except ValueError:  # a builtin type such as the package's exceptions
        return set()
    return {t for p in parameters for t in (p.annotation, *typing.get_args(p.annotation)) if isinstance(t, type)}


def test_no_public_callable_takes_a_model_beside_a_flux():
    # a flux carries its model, so a second, independently passed model could only disagree with it
    pair, seen, both = {FluxModel, scheme.NumericalFlux}, set(), []
    for module in (horizonfv, scheme, entropy):
        for name, obj in vars(module).items():
            if not name.startswith("_") and callable(obj) and getattr(obj, "__module__", "").startswith("horizonfv"):
                types = _parameter_types(obj)
                seen |= types & pair
                if pair <= types:
                    both.append(name)
    assert seen == pair  # the annotations resolve, so the check is live
    assert both == []
    assert "lipschitz_bound" not in {field.name for field in dataclasses.fields(scheme.NumericalFlux)}


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
        state, _ = step(state, mesh, nf, tau)
        mirror = plain_conservative_step(mirror, mesh.widths[0], tau, burgers, nf)
        assert np.array_equal(state.values, mirror)
