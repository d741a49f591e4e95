import numpy as np
import pytest

from horizonfv import scheme
from horizonfv import (
    Background,
    CflError,
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
    poisoned = type(burgers)(
        name="poisoned",
        f=lambda s: np.where(np.abs(s) < 0.05, np.nan, 0.5 * s * s - 0.5),
        df=burgers.df, h=burgers.h, dh=burgers.dh)
    nf = numerical_flux("rusanov", poisoned)
    state = StateVector(values=np.zeros(mesh_m1.n_cells), time=0.0, step_index=0)
    with pytest.raises(NumericsError):
        step(state, mesh_m1, poisoned, nf, 1e-3)


def test_state_vector_rejects_out_of_range():
    with pytest.raises(NumericsError):
        StateVector(values=np.array([0.0, 1.0 + 1e-12]), time=0.0, step_index=0)


def test_convex_coefficients_reconstruction(mesh_m1, burgers, rng):
    nf = numerical_flux("godunov", burgers)
    tau = 0.9 * max_timestep(mesh_m1, burgers, nf.lipschitz_bound)
    values = rng.uniform(-1.0, 1.0, mesh_m1.n_cells)
    state = StateVector(values=values, time=0.0, step_index=0)
    _, report = step(state, mesh_m1, burgers, nf, tau)
    a_center, a_left, a_right = convex_coefficients(state, report, mesh_m1, burgers)
    assert np.max(np.abs(a_center + a_left + a_right - 1.0)) <= 1e-12
    assert min(a_left.min(), a_right.min()) >= -1e-10
    assert a_center.min() >= 0.5 - 1e-12  # CFL puts at least half the weight on the cell


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


# --- time loops --------------------------------------------------------------

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

    monkeypatch.setattr(scheme, "_coefficient_triples", forbidden)
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

    def observe(steps, state_before, report, tau):
        seen.append((steps, state_before, report, tau))

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
    for (_, before, report, tau), (_, after, _, _) in zip(seen, seen[1:]):
        replay, replay_report = step(before, mesh_m1, burgers, nf, tau)
        assert np.array_equal(replay.values, after.values)
        assert np.array_equal(replay_report.fluxes, report.fluxes)
        assert after.step_index == before.step_index + 1
    final_replay, _ = step(seen[-1][1], mesh_m1, burgers, nf, last_tau)
    assert np.array_equal(final_replay.values, result.final.values)


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
