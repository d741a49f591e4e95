import dataclasses

import numpy as np
import pytest

from horizonfv import (
    DEFAULT_KRUZHKOV_LEVELS,
    Background,
    ContractError,
    DomainError,
    StateVector,
    build_uniform_mesh,
    cell_entropy_residuals,
    convex_decomposition_check,
    max_timestep,
    numerical_entropy_flux,
    numerical_flux,
    step,
)
from horizonfv.entropy import _quadratic_flux, face_reconstruction
from horizonfv.harness import ENTROPY_RESIDUAL_TOL
from horizonfv.scheme import convex_coefficients
from kruzhkov import kruzhkov_pair

LEVELS = (-0.75, -0.25, 0.0, 0.25, 0.75)


def test_numerical_entropy_flux_consistency(burgers):
    nf = numerical_flux("godunov", burgers)
    for k in LEVELS:
        pair = kruzhkov_pair(burgers, k)
        for w in (-0.9, -0.3, 0.0, 0.5, 0.8):
            got = numerical_entropy_flux(nf, k, w, w)
            assert got == pytest.approx(pair.F(w), abs=1e-14)
    # the worked value: w=0.5, k=0 gives f(0.5) - f(0) = 0.125
    assert numerical_entropy_flux(nf, 0.0, 0.5, 0.5) == pytest.approx(0.125, abs=1e-15)


def test_numerical_entropy_flux_degenerate_levels(burgers, rng):
    nf = numerical_flux("eo", burgers)
    u = rng.uniform(-1, 1, 20)
    v = rng.uniform(-1, 1, 20)
    plain = nf.evaluate(burgers, u, v)
    low = numerical_entropy_flux(nf, -1.0, u, v)
    high = numerical_entropy_flux(nf, 1.0, u, v)
    assert np.allclose(low, plain - burgers.f(-1.0), atol=1e-15)
    assert np.allclose(high, burgers.f(1.0) - plain, atol=1e-15)


def test_numerical_entropy_flux_single_valued_per_face(burgers, rng):
    # conservation: the construction is one evaluation per face, so the value
    # a cell sees at its right face equals what the neighbor sees at its left
    nf = numerical_flux("godunov", burgers)
    u, v = rng.uniform(-1, 1, 2)
    assert numerical_entropy_flux(nf, 0.25, u, v) == numerical_entropy_flux(
        nf, 0.25, u, v)


def _one_step(mesh, m, kind, values, cfl=0.9):
    nf = numerical_flux(kind, m)
    tau = cfl * max_timestep(mesh, m, nf.lipschitz_bound)
    state = StateVector(values=values, time=0.0, step_index=0)
    new_state, report = step(state, mesh, nf, tau)
    return state, new_state, report, nf, tau


def brute_force_transport_residuals(values, mesh, m, nf, fluxes, tau, k):
    """Scalar-loop recomputation of the per-face entropy residuals."""
    pair = kruzhkov_pair(m, k)

    def phi(a, b):
        return (nf.evaluate(m, max(a, k), max(b, k))
                - nf.evaluate(m, min(a, k), min(b, k)))

    n = values.size
    out = np.empty((n, 2))
    for i in range(n):
        v = values[i]
        left_state = values[i - 1] if i > 0 else values[0]
        right_state = values[i + 1] if i < n - 1 else values[-1]
        a_l = mesh.face_weights[i]
        a_r = mesh.face_weights[i + 1]
        dr = mesh.widths[i]
        fc = m.f(v)
        tilde_r = v - 2 * tau * a_r / dr * (fluxes[i + 1] - fc)
        tilde_l = v + 2 * tau * a_l / dr * (fluxes[i] - fc)
        cons = phi(v, v)
        out[i, 0] = pair.U(tilde_l) - pair.U(v) - 2 * tau * a_l / dr * (phi(left_state, v) - cons)
        out[i, 1] = pair.U(tilde_r) - pair.U(v) + 2 * tau * a_r / dr * (phi(v, right_state) - cons)
    return out.max(axis=1)


def reference_ledger(state_before, report, mesh, m, nf, k, tau, outer_ghost=None, inner_ghost=None):
    """One Kruzhkov level at a time, written out with the Kruzhkov pair and
    U = v**2/2: the reference the all-levels ledger must reproduce bit for
    bit.  Returns (per-cell residuals, worst, balance gap, dissipation,
    balance scale)."""
    v = state_before.values
    inner = v[0] if inner_ghost is None else inner_ghost
    outer = v[-1] if outer_ghost is None else outer_ghost
    pair = kruzhkov_pair(m, k)
    tilde_l, tilde_r, full_l, full_r, _, _ = face_reconstruction(report, mesh, m)
    a_l = mesh.face_weights[:-1]
    a_r = mesh.face_weights[1:]
    gamma_l = 2.0 * tau * a_l / mesh.widths
    gamma_r = 2.0 * tau * a_r / mesh.widths
    left = np.concatenate(([inner], v))
    right = np.concatenate((v, [outer]))
    phi_faces = numerical_entropy_flux(nf, k, left, right)
    phi_cons = numerical_entropy_flux(nf, k, v, v)
    u_before = pair.U(v)
    res_r = pair.U(tilde_r) - u_before + gamma_r * (phi_faces[1:] - phi_cons)
    res_l = pair.U(tilde_l) - u_before - gamma_l * (phi_faces[:-1] - phi_cons)
    per_cell = np.maximum(res_l, res_r)

    def quad_u(w):
        return 0.5 * np.square(w)

    w_face = 0.5 * mesh.widths
    uq_before = quad_u(v)
    v_next = 0.5 * (full_r + full_l)
    dev_sq = np.square(full_r - v_next) + np.square(full_l - v_next)
    dissipation = float(0.5 * 1.0 * np.sum(w_face * dev_sq))
    r_terms = quad_u(full_r) - quad_u(tilde_r) + quad_u(full_l) - quad_u(tilde_l)
    fq = _quadratic_flux(m)(v)
    core = (float(np.sum(mesh.widths * (quad_u(v_next) - uq_before))) + dissipation
            - float(np.sum(w_face * r_terms)) - tau * float(np.sum((a_r - a_l) * fq)))
    scale = 1.0 + float(np.sum(mesh.widths * np.abs(uq_before))) + dissipation \
        + float(np.sum(w_face * np.abs(r_terms)))
    closes = outer == v[-1] and (inner == v[0] or mesh.face_weights[0] == 0.0)
    gap = core + (tau * float(mesh.face_weights[-1]) * float(fq[-1])
                  - tau * float(mesh.face_weights[0]) * float(fq[0])) if closes else float("nan")
    return per_cell, float(np.max(per_cell)), gap, dissipation, scale


@pytest.mark.parametrize("kind", ("godunov", "eo", "rusanov"))
@pytest.mark.parametrize("outer", (None, -0.3), ids=("copy", "fixed"))
@pytest.mark.parametrize("mass", (0.0, 1.0))
def test_all_levels_ledger_matches_per_level_reference(burgers, rng, kind, outer, mass):
    mesh = build_uniform_mesh(Background(mass), 2 * mass + 10.0, 60)
    nf = numerical_flux(kind, burgers)
    tau = 0.9 * max_timestep(mesh, burgers, nf.lipschitz_bound)
    state = StateVector(values=rng.uniform(-1, 1, mesh.n_cells), time=0.0, step_index=0)
    new_state, report = step(state, mesh, nf, tau, outer_ghost=outer)
    ledger = cell_entropy_residuals(new_state, report, mesh, nf, DEFAULT_KRUZHKOV_LEVELS)
    assert ledger.levels.tolist() == list(DEFAULT_KRUZHKOV_LEVELS)
    for j, k in enumerate(DEFAULT_KRUZHKOV_LEVELS):
        per_cell, worst, gap, dissipation, scale = reference_ledger(
            state, report, mesh, burgers, nf, k, tau, outer_ghost=outer)
        assert np.array_equal(ledger.per_cell_residuals[j], per_cell)
        assert ledger.worst_residuals[j] == worst
        assert np.array_equal([ledger.global_balance_gap, ledger.dissipation_sum, ledger.balance_scale],
                              [gap, dissipation, scale], equal_nan=True)
    # the certificate's convex decomposition: its coefficients, exact or
    # from the flux quotients, and its defect, bit for bit
    _, _, full_l, full_r, _, _ = face_reconstruction(report, mesh, burgers)
    defect = float(np.max(np.abs(new_state.values - (full_l + full_r) / 2)))
    assert ledger.decomposition_defect.hex() == defect.hex()
    for flux in (nf, dataclasses.replace(nf, increments=None)):
        certified = cell_entropy_residuals(new_state, report, mesh, flux, (0.0,))
        coefficients = convex_coefficients(report, mesh, flux)
        assert certified.min_convex_coeff.hex() == float(min(a.min() for a in coefficients)).hex()
    if outer is not None:
        # v_N equal to the fixed ghost: the outer face reads (v_N, v_N) as
        # under the copy ghost, so the whole ledger is the copy ghost's
        values = state.values.copy()
        values[-1] = outer
        pinned = StateVector(values=values, time=0.0, step_index=0)
        fixed, copy = (ledger_hex(cell_entropy_residuals(
            *step(pinned, mesh, nf, tau, outer_ghost=ghost), mesh, nf, LEVELS))
            for ghost in (outer, None))
        assert "nan" not in fixed["global_balance_gap"]
        assert fixed == copy


def ledger_hex(ledger):
    """Every ledger field as float.hex strings, so NaN compares equal to NaN."""
    return {field.name: [float(x).hex() for x in np.ravel(getattr(ledger, field.name))]
            for field in dataclasses.fields(ledger)}


@pytest.mark.parametrize("kind", ("godunov", "eo", "rusanov"))
def test_inner_ghost_leaves_the_balance_open_only_off_the_horizon(burgers, rng, kind):
    nf = numerical_flux(kind, burgers)
    for mass in (0.0, 1.0):
        mesh = build_uniform_mesh(Background(mass), 2 * mass + 10.0, 40)
        tau = 0.9 * max_timestep(mesh, burgers, nf.lipschitz_bound)
        values = rng.uniform(-1, 1, mesh.n_cells)
        values[0] = 0.5
        state = StateVector(values=values, time=0.0, step_index=0)
        ledgers = [cell_entropy_residuals(*step(state, mesh, nf, tau, inner_ghost=ghost),
                                          mesh, nf, LEVELS) for ghost in (None, -0.5)]
        assert ledgers[1].worst_residuals.max() <= ENTROPY_RESIDUAL_TOL
        if mass == 0.0:
            # the inner face's entropy flux is no longer tau a F(v_0)
            assert np.isnan(ledgers[1].global_balance_gap)
            assert np.isfinite(ledgers[0].global_balance_gap)
        else:
            # the horizon face weight is 0, so the ghost changes nothing
            assert ledger_hex(ledgers[1]) == ledger_hex(ledgers[0])


def test_ledger_rejects_levels_outside_the_state_interval(mesh_m1, burgers):
    state, new_state, report, nf, tau = _one_step(mesh_m1, burgers, "godunov", np.zeros(mesh_m1.n_cells))
    with pytest.raises(DomainError):
        cell_entropy_residuals(new_state, report, mesh_m1, nf, (0.0, 1.5))


@pytest.mark.parametrize("kind", ("godunov", "eo", "rusanov"))
def test_residuals_match_brute_force(mesh_m1, burgers, rng, kind):
    values = rng.uniform(-1, 1, mesh_m1.n_cells)
    state, new_state, report, nf, tau = _one_step(mesh_m1, burgers, kind, values)
    levels = (-0.25, 0.0, 0.75)
    ledger = cell_entropy_residuals(new_state, report, mesh_m1, nf, levels)
    for j, k in enumerate(levels):
        expected = brute_force_transport_residuals(values, mesh_m1, burgers, nf,
                                                   report.fluxes, tau, k)
        assert np.max(np.abs(ledger.per_cell_residuals[j] - expected)) <= 1e-15
        assert ledger.worst_residuals[j] == np.max(ledger.per_cell_residuals[j])


def test_constant_state_flat_residuals_exact_zero(burgers):
    mesh = build_uniform_mesh(Background(0.0), 10.0, 30)
    state, new_state, report, nf, tau = _one_step(mesh, burgers, "godunov", np.full(30, 0.6))
    ledger = cell_entropy_residuals(new_state, report, mesh, nf, (0.25,))
    assert np.array_equal(ledger.per_cell_residuals, np.zeros((1, 30)))
    # dissipation and the R bookkeeping cancel exactly in real arithmetic
    assert abs(ledger.global_balance_gap) <= 1e-15 * ledger.balance_scale
    assert ledger.dissipation_sum >= 0.0


def test_plus_one_state_curved_residuals(mesh_m1, burgers):
    state, new_state, report, nf, tau = _one_step(mesh_m1, burgers, "godunov",
                                          np.ones(mesh_m1.n_cells))
    ledger = cell_entropy_residuals(new_state, report, mesh_m1, nf, (0.0,))
    assert np.max(np.abs(ledger.per_cell_residuals)) <= 1e-14
    assert abs(ledger.global_balance_gap) <= 1e-14


@pytest.mark.parametrize("mass", (0.0, 1.0))
def test_riemann_one_step_residuals(burgers, mass):
    mesh = build_uniform_mesh(Background(mass), 2 * mass + 10.0, 40)
    mid = 2 * mass + 5.0
    values = np.where(mesh.centers < mid, 0.8, -0.8)
    state, new_state, report, nf, tau = _one_step(mesh, burgers, "godunov", values)
    ledger = cell_entropy_residuals(new_state, report, mesh, nf, (0.0,))
    assert ledger.worst_residuals[0] <= 1e-14


@pytest.mark.parametrize("kind", ("godunov", "eo", "rusanov"))
@pytest.mark.parametrize("k", LEVELS)
def test_transport_residuals_nonpositive_randomized(mesh_m1, burgers, rng, kind, k):
    for _ in range(5):
        values = rng.uniform(-1, 1, mesh_m1.n_cells)
        state, new_state, report, nf, tau = _one_step(mesh_m1, burgers, kind, values,
                                              cfl=float(rng.uniform(0.2, 1.0)))
        ledger = cell_entropy_residuals(new_state, report, mesh_m1, nf, (k,))
        assert ledger.worst_residuals[0] <= 1e-13
        assert ledger.dissipation_sum >= 0.0


def test_global_balance_nonpositive_randomized(mesh_m1, burgers, rng):
    for kind in ("godunov", "eo", "rusanov"):
        for _ in range(5):
            values = rng.uniform(-1, 1, mesh_m1.n_cells)
            state, new_state, report, nf, tau = _one_step(mesh_m1, burgers, kind, values)
            ledger = cell_entropy_residuals(new_state, report, mesh_m1, nf, (0.0,))
            assert ledger.global_balance_gap <= 1e-12 * ledger.balance_scale


def test_balance_tracks_quadratic_entropy_decay(mesh_m1, burgers, rng):
    # total quadratic entropy (plus dissipation and R bookkeeping) never grows
    values = rng.uniform(-1, 1, mesh_m1.n_cells)
    state, new_state, report, nf, tau = _one_step(mesh_m1, burgers, "godunov", values)
    ledger = cell_entropy_residuals(new_state, report, mesh_m1, nf, (0.0,))
    direct = float(np.sum(mesh_m1.widths * 0.5 * (new_state.values ** 2 - values ** 2)))
    # entropy change decomposes into flux transport, R terms, and dissipation;
    # the assembled gap must match the direct evaluation to round-off
    fq = values ** 3 / 3.0  # the quadratic entropy flux of Burgers
    a = mesh_m1.face_weights
    flux_sum = tau * float(np.sum((a[1:] - a[:-1]) * fq))
    boundary = tau * float(a[-1] * fq[-1] - a[0] * fq[0])
    w_face = 0.5 * mesh_m1.widths
    tilde_l, tilde_r, full_l, full_r, _, _ = face_reconstruction(report, mesh_m1, burgers)
    r_terms = 0.5 * (full_r ** 2 - tilde_r ** 2 + full_l ** 2 - tilde_l ** 2)
    gap_direct = direct + ledger.dissipation_sum - float(np.sum(w_face * r_terms)) - flux_sum + boundary
    assert gap_direct == pytest.approx(ledger.global_balance_gap, abs=1e-12)


def test_decomposition_identity(mesh_m1, burgers, rng):
    for kind in ("godunov", "eo", "rusanov"):
        values = rng.uniform(-1, 1, mesh_m1.n_cells)
        state, new_state, report, nf, tau = _one_step(mesh_m1, burgers, kind, values)
        _, _, full_l, full_r, _, _ = face_reconstruction(report, mesh_m1, burgers)
        assert convex_decomposition_check(new_state, full_l, full_r) <= 1e-13


def test_decomposition_exact_for_uniform_states(mesh_m1, burgers):
    for value in (1.0, -1.0, 0.2):
        state, new_state, report, nf, tau = _one_step(mesh_m1, burgers, "godunov",
                                                      np.full(mesh_m1.n_cells, value))
        _, _, full_l, full_r, _, _ = face_reconstruction(report, mesh_m1, burgers)
        assert convex_decomposition_check(new_state, full_l, full_r) <= 1e-16


def test_dimension_mismatch_rejected(mesh_m1, burgers):
    state, new_state, report, nf, tau = _one_step(mesh_m1, burgers, "godunov",
                                                  np.zeros(mesh_m1.n_cells))
    short = StateVector(values=np.zeros(mesh_m1.n_cells - 1), time=0.0, step_index=0)
    with pytest.raises(ContractError):
        cell_entropy_residuals(short, report, mesh_m1, nf, (0.0,))
    _, _, full_l, full_r, _, _ = face_reconstruction(report, mesh_m1, burgers)
    with pytest.raises(ContractError):
        convex_decomposition_check(short, full_l, full_r)
    # a report whose face states, or face fluxes, do not fit the mesh
    misfit = dataclasses.replace(report, states=report.states[1:])
    with pytest.raises(ContractError, match="report states"):
        cell_entropy_residuals(new_state, misfit, mesh_m1, nf, (0.0,))
    with pytest.raises(ContractError, match="report states"):
        face_reconstruction(misfit, mesh_m1, burgers)
    with pytest.raises(ContractError):
        convex_coefficients(misfit, mesh_m1, nf)
    with pytest.raises(ContractError, match="report fluxes"):
        cell_entropy_residuals(new_state, dataclasses.replace(report, fluxes=report.fluxes[1:]), mesh_m1, nf,
                               (0.0,))


def test_fixed_boundary_balance_reported_nan(mesh_m1, burgers, rng):
    nf = numerical_flux("godunov", burgers)
    tau = 0.5 * max_timestep(mesh_m1, burgers, nf.lipschitz_bound)
    state = StateVector(values=rng.uniform(-1, 1, mesh_m1.n_cells), time=0.0, step_index=0)
    new_state, report = step(state, mesh_m1, nf, tau, outer_ghost=0.1)
    ledger = cell_entropy_residuals(new_state, report, mesh_m1, nf, (0.0,))
    assert np.isnan(ledger.global_balance_gap)
    assert ledger.worst_residuals[0] <= 1e-13
