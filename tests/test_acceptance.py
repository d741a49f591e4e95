"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured margins.  Tolerances are fixed here, not tuned at runtime."""

import math
import time

import numpy as np
import pytest

from horizonfv import (
    Background,
    CharState,
    StateVector,
    build_uniform_mesh,
    fuzz_invariants,
    interior_invariant,
    max_timestep,
    numerical_flux,
    steady_drift_detail,
    step,
    trace_exterior,
    trace_interior,
)
from horizonfv.cli import main
from horizonfv.harness import presets
from fate import classify_fate, escape_velocity
from oracle_error import oracle_convergence

FUZZ_TRIALS = 100
FUZZ_SEED = 42


@pytest.fixture(scope="module")
def campaign():
    """The shared 100-trial campaign behind criteria 1 and 2."""
    start = time.monotonic()
    report = fuzz_invariants(FUZZ_TRIALS, FUZZ_SEED)
    elapsed = time.monotonic() - start
    return report, elapsed


def test_acceptance_01_discrete_maximum_principle(campaign):
    report, elapsed = campaign
    state_violations = [v for v in report.violations
                        if v["kind"] in ("state_invariant", "convex_coefficient")]
    assert not state_violations
    assert report.worst_abs_state <= 1.0  # zero tolerance
    assert report.min_convex_coeff >= 0.0  # zero tolerance
    assert report.total_steps > 0
    assert elapsed < 60.0
    print(f"\nACCEPTANCE 1 (discrete maximum principle): PASS "
          f"[{FUZZ_TRIALS} trials, {report.total_steps} steps, max |v| = "
          f"{report.worst_abs_state:.17g}, min convex coefficient = {report.min_convex_coeff!r}, "
          f"{elapsed:.1f}s]")


def test_acceptance_02_discrete_entropy_inequality(campaign):
    report, _ = campaign
    entropy_violations = [v for v in report.violations
                          if v["kind"] in ("entropy_residual", "balance_gap", "convex_decomposition")]
    assert not entropy_violations
    assert report.worst_entropy_residual <= 1e-13
    assert report.worst_decomposition_defect <= 1e-13
    assert report.worst_balance_gap_rel <= 1e-12
    print(f"\nACCEPTANCE 2 (discrete entropy inequality): PASS "
          f"[worst residual = {report.worst_entropy_residual:.3e}, "
          f"decomposition defect = {report.worst_decomposition_defect:.3e}, "
          f"relative balance gap = {report.worst_balance_gap_rel:.3e}]")


def test_acceptance_03_boundary_states_are_exact_fixed_points(structure_models):
    mesh = build_uniform_mesh(Background(1.0), 12.0, 100)
    worst = 0.0
    for m in structure_models:
        for kind in ("godunov", "eo", "rusanov"):
            nf = numerical_flux(kind, m)
            tau = 0.9 * max_timestep(mesh, m, nf.lipschitz_bound)
            for value in (1.0, -1.0):
                target = np.full(mesh.n_cells, value)
                state = StateVector(values=target, time=0.0, step_index=0)
                for _ in range(1000):
                    state, _ = step(state, mesh, nf, tau)
                drift = float(np.max(np.abs(state.values - target)))
                worst = max(worst, drift)
                assert drift == 0.0
    print(f"\nACCEPTANCE 3 (states +/-1 exact fixed points, 1000 steps, "
          f"3 models x 3 fluxes): PASS [drift = {worst:.17g}]")


def test_acceptance_04_characteristic_invariants(burgers):
    def exterior_drift(ds):
        path = trace_exterior(burgers, 1.0, CharState(0.0, 0.0, 2.5, 0.9), ds, 2.0)
        inv = np.log(1.0 - path.u ** 2) - np.log(1.0 - 2.0 / path.r)
        return float(np.max(np.abs(inv - inv[0])) / abs(inv[0]))

    d_coarse = exterior_drift(1e-3)
    d_fine = exterior_drift(5e-4)
    assert d_coarse <= 1e-7
    assert d_coarse / d_fine >= 12.0

    path = trace_interior(1.0, 0.5, (0.0, 8.0, 0.6), 1e-3, 5.0)
    inv = interior_invariant(1.0, path)
    interior_drift = float(np.max(np.abs(inv - inv[0])) / abs(inv[0]))
    assert interior_drift <= 1e-8
    print(f"\nACCEPTANCE 4 (characteristic invariants): PASS "
          f"[exterior drift = {d_coarse:.3e}, halving ratio = {d_coarse / d_fine:.1f}, "
          f"interior drift = {interior_drift:.3e}]")


def test_acceptance_05_burgers_closed_forms(burgers, fhat_table):
    us = np.linspace(-0.999, 0.999, 401)
    fhat_err = max(abs(fhat_table.value(float(u)) - math.log(1.0 - u * u)) for u in us)
    assert fhat_err <= 1e-10

    esc = escape_velocity(fhat_table, 1.0, 8.0)
    assert abs(esc - 0.5) <= 1e-10

    mismatches = 0
    points = [(r0, u0) for r0 in (3.0, 5.0, 8.0, 16.0)
              for u0 in (-0.6, 0.2, 0.5, 0.7, 0.95)]
    assert len(points) == 20
    for r0, u0 in points:
        u_escape = math.sqrt(2.0 / r0)
        fate = classify_fate(fhat_table, 1.0, r0, u0)
        if abs(u0 - u_escape) <= 1e-12:
            expected = "marginal"
        elif u0 > u_escape:
            expected = "escapes"
            limit = math.sqrt((u0 ** 2 - u_escape ** 2) / (1.0 - u_escape ** 2))
            if abs(fate.u_limit - limit) > 1e-9:
                mismatches += 1
        else:
            expected = "falls_in"
            if fate.u_limit != -1.0:
                mismatches += 1
        if fate.kind != expected:
            mismatches += 1
    assert mismatches == 0
    print(f"\nACCEPTANCE 5 (burgers closed forms): PASS "
          f"[Fhat error = {fhat_err:.3e}, escape velocity error = {abs(esc - 0.5):.3e}, "
          f"fate grid 20/20]")


def test_acceptance_06_oracle_convergence(burgers):
    start = time.monotonic()
    result = oracle_convergence(presets()["smooth"], burgers, [100, 200, 400, 800])
    elapsed = time.monotonic() - start
    assert all(e > 0 for e in result.errors)
    assert all(a > b for a, b in zip(result.errors, result.errors[1:]))
    assert result.observed_order >= 0.8
    assert elapsed < 120.0
    print(f"\nACCEPTANCE 6 (oracle convergence): PASS "
          f"[errors = {['%.3e' % e for e in result.errors]}, "
          f"order = {result.observed_order:.3f}, {elapsed:.1f}s]")


def test_acceptance_07_flat_space_reduction(burgers, rng):
    mesh = build_uniform_mesh(Background(0.0), 10.0, 128)  # widths exactly 5/64
    worst_ulps = 0.0
    for kind in ("godunov", "eo", "rusanov"):
        nf = numerical_flux(kind, burgers)
        tau = 0.9 * max_timestep(mesh, burgers, nf.lipschitz_bound)
        values = rng.uniform(-1.0, 1.0, mesh.n_cells)
        state = StateVector(values=values, time=0.0, step_index=0)
        mirror = values.copy()
        for _ in range(500):
            state, _ = step(state, mesh, nf, tau)
            left = np.concatenate(([mirror[0]], mirror))
            right = np.concatenate((mirror, [mirror[-1]]))
            fluxes = nf.evaluate(left, right)
            mirror = mirror - (tau / mesh.widths[0]) * (fluxes[1:] - fluxes[:-1])
            diff = np.abs(state.values - mirror)
            ulps = diff / np.spacing(np.maximum(np.abs(mirror), 1e-300))
            worst_ulps = max(worst_ulps, float(np.max(ulps)))
            assert np.max(ulps) <= 1.0
    print(f"\nACCEPTANCE 7 (flat-space reduction, 500 steps x 3 fluxes): PASS "
          f"[worst deviation = {worst_ulps:.3g} ulp]")


def test_acceptance_08_steady_drift_first_order(burgers):
    cells = [100, 200, 400]
    drifts = [steady_drift_detail(burgers, 1.0, 4.0, 0.9, c, 1.0)[0] for c in cells]
    widths = [10.0 / c for c in cells]
    slope = float(np.polyfit(np.log(widths), np.log(drifts), 1)[0])
    assert all(a > b for a, b in zip(drifts, drifts[1:]))
    assert slope >= 0.8
    print(f"\nACCEPTANCE 8 (steady-state drift refinement): PASS "
          f"[drifts = {['%.3e' % d for d in drifts]}, slope = {slope:.3f}]")


def test_acceptance_09_horizon_boundary_freedom(burgers, rng):
    mesh = build_uniform_mesh(Background(1.0), 12.0, 100)
    nf = numerical_flux("godunov", burgers)
    tau = 0.9 * max_timestep(mesh, burgers, nf.lipschitz_bound)
    values = rng.uniform(-1.0, 1.0, mesh.n_cells)

    assert mesh.face_weights[0] == 0.0
    trajectories = []
    for ghost in (None, -1.0, 0.73, 1.0):
        state = StateVector(values=values, time=0.0, step_index=0)
        states = []
        for _ in range(100):
            state, _ = step(state, mesh, nf, tau, inner_ghost=ghost)
            states.append(state.values)
        trajectories.append(np.vstack(states))
    for other in trajectories[1:]:
        assert np.array_equal(trajectories[0], other)
    print("\nACCEPTANCE 9 (horizon needs no boundary data): PASS "
          "[inner face weight exactly 0; 4 ghost policies, 100 steps, bitwise identical]")


ACCEPTANCE_CONFIG = """
[model]
model = burgers

[geometry]
mass = 1.0
r_max = 12.0
cells = 80

[evolution]
flux = godunov
t_end = 0.3
snapshot_every = 5

[initial]
kind = bump

[diagnostics]
entropy_diagnostics = true

[run]
seed = 42
output_dir = {out}

[fuzz]
trials = 3
"""


def test_acceptance_10_byte_determinism(tmp_path):
    out = tmp_path / "out"
    cfg = tmp_path / "acceptance.ini"
    cfg.write_text(ACCEPTANCE_CONFIG.format(out=out))

    def collect():
        for sub in ("run", "fuzz"):
            assert main([sub, str(cfg)]) == 0
        return {path.name: path.read_bytes() for path in sorted(out.iterdir())}

    first = collect()
    second = collect()
    assert first.keys() == second.keys()
    assert all(first[k] == second[k] for k in first)
    print(f"\nACCEPTANCE 10 (byte determinism): PASS "
          f"[{len(first)} artifacts identical across consecutive runs]")
