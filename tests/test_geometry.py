import math

import numpy as np
import pytest

from horizonfv import (
    Background,
    DomainError,
    RadialMesh,
    build_uniform_mesh,
    max_timestep,
    numerical_flux,
)


def test_negative_mass_rejected():
    with pytest.raises(DomainError):
        Background(-0.5)


def test_mass_that_is_not_finite_rejected():
    for mass in (math.inf, math.nan):
        with pytest.raises(DomainError, match=f"mass must be finite and >= 0, got {mass}"):
            Background(mass)


def test_two_cell_mesh_example():
    mesh = build_uniform_mesh(Background(1.0), 4.0, 2)
    assert np.array_equal(mesh.faces, [2.0, 3.0, 4.0])
    assert np.array_equal(mesh.centers, [2.5, 3.5])
    assert mesh.face_weights[0] == 0.0
    assert mesh.face_weights[1] == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert mesh.face_weights[2] == 0.5
    assert np.allclose(mesh.cell_thetas, [2.0 / 2.5 ** 2, 2.0 / 3.5 ** 2])


def test_flat_mesh_weights():
    mesh = build_uniform_mesh(Background(0.0), 1.0, 4)
    assert np.array_equal(mesh.face_weights, np.ones(5))
    assert np.array_equal(mesh.cell_thetas, np.zeros(4))


def test_uniform_widths():
    mesh = build_uniform_mesh(Background(1.0), 12.0, 100)
    assert np.allclose(mesh.widths, 0.1, rtol=1e-12)
    assert np.all(np.diff(mesh.faces) > 0.0)
    assert np.allclose(mesh.centers, 0.5 * (mesh.faces[:-1] + mesh.faces[1:]))


def test_horizon_face_exact():
    for mass in (0.25, 1.0, 1.7):
        mesh = build_uniform_mesh(Background(mass), 2 * mass + 5.0, 37)
        assert mesh.faces[0] == 2 * mass
        assert mesh.face_weights[0] == 0.0
        assert np.all(mesh.face_weights[1:] > 0.0)
        assert np.all(mesh.face_weights[1:] < 1.0)


def test_mesh_preconditions():
    with pytest.raises(DomainError):
        build_uniform_mesh(Background(1.0), 12.0, 1)
    with pytest.raises(DomainError):
        build_uniform_mesh(Background(1.0), 1.9, 10)
    for r_max in (math.inf, math.nan, -math.inf):
        with pytest.raises(DomainError, match=f"r_max={r_max} is not finite"):
            build_uniform_mesh(Background(1.0), r_max, 10)


def test_mesh_immutable():
    mesh = build_uniform_mesh(Background(1.0), 12.0, 10)
    with pytest.raises(ValueError):
        mesh.faces[0] = 0.0


def test_max_timestep_flat_example(burgers):
    mesh = build_uniform_mesh(Background(0.0), 10.0, 100)
    tau = max_timestep(mesh, burgers, 1.0)
    assert tau == pytest.approx(0.025, rel=1e-12)


def test_max_timestep_curved_example(burgers):
    mesh = build_uniform_mesh(Background(1.0), 12.0, 100)
    tau = max_timestep(mesh, burgers, 1.0)
    # transport bound 0.1/(4 * (1 - 2/12)) = 0.03; source bound ~1.05 is slack
    assert tau == pytest.approx(0.03, rel=1e-12)


def test_max_timestep_source_bound(burgers):
    # squeeze the mesh against the horizon so the source bound takes over
    mesh = build_uniform_mesh(Background(1.0), 2.2, 2)
    theta_max = np.max(mesh.cell_thetas)
    tau = max_timestep(mesh, burgers, 1e-6)
    assert tau == pytest.approx((1 - 1e-6) / (2 * theta_max), rel=1e-12)



def test_max_timestep_refuses_a_mesh_without_cells(burgers):
    # build_uniform_mesh needs two cells, but a RadialMesh built directly may have none
    none = np.empty(0)
    mesh = RadialMesh(faces=np.array([2.0]), centers=none, widths=none, face_weights=np.array([0.0]),
                      cell_thetas=none)
    with pytest.raises(DomainError, match="^empty mesh$"):
        max_timestep(mesh, burgers, 1.0)

def test_max_timestep_monotone_in_lipschitz(burgers):
    mesh = build_uniform_mesh(Background(1.0), 12.0, 50)
    taus = [max_timestep(mesh, burgers, L) for L in (0.5, 1.0, 2.0, 5.0)]
    assert all(a >= b for a, b in zip(taus, taus[1:]))


def test_max_timestep_monotone_in_mass(burgers):
    # fixed outer radius and cell count
    taus = []
    for mass in (0.0, 0.3, 0.8, 1.5, 2.0):
        mesh = build_uniform_mesh(Background(mass), 12.0, 50)
        taus.append(max_timestep(mesh, burgers, 1.0))
    assert all(a >= b - 1e-15 for a, b in zip(taus, taus[1:]))


def test_max_timestep_preconditions(burgers):
    mesh = build_uniform_mesh(Background(1.0), 12.0, 50)
    with pytest.raises(DomainError):
        max_timestep(mesh, burgers, 0.0)


def test_flux_lipschitz_feeds_cfl(burgers):
    mesh = build_uniform_mesh(Background(1.0), 12.0, 50)
    nf = numerical_flux("godunov", burgers)
    assert nf.lipschitz_bound == 1.0
    assert max_timestep(mesh, burgers, nf.lipschitz_bound) > 0.0
