"""Curved-background quantities and the radial mesh.

Everything geometric enters the scheme through two weights: the lapse
factor a(r) = 1 - 2M/r evaluated at cell faces (it multiplies every face
flux) and theta_K = 2M/r_K**2 evaluated at cell centers (it multiplies the
source).  The innermost face of a mesh with M > 0 sits exactly at r = 2M,
where a vanishes in floating point, so the flux through that face is
identically zero and no inner boundary data is ever consumed.

Geometric units throughout: light speed 1, radius and mass in the same
unit, state dimensionless in [-1, 1].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .model import FluxModel

#: enforced strictness margin for the source stability bound
SOURCE_STRICTNESS = 1e-6


@dataclass(frozen=True)
class Background:
    """A black hole exterior of finite mass M >= 0; M = 0 is flat space."""

    mass: float

    def __post_init__(self):
        if not 0.0 <= self.mass < math.inf:
            raise DomainError(f"mass must be finite and >= 0, got {self.mass}")

    @property
    def horizon(self) -> float:
        return 2.0 * self.mass


@dataclass(frozen=True, eq=False)
class RadialMesh:
    """Uniform 1D cell decomposition of (2M, r_max] with geometric weights.

    faces are strictly increasing with faces[0] = 2M; face_weights[i] is
    a(faces[i]) except that an M = 0 mesh uses weight 1 everywhere (the
    flat-space limit, avoiding the 0/0 at r = 0).  Immutable after
    construction.
    """

    faces: np.ndarray
    centers: np.ndarray
    widths: np.ndarray
    face_weights: np.ndarray
    cell_thetas: np.ndarray

    @property
    def n_cells(self) -> int:
        return self.centers.size


def build_uniform_mesh(bg: Background, r_max: float, cells: int) -> RadialMesh:
    """Equispaced faces from the horizon (or r = 0 when M = 0) to a finite r_max."""
    if cells < 2:
        raise DomainError(f"need cells >= 2, got {cells}")
    if not math.isfinite(r_max):
        raise DomainError(f"r_max={r_max} is not finite")
    if not r_max > bg.horizon:
        raise DomainError(f"r_max={r_max} must exceed the horizon radius {bg.horizon}")
    faces = np.linspace(bg.horizon, r_max, cells + 1)
    centers = 0.5 * (faces[:-1] + faces[1:])
    widths = np.diff(faces)
    if bg.mass > 0.0:
        face_weights = 1.0 - 2.0 * bg.mass / faces
        face_weights[0] = 0.0  # exact horizon face; 2M/2M rounds to 1 anyway
    else:
        face_weights = np.ones_like(faces)
    cell_thetas = 2.0 * bg.mass / np.square(centers)
    for arr in (faces, centers, widths, face_weights, cell_thetas):
        arr.setflags(write=False)
    return RadialMesh(
        faces=faces,
        centers=centers,
        widths=widths,
        face_weights=face_weights,
        cell_thetas=cell_thetas,
    )


def max_timestep(mesh: RadialMesh, m: FluxModel, nf_lipschitz: float) -> float:
    """Largest stable time step for the explicit update.

    Two constraints: the transport bound tau1 = |K| / (2 p_K L w_max) with
    p_K = 2 faces per cell, L the numerical-flux Lipschitz bound and w_max
    the largest face weight; and the source bound tau2 = 1 / (2 theta_max S)
    with S = max |f' + h'| over [-1, 1] (the model's certified
    ``source_slope``), shrunk by SOURCE_STRICTNESS because the source
    condition is strict.
    """
    if mesh.n_cells == 0:
        raise DomainError("empty mesh")
    if not nf_lipschitz > 0.0:
        raise DomainError("nf_lipschitz must be positive")
    w_max = float(np.max(mesh.face_weights))
    tau1 = float(np.min(mesh.widths)) / (2.0 * 2.0 * nf_lipschitz * w_max)

    theta_max = float(np.max(mesh.cell_thetas))
    if theta_max > 0.0 and m.source_slope > 0.0:
        tau2 = (1.0 - SOURCE_STRICTNESS) / (2.0 * theta_max * m.source_slope)
        return min(tau1, tau2)
    return tau1
