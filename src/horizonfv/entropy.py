"""Discrete entropy fluxes and per-step admissibility diagnostics.

For a Kruzhkov entropy at level k the numerical entropy flux is the
Crandall-Majda construction

    Phi(u, v) = nf(max(u, k), max(v, k)) - nf(min(u, k), min(v, k)),

consistent with sign(w - k)(f(w) - f(k)) and conservative by virtue of a
single evaluation per face.  For every monotone flux under the CFL bound,
the transport part of the update satisfies, per cell K and face e,

    U(vtilde_{K,e}) - U(v_K) + (tau p_K w_e / |K|) (Phi_e - Phi(v_K, v_K)) <= 0,

exactly in real arithmetic.  That quantity is what ``per_cell_residuals``
holds, one row per level (broadcast as a column, so each row is bitwise
a one-level evaluation), and what the tests and the campaign assert.

No source term is certified per face.  Subtracting the source's share
tau theta (f + h)(v_K) U'(v_K) from the same left side would give a
sign-indefinite quantity, since that term has the sign of -U'(v_K): for
any constant state c in (0, 1) with M > 0 and a level k < c the transport
part is 0 and the difference is positive.

The asserted global balance uses the quadratic entropy (alpha = inf U'' = 1):

    sum |K| U(v^{n+1}) + (alpha/2) sum W_e |v_{K,e} - v^{n+1}_K|^2
      <= sum |K| U(v^n) + tau sum_K (a_R - a_L) F(v_K)
         + tau a_outer F_outer - tau a_inner F_inner + sum W_e R_{K,e}

with W_e = |K|/2 and R_{K,e} = U(v_{K,e}) - U(vtilde_{K,e}).  The boundary
term tau a F(v) is the face's entropy flux exactly when the face reads the
boundary cell's own value on both sides, so the balance closes when the
step's recorded outer ghost equals the outermost cell value and its inner
ghost equals the innermost one or the horizon face weight is 0.  Otherwise
the balance gap is reported as NaN.

``cell_entropy_residuals`` is the one per-step certificate: from one face
reconstruction at ``report.tau_used`` it also records the smallest convex
coefficient and the defect max_K |v^{n+1}_K - (full_l + full_r)_K / 2|.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ContractError, DomainError
from .geometry import RadialMesh
from .model import FluxModel, _evaluator, _polyder, _polyint
from .scheme import NumericalFlux, StateVector, StepReport, convex_coefficients


@dataclass(frozen=True, eq=False)
class EntropyLedger:
    """The certificate of one step for a set of Kruzhkov levels.

    Row j of per_cell_residuals holds, per cell, the larger of its two face
    residuals of the transport entropy inequality at levels[j] (must be
    <= 0 up to round-off), and worst_residuals[j] its maximum.  The balance
    fields belong to the quadratic entropy and do not depend on the level;
    dissipation_sum is its squared-jump term, nonnegative by construction.
    min_convex_coeff (must be >= 0.0) and decomposition_defect (must vanish
    up to round-off) certify the step's convex decomposition.
    """

    levels: np.ndarray
    per_cell_residuals: np.ndarray
    worst_residuals: np.ndarray
    global_balance_gap: float
    dissipation_sum: float
    balance_scale: float
    min_convex_coeff: float
    decomposition_defect: float


def numerical_entropy_flux(nf: NumericalFlux, k: float, u, v):
    """Crandall-Majda discrete entropy flux of nf's model for the Kruzhkov entropy at k;
    a column of levels k broadcasts against the face states u, v."""
    upper = nf.evaluate(nf.model, np.maximum(u, k), np.maximum(v, k))
    lower = nf.evaluate(nf.model, np.minimum(u, k), np.minimum(v, k))
    return upper - lower


def _quadratic_flux(m: FluxModel):
    """The flux F(v) = int_0^v w f'(w) dw of the quadratic entropy
    U(v) = v**2/2, evaluated as the exact antiderivative of w f'(w)."""
    return _evaluator(_polyint((0.0,) + _polyder(m.f_poly)))


def face_reconstruction(report: StepReport, mesh: RadialMesh, m: FluxModel):
    """Intermediate per-face states of the convex decomposition at tau_used.

    Returns (tilde_left, tilde_right, full_left, full_right, gamma_left,
    gamma_right) where the tilde states carry only the face's own flux
    difference, times gamma = 2 tau a / |K| of that face, and the full
    states add the weight-correction shifts and the source shift
    tau theta (f + h)(v), so that the cell update equals the mean of its
    two full face states.  The pre-step values v are report.states[1:-1];
    ghost values enter only through the face fluxes recorded in the report.
    """
    if report.states.size != mesh.n_cells + 2:
        raise ContractError("report states do not match mesh cell count")
    if report.fluxes.size != mesh.faces.size:
        raise ContractError("report fluxes do not match mesh faces")
    v = report.states[1:-1]
    tau = report.tau_used
    fc = np.asarray(m.f(v), dtype=float)
    hc = np.asarray(m.h(v), dtype=float)
    a_l = mesh.face_weights[:-1]
    a_r = mesh.face_weights[1:]
    gamma_l = 2.0 * tau * a_l / mesh.widths
    gamma_r = 2.0 * tau * a_r / mesh.widths

    tilde_r = v - gamma_r * (report.fluxes[1:] - fc)
    tilde_l = v + gamma_l * (report.fluxes[:-1] - fc)

    spread = (tau / mesh.widths) * (a_r + a_l) * fc
    source = tau * mesh.cell_thetas * (fc + hc)
    full_r = tilde_r + spread + source
    full_l = tilde_l - spread + source
    return tilde_l, tilde_r, full_l, full_r, gamma_l, gamma_r


def convex_decomposition_check(state_after: StateVector, full_l, full_r) -> float:
    """Largest cell defect of v^{n+1}_K = mean of the two full face states."""
    if state_after.values.size != full_l.size:
        raise ContractError("state after the step does not match the face states")
    return float(np.max(np.abs(state_after.values - 0.5 * (full_r + full_l))))


def cell_entropy_residuals(state_after: StateVector, report: StepReport, mesh: RadialMesh, nf: NumericalFlux,
                           levels: Sequence[float]) -> EntropyLedger:
    """Certify one finished step of nf's model from one face reconstruction at
    report.tau_used and the face states in report.states, the pre-step
    values among them: the per-face entropy residuals at every Kruzhkov
    level in levels, the quadratic balance, the smallest convex coefficient
    and the decomposition defect against state_after.

    The residual is the transport form (see module docstring).  The
    quadratic balance uses U(v) = v**2/2, its flux from
    ``_quadratic_flux`` and alpha = inf U'' = 1.
    """
    ks = np.asarray(levels, dtype=float).reshape(-1, 1)
    if not np.all(np.abs(ks) <= 1.0):
        raise DomainError(f"Kruzhkov levels must lie in [-1, 1], got {levels}")
    tau, m = report.tau_used, nf.model
    tilde_l, tilde_r, full_l, full_r, gamma_l, gamma_r = face_reconstruction(report, mesh, m)
    coefficients = convex_coefficients(report, mesh, nf)
    a_l = mesh.face_weights[:-1]
    a_r = mesh.face_weights[1:]

    # Kruzhkov entropies U = |w - k| - |k|, one row per level
    states = report.states
    v = states[1:-1]
    phi_faces = numerical_entropy_flux(nf, ks, states[:-1], states[1:])
    phi_cons = numerical_entropy_flux(nf, ks, v, v)  # consistent value F(v_K)

    abs_k = np.abs(ks)
    u_before = np.abs(v - ks) - abs_k
    res_r = (np.abs(tilde_r - ks) - abs_k) - u_before + gamma_r * (phi_faces[:, 1:] - phi_cons)
    res_l = (np.abs(tilde_l - ks) - abs_k) - u_before - gamma_l * (phi_faces[:, :-1] - phi_cons)
    per_cell = np.maximum(res_l, res_r)

    # quadratic balance, U(v) = v**2/2 and alpha = inf U'' = 1
    w_face = 0.5 * mesh.widths
    uq_before = 0.5 * np.square(v)
    v_next = 0.5 * (full_r + full_l)
    dev_sq = np.square(full_r - v_next) + np.square(full_l - v_next)
    dissipation = float(0.5 * np.sum(w_face * dev_sq))
    r_terms = 0.5 * np.square(full_r) - 0.5 * np.square(tilde_r) \
        + 0.5 * np.square(full_l) - 0.5 * np.square(tilde_l)
    fq = _quadratic_flux(m)(v)
    interior_flux = tau * float(np.sum((a_r - a_l) * fq))

    balance_core = (
        float(np.sum(mesh.widths * (0.5 * np.square(v_next) - uq_before)))
        + dissipation
        - float(np.sum(w_face * r_terms))
        - interior_flux
    )
    scale = 1.0 + float(np.sum(mesh.widths * np.abs(uq_before))) + dissipation \
        + float(np.sum(w_face * np.abs(r_terms)))

    if states[-1] == states[-2] and (states[0] == states[1] or mesh.face_weights[0] == 0.0):
        boundary = tau * float(mesh.face_weights[-1]) * float(fq[-1]) \
            - tau * float(mesh.face_weights[0]) * float(fq[0])
        gap = balance_core + boundary
    else:
        gap = float("nan")
    return EntropyLedger(
        levels=ks[:, 0],
        per_cell_residuals=per_cell,
        worst_residuals=per_cell.max(axis=1),
        global_balance_gap=gap,
        dissipation_sum=dissipation,
        balance_scale=scale,
        min_convex_coeff=float(min(a.min() for a in coefficients)),
        decomposition_defect=convex_decomposition_check(state_after, full_l, full_r),
    )
