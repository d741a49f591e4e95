"""The finite volume update and the bundled fluxes as plain numpy
transcriptions, written independently of the formula text in
``scheme._FLUXES``, which the compiled step and the generated flux
functions are checked against bitwise."""

import numpy as np


def _scalarize(x, *args):
    return float(x) if all(np.ndim(a) == 0 for a in args) else x


def rusanov(m, u, v):
    """(f(u) + f(v))/2 - (lam/2)(v - u) with the global bound lam = max |f'|."""
    lam = m.flux_lipschitz
    out = 0.5 * (m.f(u) + m.f(v)) - 0.5 * lam * (np.asarray(v, dtype=float) - u)
    return _scalarize(out, u, v)


def godunov(m, u, v):
    """Exact Riemann flux for the unimodal shape: min of f over [u, v] if
    u <= v (attained at the interval point closest to the minimum at 0),
    else max of f over [v, u] (attained at an endpoint)."""
    u_arr = np.asarray(u, dtype=float)
    v_arr = np.asarray(v, dtype=float)
    inside = np.minimum(np.maximum(u_arr, 0.0), v_arr)
    out = np.where(u_arr <= v_arr, m.f(inside), np.maximum(m.f(u_arr), m.f(v_arr)))
    return _scalarize(out, u, v)


def engquist_osher(m, u, v):
    """f(max(u, 0)) + f(min(v, 0)) - f(0): the split-derivative flux in
    closed form for the unimodal shape."""
    f0 = float(m.f(0.0))
    out = m.f(np.maximum(u, 0.0)) + m.f(np.minimum(v, 0.0)) - f0
    return _scalarize(out, u, v)


# each bundled kind's hand-written reference
REFERENCE_FLUXES = {"godunov": godunov, "eo": engquist_osher, "rusanov": rusanov}


def reference_update(values, mesh, m, nf, tau, outer_ghost=None, inner_ghost=None):
    """The update as a plain transcription: face states by concatenation,
    the flux's reference above for a bundled kind (its evaluate for another),
    and the grouped divergence a_R F_R - a_L F_L - f(v)(a_R - a_L); returns
    (face states, fluxes, new values)."""
    inner = values[0] if inner_ghost is None else float(inner_ghost)
    outer = values[-1] if outer_ghost is None else float(outer_ghost)
    states = np.concatenate(([inner], values, [outer]))
    reference = REFERENCE_FLUXES.get(nf.kind)
    fluxes = nf.evaluate(states[:-1], states[1:]) if reference is None else reference(m, states[:-1], states[1:])
    fc = np.asarray(m.f(values), dtype=float)
    hc = np.asarray(m.h(values), dtype=float)
    a_l, a_r = mesh.face_weights[:-1], mesh.face_weights[1:]
    flux_term = a_r * fluxes[1:] - a_l * fluxes[:-1] - fc * (a_r - a_l)
    return states, fluxes, values - (tau / mesh.widths) * flux_term + tau * mesh.cell_thetas * (fc + hc)
