"""The finite volume update as a plain numpy transcription, which the
compiled step is checked against bitwise."""

import numpy as np


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
