"""Each bundled flux is defined once, as formula text in ``scheme._FLUXES``;
its function, ``numerical_flux(kind, m).evaluate``, is that text lowered
for m as the step's kernel writes it.  These tests hold the functions
bitwise to the hand-written references in ``reference_update``."""

import dataclasses

import numpy as np
import pytest

from horizonfv import scheme
from horizonfv.model import DEFAULT_KRUZHKOV_LEVELS
from reference_update import REFERENCE_FLUXES

EDGE = (0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324, 1.0 - 2.0 ** -53, -(1.0 - 2.0 ** -53), 0.3, -0.7, 0.5, -0.5)
PAIRS = [(u, v) for u in EDGE for v in EDGE]


@pytest.fixture
def models(burgers, quartic, sextic, shifted, rounding_quartic):
    return burgers, quartic, sextic, shifted, rounding_quartic


def _bits(x):
    return np.asarray(x, dtype=float).tobytes()


def _functions(m):
    """Each bundled flux's evaluate for m, with its hand-written reference."""
    return [(kind, scheme.numerical_flux(kind, m).evaluate, REFERENCE_FLUXES[kind]) for kind in scheme.FLUX_KINDS]


def test_the_bound_fluxes_are_their_formulas_lowered_for_the_model(burgers, quartic):
    assert scheme.FLUX_KINDS == ("godunov", "eo", "rusanov")
    assert tuple(REFERENCE_FLUXES) == scheme.FLUX_KINDS
    for kind, (formula, increments) in scheme._FLUXES.items():
        nf = scheme.NumericalFlux(kind, burgers, formula, increments)
        assert nf.evaluate is scheme.numerical_flux(kind, burgers).evaluate
        assert nf.evaluate is scheme._flux_function(burgers.f_poly, formula, burgers.flux_lipschitz)
        assert nf.evaluate.__doc__.startswith(formula)
        assert scheme.numerical_flux(kind, quartic).evaluate is not nf.evaluate


def test_generated_fluxes_equal_their_references_on_scalar_edge_pairs(models):
    for m in models:
        for kind, evaluate, reference in _functions(m):
            for u, v in PAIRS:
                for wrap in (float, np.float64, np.asarray):
                    got, expected = evaluate(wrap(u), wrap(v)), reference(m, wrap(u), wrap(v))
                    assert type(got) is type(expected) is float, (m.name, kind, u, v)
                    assert _bits(got) == _bits(expected), (m.name, kind, u, v)


def test_generated_fluxes_equal_their_references_on_arrays_and_level_broadcasts(models, rng):
    u, v = (np.array(side) for side in zip(*PAIRS))
    u, v = np.concatenate((u, rng.uniform(-1.0, 1.0, 5000))), np.concatenate((v, rng.uniform(-1.0, 1.0, 5000)))
    levels = np.array(DEFAULT_KRUZHKOV_LEVELS)[:, None]
    # the certificate's (levels, faces) arguments, and the consistent value at (v, v)
    cases = [(u, v), (np.maximum(u, levels), np.maximum(v, levels)), (np.minimum(u, levels), np.minimum(v, levels)),
             (np.maximum(v, levels), v), (u[None, :], np.minimum(v, levels)), (u, 0.25), (-0.5, v)]
    for m in models:
        for kind, evaluate, reference in _functions(m):
            for left, right in cases:
                got, expected = evaluate(left, right), reference(m, left, right)
                assert got.shape == expected.shape == np.broadcast(left, right).shape
                assert got.tobytes() == expected.tobytes(), (m.name, kind)


def test_a_flux_whose_model_is_replaced_evaluates_the_new_model(burgers, quartic, rng):
    u, v = rng.uniform(-1.0, 1.0, (2, 144))
    for kind in scheme.FLUX_KINDS:
        moved, own = dataclasses.replace(scheme.numerical_flux(kind, burgers), model=quartic), \
            scheme.numerical_flux(kind, quartic)
        assert moved.model is quartic and moved.evaluate is own.evaluate
        assert _bits(moved.evaluate(u, v)) == _bits(own.evaluate(u, v)) == _bits(REFERENCE_FLUXES[kind](quartic, u, v))
