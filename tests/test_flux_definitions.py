"""Each bundled flux is defined once, as formula text in ``scheme._FLUXES``;
its function, ``numerical_flux(kind, m).evaluate``, runs that text in
numpy.  These tests hold the functions bitwise to the hand-written
references in ``reference_update``."""

import dataclasses

import numpy as np
import pytest

from horizonfv import UnsupportedModelError, polynomial_model, scheme
from horizonfv.model import DEFAULT_KRUZHKOV_LEVELS
from reference_update import REFERENCE_FLUXES

# each bundled flux's function, built from its formula, with its hand-written reference
FUNCTIONS = [(scheme._numpy_flux(kind, formula), REFERENCE_FLUXES[kind])
             for kind, (formula, _) in scheme._FLUXES.items()]
EDGE = (0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324, 1.0 - 2.0 ** -53, -(1.0 - 2.0 ** -53), 0.3, -0.7, 0.5, -0.5)
PAIRS = [(u, v) for u in EDGE for v in EDGE]


@pytest.fixture
def models(burgers, quartic, sextic, shifted, rounding_quartic):
    return burgers, quartic, sextic, shifted, rounding_quartic


def _bits(x):
    return np.asarray(x, dtype=float).tobytes()


def test_the_bound_fluxes_are_the_table_run_in_numpy(burgers):
    assert scheme.FLUX_KINDS == ("godunov", "eo", "rusanov")
    assert tuple(REFERENCE_FLUXES) == scheme.FLUX_KINDS
    bound = [scheme.numerical_flux(kind, burgers).evaluate for kind in scheme.FLUX_KINDS]
    assert [evaluate for evaluate, _ in FUNCTIONS] == bound
    for kind, (formula, increments) in scheme._FLUXES.items():
        nf = scheme.NumericalFlux(kind, burgers, formula, increments)
        assert nf.evaluate is scheme._numpy_flux(kind, formula) and nf.evaluate.__doc__.startswith(formula)


def test_generated_fluxes_equal_their_references_on_scalar_edge_pairs(models):
    for m in models:
        for evaluate, reference in FUNCTIONS:
            for u, v in PAIRS:
                for wrap in (float, np.float64, np.asarray):
                    got, expected = evaluate(m, wrap(u), wrap(v)), reference(m, wrap(u), wrap(v))
                    assert type(got) is type(expected) is float, (m.name, evaluate.__name__, u, v)
                    assert _bits(got) == _bits(expected), (m.name, evaluate.__name__, u, v)


def test_generated_fluxes_equal_their_references_on_arrays_and_level_broadcasts(models, rng):
    u, v = (np.array(side) for side in zip(*PAIRS))
    u, v = np.concatenate((u, rng.uniform(-1.0, 1.0, 5000))), np.concatenate((v, rng.uniform(-1.0, 1.0, 5000)))
    levels = np.array(DEFAULT_KRUZHKOV_LEVELS)[:, None]
    # the certificate's (levels, faces) arguments, and the consistent value at (v, v)
    cases = [(u, v), (np.maximum(u, levels), np.maximum(v, levels)), (np.minimum(u, levels), np.minimum(v, levels)),
             (np.maximum(v, levels), v), (u[None, :], np.minimum(v, levels))]
    for m in models:
        for evaluate, reference in FUNCTIONS:
            for left, right in cases:
                got, expected = evaluate(m, left, right), reference(m, left, right)
                assert got.shape == expected.shape == np.broadcast(left, right).shape
                assert got.tobytes() == expected.tobytes(), (m.name, evaluate.__name__)


def test_generated_fluxes_evaluate_f_at_the_points_their_references_do(models):
    u, v = np.linspace(-1.0, 1.0, 7), np.linspace(1.0, -1.0, 7)
    for m in models:
        for evaluate, reference in FUNCTIONS:
            sizes = []
            for flux in (evaluate, reference):
                calls = []
                counted = dataclasses.replace(m, f=lambda s: calls.append(np.size(s)) or m.f(s))
                assert _bits(flux(counted, u, v)) == _bits(flux(m, u, v))
                sizes.append(sorted(calls))
            assert sizes[0] == sizes[1], (m.name, evaluate.__name__)


def test_shape_fluxes_refuse_a_model_without_the_shape_on_every_call():
    linear = polynomial_model("linear", [0.0, 1.0], [0.0])
    for kind, (evaluate, reference) in zip(scheme.FLUX_KINDS, FUNCTIONS):
        if kind == "rusanov":
            assert evaluate(linear, 0.25, -0.5) == reference(linear, 0.25, -0.5)
            continue
        for _ in range(2):
            with pytest.raises(UnsupportedModelError) as got:
                evaluate(linear, 0.25, -0.5)
            with pytest.raises(UnsupportedModelError) as expected:
                reference(linear, 0.25, -0.5)
            assert str(got.value) == str(expected.value)
