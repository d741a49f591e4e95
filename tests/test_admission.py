"""Admission in one place: every public callable that takes, returns or is a model or a flux is
either covered (it refuses each inadmissible model, naming the failed flags, before any step,
trace or shot) or exempt with its reason.  The set is generated from the annotations, so a new
such callable fails here until it is classified."""

import dataclasses
import importlib
import inspect
import pkgutil
import typing

import numpy as np
import pytest

import horizonfv
from horizonfv import characteristics, entropy, harness, scheme
from horizonfv.errors import UnsupportedModelError
from horizonfv.geometry import Background, build_uniform_mesh, max_timestep
from horizonfv.model import FluxModel, burgers_model, polynomial_model
from horizonfv.scheme import FLUX_KINDS, NumericalFlux, StateVector, numerical_flux
from test_model import GAP_MODEL, WIGGLE_F, WIGGLE_H

# each model with the flags it fails; no model fails boundary_nondegenerate_ok alone
FAILING = {
    "linear": (((0.0, 1.0), (0.0,)), "boundary_roots_ok, interior_negative_ok, flux_monotone_shape_ok"),
    "gap": (GAP_MODEL, "interior_negative_ok"),
    "wiggle": ((WIGGLE_F, WIGGLE_H), "flux_monotone_shape_ok"),
}

EXEMPT = {
    "FluxModel": "check-model must build an inadmissible model to report its flags",
    "polynomial_model": "check-model must build an inadmissible model to report its flags",
    "burgers_model": "it takes no model, and the one it builds is admissible",
    "max_timestep": "it only computes a bound from sup |f'| and sup |f' + h'|, defined for any model",
    "trace_exterior": "it integrates an ODE defined for any polynomial pair; tier-1 traces the inadmissible"
                      " 'rising' model in test_characteristics.py up to its overshoot",
    "exact_solution_by_shooting": "it integrates an ODE defined for any polynomial pair and builds no flux",
    "face_reconstruction": "it is an identity of a recorded step's face states for any polynomial pair;"
                           " the certificate hands it the model of a flux, which was admitted",
}


def _mesh():
    return build_uniform_mesh(Background(1.0), 12.0, 20)


def _values():
    return np.full(20, 0.9)


def _fluxes(m):
    """Every way to a flux of m: by kind, by the constructor, and by replacing an admitted flux's model."""
    for kind in FLUX_KINDS:
        yield lambda kind=kind: numerical_flux(kind, m)
        yield lambda kind=kind: NumericalFlux(kind, m, *scheme._FLUXES[kind])
        yield lambda kind=kind: dataclasses.replace(numerical_flux(kind, burgers_model()), model=m)


def _through_a_flux(use):
    """A callable taking a flux is reached only through one: use(nf) for every way to build it."""
    return lambda m: [lambda build=build: use(build()) for build in _fluxes(m)]


COVERED = {
    "FhatTable": lambda m: [lambda: characteristics.FhatTable(m)],
    "build_fhat_table": lambda m: [lambda: characteristics.build_fhat_table(m)],
    "numerical_flux": lambda m: [lambda kind=kind: numerical_flux(kind, m) for kind in FLUX_KINDS],
    "NumericalFlux": _through_a_flux(lambda nf: nf),
    "step": _through_a_flux(lambda nf: scheme.step(StateVector(_values(), 0.0, 0), _mesh(), nf, 1e-3)),
    "run": _through_a_flux(lambda nf: scheme.run(_mesh(), nf, _values(), t_end=1.0)),
    "convex_coefficients": _through_a_flux(lambda nf: scheme.convex_coefficients(None, _mesh(), nf)),
    "numerical_entropy_flux": _through_a_flux(lambda nf: entropy.numerical_entropy_flux(nf, 0.0, 0.5, -0.5)),
    "cell_entropy_residuals": _through_a_flux(
        lambda nf: entropy.cell_entropy_residuals(None, None, _mesh(), nf, (0.0,))),
    "run_preset": lambda m: [lambda name=name: harness.run_preset(harness.presets()[name], m)
                             for name in harness.PRESET_NAMES],
    "self_convergence": lambda m: [lambda: harness.self_convergence(harness.presets()["smooth"], m, 3)],
    "steady_drift_detail": lambda m: [lambda mass=mass: harness.steady_drift_detail(m, mass, 4.0, 0.5, 20, 0.1)
                                      for mass in (0.0, 1.0)],
    "fuzz_invariants": lambda m: [lambda: harness.fuzz_invariants(2, 42, m=m)],
}


def _types(obj) -> set:
    """The classes obj's parameters and result are annotated with, Optional unwrapped, and obj if a class."""
    try:
        signature = inspect.signature(obj, eval_str=True)
    except ValueError:  # a builtin type such as the package's exceptions
        return set()
    hints = [p.annotation for p in signature.parameters.values()] + [signature.return_annotation]
    found = {t for hint in hints for t in (hint, *typing.get_args(hint)) if isinstance(t, type)}
    return found | ({obj} if isinstance(obj, type) else set())


def _model_callables() -> set:
    names = set()
    for info in pkgutil.iter_modules(horizonfv.__path__):
        module = importlib.import_module(f"horizonfv.{info.name}")
        for name, obj in vars(module).items():
            if (not name.startswith("_") and callable(obj) and getattr(obj, "__module__", None) == module.__name__
                    and _types(obj) & {FluxModel, NumericalFlux}):
                names.add(name)
    return names


def test_every_callable_that_takes_or_builds_a_model_or_a_flux_is_covered_or_exempt():
    assert not COVERED.keys() & EXEMPT.keys()
    assert _model_callables() == COVERED.keys() | EXEMPT.keys()
    assert burgers_model().structure.all_ok


@pytest.fixture
def nothing_runs(monkeypatch):
    """No step, trace or shot may be taken: each of the three raises."""
    def refuse(*args, **kwargs):
        raise AssertionError("a step, trace or shot ran before admission")

    monkeypatch.setattr(scheme._Buffers, "advance", refuse)
    monkeypatch.setattr(characteristics, "_rk4_trace", refuse)
    monkeypatch.setattr(harness, "_integrate_chars", refuse)


@pytest.mark.parametrize("name", sorted(COVERED))
@pytest.mark.parametrize("model_name", sorted(FAILING))
def test_covered_callables_refuse_an_inadmissible_model_before_any_step(nothing_runs, name, model_name):
    (f_coeffs, h_coeffs), flags = FAILING[model_name]
    m = polynomial_model(model_name, f_coeffs, h_coeffs)
    assert [flag for flag, ok in vars(m.structure).items() if not ok] == flags.split(", ")
    for call in COVERED[name](m):
        with pytest.raises(UnsupportedModelError, match=f"^model '{model_name}' is inadmissible: {flags} false$"):
            call()


def test_exempt_callables_accept_an_inadmissible_model():
    linear = polynomial_model("linear", (0.0, 1.0), (0.0,))
    assert not linear.structure.all_ok
    assert max_timestep(_mesh(), linear, linear.flux_lipschitz) > 0.0
    assert harness.exact_solution_by_shooting(linear, 0.0, lambda r: np.full_like(r, 0.5), 0.1,
                                              np.linspace(1.0, 2.0, 4)).tolist() == [0.5] * 4


def test_the_run_of_an_inadmissible_linear_model_is_refused_when_its_flux_is_built(nothing_runs):
    # refused by name before a step, not left to breach the maximum principle mid-run
    linear = polynomial_model("linear", [0.0, 1.0], [0.0])
    with pytest.raises(UnsupportedModelError, match="^model 'linear' is inadmissible: "
                       "boundary_roots_ok, interior_negative_ok, flux_monotone_shape_ok false$"):
        scheme.run(build_uniform_mesh(Background(1.0), 12.0, 100), numerical_flux("rusanov", linear),
                   np.full(100, 0.9), t_end=1.0)
