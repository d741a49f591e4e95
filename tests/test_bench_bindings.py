"""The benchmark's tracer patches package functions by "module:attribute"
name; a binding that stops resolving silently drops its per-layer metrics.
These checks load perfbench/tracing.py without modifying it (no bytecode is
written) and require every binding it names to resolve, and a flux wrapped
as its installer wraps one to be accepted and to leave the step untouched."""

import dataclasses
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def test_every_span_resolves_a_binding(tracing):
    dead = [name for name, (bindings, _) in tracing.SPANS.items()
            if not any(tracing._resolve(b) for b in bindings)]
    assert not dead, f"spans with no live binding: {dead}"


def test_every_flux_model_and_value_binding_resolves(tracing):
    bindings = (*tracing.FLUX_BINDINGS, *tracing.MODEL_BINDINGS, tracing.VALUE_BINDING)
    dead = [b for b in bindings if tracing._resolve(b) is None]
    assert not dead, f"bindings that no longer resolve: {dead}"


def test_a_traced_flux_runs_the_compiled_step_and_traces_the_certificate(tracing, burgers):
    # the tracer swaps each flux's evaluate for a functools.wraps wrapper through dataclasses.replace;
    # the step writes the flux's formula into its kernel and never calls evaluate, the certificate does
    from horizonfv import (Background, ContractError, build_uniform_mesh, cell_entropy_residuals, numerical_flux,
                           project_initial, run, step)
    from horizonfv.model import DEFAULT_KRUZHKOV_LEVELS

    tracer = tracing.Tracer()
    mesh = build_uniform_mesh(Background(1.0), 12.0, 64)
    values = project_initial(mesh, lambda r: 0.6 * np.sin(r))[0]
    for kind in ("godunov", "eo", "rusanov"):
        nf = numerical_flux(kind, burgers)
        traced = dataclasses.replace(nf, evaluate=tracer.wrap("scheme.flux", nf.evaluate, tracing._faces))
        plain, seen = run(mesh, nf, values, t_end=0.5, snapshot_every=3), []
        result = run(mesh, traced, values, t_end=0.5, snapshot_every=3,
                     on_step=lambda after, report: seen.append((after, report)))
        assert [s.values.tobytes() for s in result.snapshots] == [s.values.tobytes() for s in plain.snapshots]
        step(result.snapshots[0], mesh, traced, seen[0][1].tau_used)
        assert not [span for span in tracer.spans if span[0] == "scheme.flux"], kind

        cell_entropy_residuals(*seen[0], mesh, traced, DEFAULT_KRUZHKOV_LEVELS)
        spans = [span for span in tracer.spans if span[0] == "scheme.flux"]
        assert spans and all(span[5] > 0 for span in spans), kind
        tracer.spans.clear()

        other = numerical_flux("rusanov" if kind == "godunov" else "godunov", burgers)
        for foreign in (lambda u, v: nf.evaluate(u, v), other.evaluate):
            with pytest.raises(ContractError, match="evaluate is not the function of its formula"):
                dataclasses.replace(nf, evaluate=tracer.wrap("scheme.flux", foreign, tracing._faces))
