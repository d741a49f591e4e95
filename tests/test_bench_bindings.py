"""The benchmark's tracer patches package functions by "module:attribute"
name; a binding that stops resolving silently drops its per-layer metrics.
These checks load perfbench/tracing.py without modifying it (no bytecode is
written) and require every binding it names to resolve."""

import importlib.util
import sys
from pathlib import Path

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
