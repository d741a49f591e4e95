"""The benchmark in perfbench/ imports ``horizonfv`` names inside its
functions, so a public name removed from the package would otherwise
surface only when someone runs the benchmark.  These checks read
perfbench/*.py with ast and load perfbench/workloads.py without modifying
either (no bytecode is written), then run each workload's facts."""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def horizonfv_imports():
    """(file, module, name) for each name a perfbench file imports from horizonfv; name is None
    for a plain ``import horizonfv...``."""
    found = []
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module.split(".")[0] == "horizonfv":
                found += [(path.name, node.module, alias.name) for alias in node.names]
            elif isinstance(node, ast.Import):
                found += [(path.name, alias.name, None) for alias in node.names
                          if alias.name.split(".")[0] == "horizonfv"]
    return found


def test_every_name_the_benchmark_imports_from_horizonfv_resolves():
    imports = horizonfv_imports()
    assert {file for file, *_ in imports} >= {"child.py", "workloads.py"}
    dead = [f"{file}: from {module} import {name}" for file, module, name in imports
            if importlib.util.find_spec(module) is None
            or name is not None and not (hasattr(importlib.import_module(module), name)
                                         or importlib.util.find_spec(f"{module}.{name}") is not None)]
    assert not dead, f"benchmark imports that no longer resolve: {dead}"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("_perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    sys.modules[spec.name] = module  # dataclasses look their module up while the class is built
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
        del sys.modules[spec.name]
    return module


def test_each_workloads_facts_run_on_its_tiny_config(workloads, tmp_path):
    assert set(workloads.WORKLOADS) >= {"evolve", "oracle", "steady"}
    for name, workload in workloads.WORKLOADS.items():
        config = tmp_path / f"{name}.ini"
        config.write_text(workload.config(42, str(tmp_path / name), True))
        facts = workload.facts(str(config))
        assert isinstance(facts, dict), name
