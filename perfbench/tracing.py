"""Spans and counts for the benchmark's traced run.

Wrappers are installed from outside the package, on the module attributes
through which ``horizonfv`` calls its own public functions (for example
``horizonfv.cli.step`` and ``horizonfv.harness.step`` are separate
bindings of ``scheme.step``).  Every call through a wrapped binding
records a span: name, start, end, parent span and pass id, plus the work
it was given and the model evaluations and Fhat value calls made inside
it.  Spans stay in memory until the run ends; per-layer metrics are
computed from them per pass.

A binding that no longer exists is skipped, and the metrics that depend on
it are reported as absent.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import statistics
from collections import defaultdict
from time import perf_counter

import numpy as np


def _cells(args, kwargs, result):
    return args[0].values.size


def _faces(args, kwargs, result):
    return np.size(args[1])


def _arg(i):
    return lambda args, kwargs, result: np.size(args[i])


# span name -> (bindings "module:attribute", work extractor or None)
SPANS = {
    "cli.dispatch": (("horizonfv.cli:dispatch",), None),
    "config.parse_config": (("horizonfv.cli:parse_config",), None),
    "harness.fuzz_invariants": (("horizonfv.cli:fuzz_invariants",), lambda a, k, r: int(a[0])),
    "harness.exact_solution_by_shooting": (("horizonfv.cli:exact_solution_by_shooting",), _arg(4)),
    "harness.run_preset": (("horizonfv.cli:run_preset",), None),
    "harness.steady_drift_detail": (("horizonfv.cli:steady_drift_detail",), None),
    "scheme.run": (("horizonfv.harness:run",), None),
    "scheme.step": (("horizonfv.cli:step", "horizonfv.harness:step", "horizonfv.scheme:step"), _cells),
    "scheme.project_initial": (("horizonfv.cli:project_initial", "horizonfv.harness:project_initial",
                                "horizonfv.scheme:project_initial"), None),
    "geometry.max_timestep": (("horizonfv.cli:max_timestep", "horizonfv.harness:max_timestep",
                               "horizonfv.scheme:max_timestep"), None),
    "geometry.build_uniform_mesh": (("horizonfv.cli:build_uniform_mesh",
                                     "horizonfv.harness:build_uniform_mesh"), None),
    "model.check_structure": (("horizonfv.cli:check_structure", "horizonfv.scheme:check_structure",
                               "horizonfv.model:check_structure"), None),
    "entropy.cell_entropy_residuals": (("horizonfv.entropy:cell_entropy_residuals",), _cells),
    "entropy.numerical_entropy_flux": (("horizonfv.entropy:numerical_entropy_flux",), None),
    "entropy.face_reconstruction": (("horizonfv.entropy:face_reconstruction",), None),
    "entropy.convex_decomposition_check": (("horizonfv.entropy:convex_decomposition_check",), _cells),
    "characteristics.build_fhat_table": (("horizonfv.cli:build_fhat_table",
                                          "horizonfv.harness:build_fhat_table"), None),
    "characteristics.fhat_inverse": (("horizonfv.characteristics:fhat_inverse",), None),
    "characteristics.steady_profile": (("horizonfv.cli:steady_profile",
                                        "horizonfv.harness:steady_profile"), _arg(4)),
    "characteristics.trace_exterior": (("horizonfv.cli:trace_exterior",),
                                       lambda a, k, r: len(r) - 1),
    "characteristics.exterior_invariant": (("horizonfv.cli:exterior_invariant",),
                                           lambda a, k, r: len(a[2])),
    "quadrature.adaptive_simpson": (("horizonfv.characteristics:adaptive_simpson",), None),
}
# the evaluate field of every NumericalFlux these bindings return
FLUX_BINDINGS = ("horizonfv.cli:numerical_flux", "horizonfv.harness:numerical_flux")
# every FluxModel these bindings return gets counting callables
MODEL_BINDINGS = ("horizonfv.config:RunConfig.build_model", "horizonfv.harness:burgers_model")
VALUE_BINDING = "horizonfv.characteristics:FhatTable.value"

# Per-layer metrics: name -> (unit, spans it needs).  Ratios whose base is 0
# read 0.  Metrics in TIME_UNITS are corrected for machine speed like every
# other benchmark timing (see calibrate.py).
TIME_UNITS = ("s", "us", "ns")
LAYER_METRICS = {
    "model.evals": ("count", ("model",)),
    "model.points": ("count", ("model",)),
    "model.check_structure.calls": ("count", ("model.check_structure",)),
    "geometry.max_timestep.calls": ("count", ("geometry.max_timestep",)),
    "geometry.max_timestep.us_per_call": ("us", ("geometry.max_timestep",)),
    "geometry.build_uniform_mesh.calls": ("count", ("geometry.build_uniform_mesh",)),
    "scheme.step.calls": ("count", ("scheme.step",)),
    "scheme.step.self_s": ("s", ("scheme.step",)),
    "scheme.step.ns_per_cell_step": ("ns", ("scheme.step",)),
    "scheme.flux.calls": ("count", ("scheme.flux",)),
    "scheme.flux.faces": ("count", ("scheme.flux",)),
    "scheme.flux.ns_per_face": ("ns", ("scheme.flux",)),
    "scheme.run.calls": ("count", ("scheme.run",)),
    "scheme.run.self_s": ("s", ("scheme.run",)),
    "scheme.project_initial.calls": ("count", ("scheme.project_initial",)),
    "entropy.cell_entropy_residuals.calls": ("count", ("entropy.cell_entropy_residuals",)),
    "entropy.cell_entropy_residuals.self_s": ("s", ("entropy.cell_entropy_residuals",)),
    "entropy.cell_entropy_residuals.ns_per_cell_level": ("ns", ("entropy.cell_entropy_residuals",)),
    "entropy.numerical_entropy_flux.calls": ("count", ("entropy.numerical_entropy_flux",)),
    "entropy.face_reconstruction.calls": ("count", ("entropy.face_reconstruction",)),
    "entropy.face_reconstruction.per_step": ("ratio", ("entropy.face_reconstruction", "scheme.step")),
    "entropy.convex_decomposition_check.calls": ("count", ("entropy.convex_decomposition_check",)),
    "entropy.convex_decomposition_check.ns_per_cell": ("ns", ("entropy.convex_decomposition_check",)),
    "characteristics.build_fhat_table.calls": ("count", ("characteristics.build_fhat_table",)),
    "characteristics.build_fhat_table.s_per_call": ("s", ("characteristics.build_fhat_table",)),
    "characteristics.fhat_inverse.calls": ("count", ("characteristics.fhat_inverse",)),
    "characteristics.fhat_inverse.us_per_call": ("us", ("characteristics.fhat_inverse",)),
    "characteristics.fhat_inverse.value_calls_per_inverse": (
        "ratio", ("characteristics.fhat_inverse", "value")),
    "characteristics.steady_profile.points": ("count", ("characteristics.steady_profile",)),
    "characteristics.steady_profile.us_per_point": ("us", ("characteristics.steady_profile",)),
    "characteristics.trace_exterior.steps": ("count", ("characteristics.trace_exterior",)),
    "characteristics.trace_exterior.us_per_step": ("us", ("characteristics.trace_exterior",)),
    "characteristics.exterior_invariant.samples": ("count", ("characteristics.exterior_invariant",)),
    "characteristics.exterior_invariant.us_per_sample": ("us", ("characteristics.exterior_invariant",)),
    "quadrature.adaptive_simpson.calls": ("count", ("quadrature.adaptive_simpson",)),
    "quadrature.adaptive_simpson.us_per_call": ("us", ("quadrature.adaptive_simpson",)),
    "quadrature.adaptive_simpson.model_evals_per_call": (
        "ratio", ("quadrature.adaptive_simpson", "model")),
    "harness.fuzz_invariants.trials": ("count", ("harness.fuzz_invariants",)),
    "harness.fuzz_invariants.self_s": ("s", ("harness.fuzz_invariants",)),
    "harness.exact_solution_by_shooting.targets": ("count", ("harness.exact_solution_by_shooting",)),
    "harness.exact_solution_by_shooting.us_per_target": (
        "us", ("harness.exact_solution_by_shooting",)),
    "harness.exact_solution_by_shooting.model_evals_per_target": (
        "ratio", ("harness.exact_solution_by_shooting", "model")),
    "harness.run_preset.calls": ("count", ("harness.run_preset",)),
    "harness.steady_drift_detail.calls": ("count", ("harness.steady_drift_detail",)),
    "cli.dispatch.self_s": ("s", ("cli.dispatch",)),
    "cli.bytes_written": ("bytes", ()),
    "config.parse_config.s": ("s", ("config.parse_config",)),
    "trace.overhead_ratio": ("ratio", ()),
}

# Layers each workload must bypass: their call counts read 0 there.
BYPASSES = {
    "entropy.": ("evolve", "oracle", "steady"),
    "characteristics.": ("campaign", "evolve", "oracle"),
    "quadrature.": ("campaign", "evolve", "oracle"),
}


def _resolve(binding: str):
    """(owner, attribute name) of a "module:attr.attr" binding, or None."""
    module_name, _, path = binding.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    return (owner, attr) if hasattr(owner, attr) else None


class Tracer:
    """In-memory span recorder with per-pass counters."""

    def __init__(self):
        # span: (name, start, end, parent index, pass id, work, model evals, value calls)
        self.spans: list = []
        self._stack: list = []
        self.pass_id = -1
        self.model_evals = 0
        self.model_points = 0
        self.value_calls = 0
        self.pass_counts: dict = {}
        self.installed: set = set()
        self._start_counts = (0, 0)

    # ---------------------------------------------------------- recording

    def wrap(self, name, fn, work=None):
        """fn wrapped so that each call records a span called name."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(tracer.spans)
            tracer.spans.append(None)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer._stack.append(index)
            evals, values = tracer.model_evals, tracer.value_calls
            finished = False
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                finished = True
            finally:
                end = perf_counter()
                tracer._stack.pop()
                amount = work(args, kwargs, result) if finished and work is not None else 0
                tracer.spans[index] = (name, start, end, parent, tracer.pass_id, amount,
                                       tracer.model_evals - evals, tracer.value_calls - values)
            return result

        return traced

    def _counted(self, fn):
        tracer = self

        def counted(x):
            tracer.model_evals += 1
            tracer.model_points += getattr(x, "size", 1)  # python floats are one point
            return fn(x)

        return counted

    def count_model(self, model):
        """A copy of model whose f, df, h and dh count their calls."""
        return dataclasses.replace(model, f=self._counted(model.f), df=self._counted(model.df),
                                   h=self._counted(model.h), dh=self._counted(model.dh))

    def begin_pass(self, pass_id: int) -> None:
        self.pass_id = pass_id
        self._start_counts = (self.model_evals, self.model_points)

    def end_pass(self) -> None:
        self.pass_counts[self.pass_id] = (self.model_evals - self._start_counts[0],
                                          self.model_points - self._start_counts[1])

    # ------------------------------------------------------- installation

    def _patch(self, binding: str, make) -> bool:
        target = _resolve(binding)
        if target is None:
            return False
        owner, attr = target
        setattr(owner, attr, make(getattr(owner, attr)))
        return True

    def install(self) -> None:
        """Wrap every binding that exists; remember which span names are live."""
        for name, (bindings, work) in SPANS.items():
            hits = [self._patch(b, lambda fn, n=name, w=work: self.wrap(n, fn, w)) for b in bindings]
            if any(hits):
                self.installed.add(name)

        def traced_flux(numerical_flux):
            @functools.wraps(numerical_flux)
            def bound(*args, **kwargs):
                nf = numerical_flux(*args, **kwargs)
                return dataclasses.replace(nf, evaluate=self.wrap("scheme.flux", nf.evaluate, _faces))
            return bound

        if any([self._patch(b, traced_flux) for b in FLUX_BINDINGS]):
            self.installed.add("scheme.flux")

        def counting_model(build):
            @functools.wraps(build)
            def built(*args, **kwargs):
                return self.count_model(build(*args, **kwargs))
            return built

        if any([self._patch(b, counting_model) for b in MODEL_BINDINGS]):
            self.installed.add("model")

        def counting_value(value):
            @functools.wraps(value)
            def counted(table, u):
                self.value_calls += 1
                return value(table, u)
            return counted

        if self._patch(VALUE_BINDING, counting_value):
            self.installed.add("value")

    # ------------------------------------------------------------ metrics

    def span_table(self, pass_id: int) -> dict:
        """Per span name: calls, inclusive and self seconds, work, evals, value calls."""
        child_time = defaultdict(float)
        for name, start, end, parent, pid, *_ in self.spans:
            if pid == pass_id and parent >= 0:
                child_time[parent] += end - start
        table = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "work": 0,
                                     "model_evals": 0, "value_calls": 0})
        for index, (name, start, end, parent, pid, work, evals, values) in enumerate(self.spans):
            if pid != pass_id:
                continue
            row = table[name]
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child_time[index]
            row["work"] += work
            row["model_evals"] += evals
            row["value_calls"] += values
        return dict(table)

    def pass_metrics(self, pass_id: int, bytes_written: int) -> dict:
        """Every per-layer metric of one pass whose spans are installed."""
        t = self.span_table(pass_id)
        zero = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "work": 0, "model_evals": 0,
                "value_calls": 0}

        def row(name):
            return t.get(name, zero)

        def per(num, den, scale=1.0):
            return num / den * scale if den else 0.0

        step, flux = row("scheme.step"), row("scheme.flux")
        ledger, decomp = row("entropy.cell_entropy_residuals"), row("entropy.convex_decomposition_check")
        inverse, simpson = row("characteristics.fhat_inverse"), row("quadrature.adaptive_simpson")
        shoot, table = row("harness.exact_solution_by_shooting"), row("characteristics.build_fhat_table")
        profile, path = row("characteristics.steady_profile"), row("characteristics.trace_exterior")
        invariant, mts = row("characteristics.exterior_invariant"), row("geometry.max_timestep")
        evals, points = self.pass_counts.get(pass_id, (0, 0))
        values = {
            "model.evals": evals,
            "model.points": points,
            "model.check_structure.calls": row("model.check_structure")["calls"],
            "geometry.max_timestep.calls": mts["calls"],
            "geometry.max_timestep.us_per_call": per(mts["total_s"], mts["calls"], 1e6),
            "geometry.build_uniform_mesh.calls": row("geometry.build_uniform_mesh")["calls"],
            "scheme.step.calls": step["calls"],
            "scheme.step.self_s": step["self_s"],
            "scheme.step.ns_per_cell_step": per(step["total_s"], step["work"], 1e9),
            "scheme.flux.calls": flux["calls"],
            "scheme.flux.faces": flux["work"],
            "scheme.flux.ns_per_face": per(flux["total_s"], flux["work"], 1e9),
            "scheme.run.calls": row("scheme.run")["calls"],
            "scheme.run.self_s": row("scheme.run")["self_s"],
            "scheme.project_initial.calls": row("scheme.project_initial")["calls"],
            "entropy.cell_entropy_residuals.calls": ledger["calls"],
            "entropy.cell_entropy_residuals.self_s": ledger["self_s"],
            "entropy.cell_entropy_residuals.ns_per_cell_level": per(ledger["total_s"], ledger["work"], 1e9),
            "entropy.numerical_entropy_flux.calls": row("entropy.numerical_entropy_flux")["calls"],
            "entropy.face_reconstruction.calls": row("entropy.face_reconstruction")["calls"],
            "entropy.face_reconstruction.per_step": per(row("entropy.face_reconstruction")["calls"],
                                                        step["calls"]),
            "entropy.convex_decomposition_check.calls": decomp["calls"],
            "entropy.convex_decomposition_check.ns_per_cell": per(decomp["total_s"], decomp["work"], 1e9),
            "characteristics.build_fhat_table.calls": table["calls"],
            "characteristics.build_fhat_table.s_per_call": per(table["total_s"], table["calls"]),
            "characteristics.fhat_inverse.calls": inverse["calls"],
            "characteristics.fhat_inverse.us_per_call": per(inverse["total_s"], inverse["calls"], 1e6),
            "characteristics.fhat_inverse.value_calls_per_inverse": per(inverse["value_calls"],
                                                                        inverse["calls"]),
            "characteristics.steady_profile.points": profile["work"],
            "characteristics.steady_profile.us_per_point": per(profile["total_s"], profile["work"], 1e6),
            "characteristics.trace_exterior.steps": path["work"],
            "characteristics.trace_exterior.us_per_step": per(path["total_s"], path["work"], 1e6),
            "characteristics.exterior_invariant.samples": invariant["work"],
            "characteristics.exterior_invariant.us_per_sample": per(invariant["total_s"],
                                                                    invariant["work"], 1e6),
            "quadrature.adaptive_simpson.calls": simpson["calls"],
            "quadrature.adaptive_simpson.us_per_call": per(simpson["total_s"], simpson["calls"], 1e6),
            "quadrature.adaptive_simpson.model_evals_per_call": per(simpson["model_evals"],
                                                                    simpson["calls"]),
            "harness.fuzz_invariants.trials": row("harness.fuzz_invariants")["work"],
            "harness.fuzz_invariants.self_s": row("harness.fuzz_invariants")["self_s"],
            "harness.exact_solution_by_shooting.targets": shoot["work"],
            "harness.exact_solution_by_shooting.us_per_target": per(shoot["total_s"], shoot["work"], 1e6),
            "harness.exact_solution_by_shooting.model_evals_per_target": per(shoot["model_evals"],
                                                                             shoot["work"]),
            "harness.run_preset.calls": row("harness.run_preset")["calls"],
            "harness.steady_drift_detail.calls": row("harness.steady_drift_detail")["calls"],
            "cli.dispatch.self_s": row("cli.dispatch")["self_s"],
            "cli.bytes_written": bytes_written,
            "config.parse_config.s": row("config.parse_config")["total_s"],
        }
        return {name: value for name, value in values.items()
                if all(need in self.installed for need in LAYER_METRICS[name][1])}


def median_metrics(per_pass: list) -> dict:
    """Per-layer metrics over passes: the median of each, in LAYER_METRICS order."""
    return {name: statistics.median(p[name] for p in per_pass if name in p)
            for name in LAYER_METRICS if any(name in p for p in per_pass)}


def bypass_violations(workload: str, metrics: dict) -> list:
    """Call counts of layers the workload should bypass that are not 0."""
    return [f"{name} = {value}" for name, value in sorted(metrics.items())
            for prefix, bypassing in BYPASSES.items()
            if name.startswith(prefix) and workload in bypassing
            and name.endswith((".calls", ".points", ".steps", ".samples")) and value != 0]
