"""The benchmark's workloads: config generation, verification, work counts.

Each workload is a sequence of ``horizonfv`` subcommands run on one
generated config file, exactly as a user would run them.  This module is
imported by the orchestrator (``run.py``), which must not need
``horizonfv`` to write configs, so everything that touches the package is
imported inside the functions that the child process calls.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# Size knobs per workload: (full run, tiny self-check run).
CAMPAIGN_TRIALS = (25, 2)
EVOLVE_CELLS = (6400, 200)
ORACLE_CELLS = (400, 40)
STEADY_CELLS = (400, 40)
STEADY_S_MAX = (5.0, 0.2)

MASS = 1.0
R_MAX = 12.0
# The CLI's default CFL fraction.  The campaign steps every trial at this
# fraction of its bound instead of a drawn one: a drawn fraction makes the
# step count heavy-tailed (about 36 % seed-to-seed spread at 25 trials,
# against 2 % at a fixed fraction), which would swamp any change in speed.
CAMPAIGN_TAU_SCALE = 0.9

STEADY_ANCHOR = (4.0, 0.9)
CHAR_START = (8.0, 0.6)
CHAR_DS = 1e-3


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    commands: tuple[str, ...]
    config: Callable[[int, str, bool], str]  # (seed, output_dir, tiny) -> config text
    facts: Callable[[str], dict]  # (config path) -> what the checks need to know (child only)
    verify: Callable[[Path, dict], list]  # (output_dir, facts) -> failure messages
    work: Callable[[Path, dict], dict]  # (output_dir, facts) -> work counts


def _fmt(x: float) -> str:
    return repr(float(x))


# ---------------------------------------------------------------- configs

def _campaign_config(seed: int, out: str, tiny: bool) -> str:
    trials = CAMPAIGN_TRIALS[tiny]
    return f"""[geometry]
mass = {_fmt(MASS)}
r_max = {_fmt(R_MAX)}
cells = 200
[evolution]
t_end = 0.4
[run]
seed = {seed}
output_dir = {out}
[fuzz]
trials = {trials}
tau_scale = {CAMPAIGN_TAU_SCALE}
"""


def _riemann_data(seed: int) -> tuple[float, float, float]:
    """Left state, right state and jump radius of the evolve workload."""
    rng = random.Random(seed)
    left = rng.uniform(-0.9, 0.9)
    right = rng.uniform(-0.9, 0.9)
    jump = rng.uniform(3.0, 11.0)
    return left, right, jump


def _evolve_config(seed: int, out: str, tiny: bool) -> str:
    left, right, jump = _riemann_data(seed)
    return f"""[model]
model = burgers
[geometry]
mass = {_fmt(MASS)}
r_max = {_fmt(R_MAX)}
cells = {EVOLVE_CELLS[tiny]}
[evolution]
flux = godunov
t_end = 0.5
snapshot_every = 200
[initial]
kind = riemann
left = {_fmt(left)}
right = {_fmt(right)}
jump_r = {_fmt(jump)}
[diagnostics]
entropy_diagnostics = false
[run]
seed = {seed}
output_dir = {out}
"""


def _oracle_config(seed: int, out: str, tiny: bool) -> str:
    # the smooth preset fixes every input, so the seed is not used
    return f"""[geometry]
mass = {_fmt(MASS)}
r_max = {_fmt(R_MAX)}
cells = 200
[evolution]
t_end = 1.0
[run]
output_dir = {out}
[oracle]
preset = smooth
cells = {ORACLE_CELLS[tiny]}
"""


def _steady_config(seed: int, out: str, tiny: bool) -> str:
    # fixed inputs; the seed is not used
    return f"""[model]
model = burgers
[geometry]
mass = {_fmt(MASS)}
r_max = {_fmt(R_MAX)}
cells = {STEADY_CELLS[tiny]}
[evolution]
flux = godunov
t_end = 0.5
[steady]
r0 = {_fmt(STEADY_ANCHOR[0])}
u0 = {_fmt(STEADY_ANCHOR[1])}
[characteristics]
r0 = {_fmt(CHAR_START[0])}
u0 = {_fmt(CHAR_START[1])}
ds = {_fmt(CHAR_DS)}
s_max = {_fmt(STEADY_S_MAX[tiny])}
[run]
output_dir = {out}
"""


# ------------------------------------------------------- artifact helpers

def _read_json(path: Path):
    return json.loads(path.read_text())


def _read_csv(path: Path, header: str):
    """Numeric rows of a CLI CSV artifact after checking its header."""
    import numpy as np

    lines = path.read_text().splitlines()
    if not lines or lines[0] != header:
        raise ValueError(f"{path.name}: header {lines[:1]} is not {header!r}")
    width = header.count(",") + 1
    values = np.array([float(x) for line in lines[1:] for x in line.split(",")])
    if values.size != width * (len(lines) - 1):
        raise ValueError(f"{path.name}: ragged rows")
    return values.reshape(-1, width)


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and math.isfinite(x)


# ------------------------------------------------------------------ facts

def scheme_steps(cells: int, mass: float, r_max: float, flux_kind: str, cfl_fraction: float,
                 t_end: float) -> int:
    """Steps the fixed-step time loop takes to reach t_end, for the Burgers model.

    Mirrors the loop of ``scheme.run`` (the last step is shortened to land
    on t_end), with the step bound from the package's own functions.
    """
    from horizonfv import Background, build_uniform_mesh, burgers_model, max_timestep, numerical_flux

    model = burgers_model()
    mesh = build_uniform_mesh(Background(mass), r_max, cells)
    tau_base = cfl_fraction * max_timestep(mesh, model, numerical_flux(flux_kind, model).lipschitz_bound)
    t, steps = 0.0, 0
    while t < t_end:
        remaining = t_end - t
        steps += 1
        if remaining <= tau_base:
            break
        t += min(tau_base, remaining)
    return steps


def _no_facts(config_path: str) -> dict:
    return {}


def _oracle_facts(config_path: str) -> dict:
    from horizonfv.config import parse_config
    from horizonfv.harness import presets

    cfg = parse_config(config_path)
    p = presets()[cfg.oracle_preset]
    return {"cells": cfg.oracle_cells,
            "steps": scheme_steps(cfg.oracle_cells, p.mass, p.r_max, p.flux_kind, p.cfl_fraction,
                                  p.t_end)}


def _steady_facts(config_path: str) -> dict:
    from horizonfv.config import parse_config

    cfg = parse_config(config_path)
    return {"cells": cfg.cells, "mass": cfg.mass, "r0": cfg.steady_r0, "u0": cfg.steady_u0,
            "steps": scheme_steps(cfg.cells, cfg.mass, cfg.r_max, cfg.flux, cfg.cfl_fraction,
                                  cfg.t_end)}


def _evolve_facts(config_path: str) -> dict:
    from horizonfv.config import parse_config

    cfg = parse_config(config_path)
    return {"cells": cfg.cells, "t_end": cfg.t_end}


# ---------------------------------------------------------- verification

def _verify_campaign(out: Path, facts: dict) -> list:
    from horizonfv.harness import BALANCE_REL_TOL, DECOMPOSITION_TOL, ENTROPY_RESIDUAL_TOL

    rep = _read_json(out / "fuzz_report.json")
    failures = []
    if rep.get("ok") is not True or rep.get("violations"):
        failures.append("fuzz report not ok")
    gates = (("worst_abs_state", 1.0), ("worst_entropy_residual", ENTROPY_RESIDUAL_TOL),
             ("worst_decomposition_defect", DECOMPOSITION_TOL),
             ("worst_balance_gap_rel", BALANCE_REL_TOL))
    for key, limit in gates:
        value = rep.get(key)
        if not (_finite(value) and value <= limit):
            failures.append(f"{key} = {value!r} exceeds {limit!r}")
    if not rep.get("total_steps", 0) > 0:
        failures.append("campaign took no steps")
    return failures


def _verify_evolve(out: Path, facts: dict) -> list:
    import numpy as np

    summary = _read_json(out / "summary.json")
    rows = _read_csv(out / "snapshots.csv", "t,r,v")
    failures = []
    if rows.shape[0] != summary["snapshots"] * facts["cells"]:
        failures.append(f"snapshots.csv has {rows.shape[0]} rows, expected "
                        f"{summary['snapshots']} x {facts['cells']}")
    v = rows[:, 2]
    if not (np.all(np.isfinite(v)) and np.all(np.abs(v) <= 1.0)):
        failures.append("a snapshot value leaves [-1, 1]")
    if rows.shape[0] and rows[-1, 0] != facts["t_end"]:
        failures.append(f"last snapshot at t = {rows[-1, 0]!r}, not t_end")
    return failures


def _verify_oracle(out: Path, facts: dict) -> list:
    error = _read_json(out / "oracle.json").get("l1_error")
    rows = _read_csv(out / "oracle_solution.csv", "r,v,v_exact")
    failures = []
    if not (_finite(error) and error > 0.0):
        failures.append(f"l1_error = {error!r} is not finite and positive")
    if rows.shape[0] != facts["cells"]:
        failures.append(f"oracle_solution.csv has {rows.shape[0]} rows, expected {facts['cells']}")
    return failures


def _verify_steady(out: Path, facts: dict) -> list:
    import numpy as np

    failures = []
    rows = _read_csv(out / "steady.csv", "r,u")
    if rows.shape[0] != facts["cells"]:
        failures.append(f"steady.csv has {rows.shape[0]} rows, expected {facts['cells']}")
    # Burgers closed form: log(1 - u^2) - log(1 - 2M/r) is constant along the profile
    mass, r0, u0 = facts["mass"], facts["r0"], facts["u0"]
    anchor = math.log(1.0 - u0 * u0) - math.log(1.0 - 2.0 * mass / r0)
    r, u = rows[:, 0], rows[:, 1]
    with np.errstate(invalid="ignore", divide="ignore"):
        invariant = np.log(1.0 - u * u) - np.log(1.0 - 2.0 * mass / r)
    deviation = float(np.max(np.abs(invariant - anchor))) if rows.size else math.inf
    if not deviation <= 1e-9:
        failures.append(f"steady.csv deviates from the Burgers closed form by {deviation!r}")
    drift = _read_json(out / "summary.json").get("invariant_drift")
    if not (_finite(drift) and drift <= 1e-7):
        failures.append(f"characteristic invariant_drift = {drift!r} exceeds 1e-7")
    l1 = _read_json(out / "steady_drift.json").get("l1_drift")
    if not _finite(l1):
        failures.append(f"l1_drift = {l1!r} is not finite")
    return failures


# ------------------------------------------------------------ work counts

def _campaign_work(out: Path, facts: dict) -> dict:
    rep = _read_json(out / "fuzz_report.json")
    cells = rep["trial_configs"][0]["cells"]
    return {"cell_steps": rep["total_steps"] * cells, "trials": rep["trials"]}


def _evolve_work(out: Path, facts: dict) -> dict:
    return {"cell_steps": _read_json(out / "summary.json")["steps"] * facts["cells"]}


def _oracle_work(out: Path, facts: dict) -> dict:
    return {"cell_steps": facts["steps"] * facts["cells"], "targets": facts["cells"]}


def _steady_work(out: Path, facts: dict) -> dict:
    samples = _read_json(out / "summary.json")["samples"]
    # steady and steady-drift each solve one profile point per cell
    return {"cell_steps": facts["steps"] * facts["cells"], "points": 2 * facts["cells"] + samples}


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="campaign",
            why="seeded fuzz campaign: the checked path the acceptance gate runs; entropy ledgers "
                "dominate at a 200-cell mesh",
            commands=("fuzz",), config=_campaign_config, verify=_verify_campaign,
            work=_campaign_work, facts=_no_facts),
        Workload(
            name="evolve",
            why="solver only: 6400-cell Burgers Riemann run with entropy diagnostics off, so "
                "scheme.step and CSV output dominate",
            commands=("run",), config=_evolve_config, verify=_verify_evolve,
            work=_evolve_work, facts=_evolve_facts),
        Workload(
            name="oracle",
            why="characteristic-shooting oracle on the smooth preset: vectorised RK4 bisection "
                "dominates, the scheme is about 1 %",
            commands=("oracle",), config=_oracle_config, verify=_verify_oracle,
            work=_oracle_work, facts=_oracle_facts),
        Workload(
            name="steady",
            why="steady, characteristics and steady-drift: Fhat tables, inverses and adaptive "
                "quadrature dominate",
            commands=("steady", "characteristics", "steady-drift"), config=_steady_config,
            verify=_verify_steady, work=_steady_work, facts=_steady_facts),
    )
}
