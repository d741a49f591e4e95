"""The scheme's L1 error against the shooting oracle for a preset evolved
under a model, and its order under refinement; ``horizonfv oracle``
computes the same error for one preset and the configured model."""

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from horizonfv.harness import Preset, _fit_order, exact_solution_by_shooting, run_preset
from horizonfv.model import FluxModel


def oracle_compare(preset: Preset, m: FluxModel, cells: int) -> float:
    """Width-weighted L1 distance between the scheme and the shooting oracle."""
    mesh, result = run_preset(preset, m, cells)
    exact = exact_solution_by_shooting(m, preset.mass, preset.v0, preset.t_end, mesh.centers)
    return float(np.sum(mesh.widths * np.abs(result.final.values - exact)))


@dataclass(frozen=True, eq=False)
class OracleConvergence:
    cells: list
    errors: list
    observed_order: float


def oracle_convergence(preset: Preset, m: FluxModel, cell_list: Sequence[int]) -> OracleConvergence:
    """Oracle errors of the model m across resolutions with a fitted order."""
    errors = [oracle_compare(preset, m, cells) for cells in cell_list]
    widths = [(preset.r_max - 2.0 * preset.mass) / c for c in cell_list]
    return OracleConvergence(cells=list(cell_list), errors=errors,
                             observed_order=_fit_order(widths, errors))
