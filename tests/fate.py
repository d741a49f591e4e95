"""The late-time fate of a characteristic, from the Fhat branch inverses;
the acceptance and characteristics tests check it against the closed
forms of the built-in model."""

import math
from dataclasses import dataclass

import numpy as np

from horizonfv import DomainError, FhatTable, fhat_inverse


@dataclass(frozen=True)
class Fate:
    """Late-time classification of a characteristic."""

    kind: str  # "falls_in" | "escapes" | "marginal"
    u_limit: float
    r_limit_finite: bool


def escape_velocity(table: FhatTable, mass: float, r0: float) -> float:
    """Threshold state at radius r0 > 2M separating infall from escape."""
    return fhat_inverse(table, "plus", math.log(1.0 - 2.0 * mass / r0))


def classify_fate(table: FhatTable, mass: float, r0: float, u0: float) -> Fate:
    """Late-time trichotomy for the characteristic through (r0, u0)."""
    if not abs(u0) < 1.0:
        raise DomainError("classification needs |u0| < 1")
    u_escape = escape_velocity(table, mass, r0)
    if abs(u0 - u_escape) <= 1e-12:
        return Fate(kind="marginal", u_limit=0.0, r_limit_finite=False)
    if u0 > u_escape:
        f_u0, f_escape = table.value(np.array([u0, u_escape]))
        return Fate(kind="escapes", u_limit=fhat_inverse(table, "plus", f_u0 - f_escape), r_limit_finite=False)
    return Fate(kind="falls_in", u_limit=-1.0, r_limit_finite=True)
