"""The Kruzhkov entropy pair at one level, written out on its own: the
per-level reference the all-levels certificate in horizonfv.entropy must
reproduce."""

from typing import Callable, NamedTuple

import numpy as np

from horizonfv import DomainError, FluxModel


class KruzhkovPair(NamedTuple):
    """U(v) = |v - k| - |k| with U' and the compatible flux F."""

    U: Callable
    dU: Callable
    F: Callable
    k: float


def kruzhkov_pair(m: FluxModel, k: float) -> KruzhkovPair:
    """Kruzhkov entropy at level k: U(v) = |v - k| - |k|, F(v) = sign(v-k)(f(v) - f(k)).

    The constant shift -|k| gives U(0) = 0; every inequality downstream is
    invariant under it because entropies only enter through differences.
    """
    if not -1.0 <= k <= 1.0:
        raise DomainError(f"Kruzhkov level k={k} outside [-1, 1]")
    fk = float(m.f(k))
    return KruzhkovPair(
        U=lambda v: np.abs(v - k) - abs(k),
        dU=lambda v: np.sign(v - k),
        F=lambda v: np.sign(v - k) * (m.f(v) - fk),
        k=float(k),
    )
