"""The chain law and L2 norms on the lattice.

The marginal law of the chain is one float64 mass array per level,
pushed forward from the root by Lattice.push, which owns the lattice
layout; the L2 norm of a level's values is their mass-weighted sum of
squares, rooted.  The conditional expectations themselves are the
level operator's plain sums (schemes).
"""

from __future__ import annotations

import math
from typing import Sequence, Tuple

import numpy as np

from .forward import Lattice

__all__ = [
    "TreeStructureError",
    "chain_law",
    "l2_norm",
]


class TreeStructureError(ValueError):
    """Raised when values do not line up with the lattice structure."""


def chain_law(lattice: Lattice) -> Tuple[np.ndarray, ...]:
    """Marginal law of the chain: one float64 mass array per level.

    The root point mass is pushed forward level by level.
    """
    out = [np.ones(1)]
    for i in range(lattice.time_grid.N):
        out.append(lattice.push(i, out[-1]))
    return tuple(out)


def l2_norm(vals: Sequence[float], law: Sequence[np.ndarray],
            level: int) -> float:
    """Discrete L2 norm sqrt(sum_nodes mass * v^2) under the chain law."""
    masses = law[level]
    vals = np.asarray(vals, dtype=float)
    if len(vals) != len(masses):
        raise TreeStructureError(
            "level %d has %d nodes but %d values supplied"
            % (level, len(masses), len(vals))
        )
    with np.errstate(over="ignore", invalid="ignore"):
        return math.sqrt(float(np.sum(masses * vals * vals)))
