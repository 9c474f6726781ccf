"""The chain law and L2 norms on the lattice.

The marginal law of the chain is one float64 mass array per level,
pushed forward from the root by Lattice.push, which owns the lattice
layout; l2_norms roots each level's mass-weighted sum of squares, for
all levels of a run at once.  The conditional expectations themselves
are the level operator's plain sums (schemes).
"""

from __future__ import annotations

import math
from typing import Sequence, Tuple

import numpy as np

from .forward import Lattice

__all__ = [
    "TreeStructureError",
    "chain_law",
    "l2_norms",
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


def l2_norms(levels: Sequence[np.ndarray],
             law: Sequence[np.ndarray]) -> np.ndarray:
    """Discrete L2 norms sqrt(sum_nodes mass * v^2) of the levels under
    the chain law, root first; a level holding inf or nan gives inf or nan.
    """
    sizes, want = [len(v) for v in levels], [len(m) for m in law]
    if sizes != want:
        raise TreeStructureError(
            "level sizes %s do not fit the chain law's %s" % (sizes, want))
    with np.errstate(over="ignore", invalid="ignore"):
        # the np.sum of a 1-d array is np.add.reduce, without its dispatch
        return np.array([math.sqrt(float(np.add.reduce(masses * v * v)))
                         for masses, v in zip(law, levels)])
