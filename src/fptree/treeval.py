"""Conditional expectations and chain-law norms on the lattice.

On the lattice every conditional expectation is a finite weighted sum
over child nodes.  Values live in one float64 array per level, and a
level's expectations are one compensated sum of per-branch arrays
(:func:`level_sum`), as accurate as math.fsum, so the
stability-inequality monitors can run at tolerances near roundoff.
Non-finite data stays data: nan dominates, infinities of one sign give
that infinity, mixed infinities give nan and finite overflow gives a
signed infinity.
"""

from __future__ import annotations

import math
from typing import Sequence, Tuple

import numpy as np

from .forward import Lattice
from .grids import WEIGHTS

__all__ = [
    "TreeStructureError",
    "level_sum",
    "chain_law",
    "l2_norm",
]


class TreeStructureError(ValueError):
    """Raised when values do not line up with the lattice structure."""


def level_sum(terms: Sequence[np.ndarray]) -> np.ndarray:
    """Compensated sum (t0 + t2) + t1 of the three per-branch arrays.

    Each of the two additions also yields its exact rounding error
    (Knuth's TwoSum), and the errors are added back at the end, so each
    node's sum is as accurate as math.fsum in all but rare ties.  The
    mirrored branches meet first, so odd data on a symmetric stencil
    sums to exactly odd values.  Where the plain sum is not finite it is
    returned as is.  Callers run it under np.errstate(invalid="ignore"),
    since that case computes inf - inf.
    """
    t0, t1, t2 = terms
    s = t0 + t2
    tp = s - t0
    err = (t0 - (s - tp)) + (t2 - tp)
    total = s + t1
    tp = total - s
    err = err + ((s - (total - tp)) + (t1 - tp))
    return np.add(total, err, out=total, where=np.isfinite(total))


def chain_law(lattice: Lattice) -> Tuple[np.ndarray, ...]:
    """Marginal law of the chain: one float64 mass array per level.

    The root point mass is pushed forward through the stencils.
    """
    w = WEIGHTS
    out = [np.ones(1)]
    for i in range(lattice.time_grid.N):
        m = out[-1]
        if lattice.children is None:
            # node p feeds p + j along branch j; adding the shifted
            # branches last-first gives each child the sum of a
            # node-major per-node push: (m[k-2] w2 + m[k-1] w1) + m[k] w0
            nxt = np.zeros(len(m) + len(w) - 1)
            for j in reversed(range(len(w))):
                nxt[j:j + len(m)] += m * w[j]
        else:
            # bincount adds in node-major order too
            nxt = np.bincount(lattice.children[i].ravel(),
                              weights=(m[:, None] * np.asarray(w)).ravel(),
                              minlength=len(lattice.supports[i + 1]))
        out.append(nxt)
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
