"""Forward chains and the recombining lattice.

The forward component X is discretized by the Euler step; replacing the
Gaussian increment with the moment-matched trinomial law (the branch
weights grids.WEIGHTS and the increments grids.increments(h), the one
law every lattice uses) turns the chain into a recombining lattice on
which conditional expectations are finite sums.  With constant b and
sigma no spatial projection is needed and level i carries exactly 2i+1
states.  With state-dependent coefficients recombination is lost, so
each step is projected onto a uniform spatial grid; saturation at the
grid hull is tolerated but counted.  The projected lattice is built a
level at a time: b(t, x) and sigma(t, x) are called once per level with
a float t and the float64 array x of the level's states, so they must
accept arrays.  A lattice spans its model's horizon [0, spec.T] in N
steps.  Lattice owns the layout: only its gather, expect and push read
the child tables.
"""

from __future__ import annotations

from itertools import accumulate
from typing import NamedTuple, Optional, Tuple

import numpy as np

from .grids import (
    WEIGHTS,
    ConfigurationError,
    SpatialGrid,
    TimeGrid,
    grid_project_index,
    increments,
)
from .model import ModelSpec

__all__ = [
    "Lattice",
    "build_lattice",
    "dump_lattice",
]

# the branch weights as float64 0-d arrays, which numpy applies faster
# than Python floats, to the same bits: the outer branches' (WEIGHTS[0]
# == WEIGHTS[2]), the middle one's and the (branches, 1) column
_OUTER = np.array(WEIGHTS[0])
_MIDDLE = np.array(WEIGHTS[1])
_W = np.array(WEIGHTS)[:, None]


class Lattice(NamedTuple):
    """Recombining state tree of the quantized forward chain.

    supports[i] is the float64 array of the states of level i, in
    increasing order.  When children is None the lattice is the
    constant-coefficient trinomial tree and node p at level i has
    children (p, p+1, p+2) at level i+1, in the order of
    increments(h); otherwise children[i] is the (n_i, 3) int64 array of
    the projected child indices.  The lattice stores no increment law:
    the branch weights are the constant WEIGHTS and the increments are
    increments(time_grid.h), the same at every node.
    """

    time_grid: TimeGrid
    supports: Tuple[np.ndarray, ...]
    children: Optional[Tuple[np.ndarray, ...]]
    saturation_count: int
    model: ModelSpec  # the model the lattice was built from

    @property
    def n_levels(self) -> int:
        return len(self.supports)

    def gather(self, level: int, values: np.ndarray) -> np.ndarray:
        """Child values of every level-`level` node, (branches, nodes).

        values holds the level + 1 values; row j lists each node's j-th
        child value.  On the tree the block is a read-only view of values.
        """
        if self.children is None:
            # row j is values[j:j + n]; unlike as_strided, the constructor
            # checks the bounds and keeps no per-call cache
            block = np.ndarray((len(WEIGHTS), len(self.supports[level])),
                               dtype=values.dtype, buffer=values,
                               strides=values.strides * 2)
            block.flags.writeable = False
            return block
        return values[self.children[level].T]

    def expect(self, levels, values: np.ndarray,
               H: Optional[np.ndarray] = None) -> np.ndarray:
        """E[v] at every node of levels, side by side in their order, or
        E[v H] given the (branches, 1) column H of Z weights.

        levels is a sequence of level indices, and values holds their
        child levels concatenated in the same order.  A node's sum is
        (W0 v0 H0 + W2 v2 H2) + W1 v1 H1 over its children, the plain
        branch sum of its column of WEIGHTS * gather(level, values) * H,
        bit for bit.  On the tree q = W0 values gives both outer terms,
        as WEIGHTS[0] == WEIGHTS[2], through the shifted views q[:-2]
        and q[2:], so no (branches, nodes) block is formed; the two sums
        that straddle each pair of child levels belong to no level and
        are dropped.  Callers run it under np.errstate(all="ignore"):
        overflow is data.
        """
        if len(levels) > 1:
            # where each level's child level starts in values
            starts = list(accumulate(
                (len(self.supports[i + 1]) for i in levels), initial=0))
        if self.children is None:
            q = _OUTER * values
            mid = _MIDDLE * values[1:-1]
            if H is None:
                sums = (q[:-2] + q[2:]) + mid
            else:
                sums = (q[:-2] * H[0] + q[2:] * H[2]) + mid * H[1]
            if len(levels) == 1:
                return sums
            return np.concatenate([sums[s:s + len(self.supports[i])]
                                   for i, s in zip(levels, starts)])
        table = (self.children[levels[0]] if len(levels) == 1
                 else np.concatenate([self.children[i] + s
                                      for i, s in zip(levels, starts)]))
        t = _W * values[table.T]
        if H is not None:
            t = t * H
        return (t[0] + t[2]) + t[1]

    def push(self, level: int, masses: np.ndarray) -> np.ndarray:
        """Masses of level + 1, each child summing masses[p] * WEIGHTS[j]
        over its parents p in node-major order: the adjoint of gather."""
        if self.children is None:
            # node p feeds p + j along branch j; adding the shifted
            # branches last-first gives each child the sum of a
            # node-major per-node push, (m[k-2] w2 + m[k-1] w1) + m[k] w0
            # for m = masses, where q = m w0 is both outer branches' term.
            # The bincount below gives the same sums but takes about 1.6
            # times as long on a 120-step tree.
            q = masses * _OUTER
            nxt = np.zeros(len(masses) + 2)
            nxt[2:] += q
            nxt[1:-1] += masses * _MIDDLE
            nxt[:-2] += q
            return nxt
        # bincount adds in node-major order too
        return np.bincount(self.children[level].ravel(),
                           weights=(masses[:, None] * _W.T).ravel(),
                           minlength=len(self.supports[level + 1]))


def _tree(spec: ModelSpec, N: int, h: float):
    """(bases, offsets) of the N-step tree: level i holds the increasing
    states bases[i] + offsets[N - i:N + i + 1], x0 + b t_i + sigma k
    sqrt(3h) for k in -i..i.  A level whose lowest or highest state is
    not finite raises ConfigurationError naming the first such level
    and node; every state between the two is finite then."""
    if not spec.has_constant_coefficients:
        raise ConfigurationError(
            "non-constant coefficients require a spatial grid: "
            "recombination is not guaranteed without projection"
        )
    # sigma * k * step for k in -N..N, taken in the order of the
    # scalar formula x0 + b t_i + sigma (k step)
    with np.errstate(all="ignore"):
        # an overflowing state is reported below, not warned about
        offsets = spec.sigma_const * (np.arange(-N, N + 1.0)
                                      * increments(h)[-1])
        bases = spec.x0 + spec.b_const * (np.arange(N + 1.0) * h)
        ends = np.stack((bases + offsets[N::-1], bases + offsets[N:]))
    if not np.isfinite(ends).all():
        i, side = np.argwhere(~np.isfinite(ends.T))[0]
        raise ConfigurationError(
            "the tree's level %d node %d holds the non-finite state %r"
            % (i, 2 * i if side else 0, float(ends[side, i])))
    return bases, offsets


def _steps(spec: ModelSpec, t: float, x: np.ndarray, h: float,
           dws: np.ndarray, level: int):
    """The (nodes, branches) block of Euler steps x + b(t, x) h +
    sigma(t, x) dw from the column x of level `level`; a non-finite step
    raises ConfigurationError naming its level, node and branch."""
    with np.errstate(all="ignore"):
        # an overflowing step is reported below, not warned about
        raw = x + spec.b(t, x) * h + spec.sigma(t, x) * dws
    if not np.isfinite(raw).all():
        node, branch = np.argwhere(~np.isfinite(raw))[0]
        raise ConfigurationError(
            "the forward step from level %d node %d (branch %d) gave the "
            "non-finite state %r"
            % (level, node, branch, float(raw[node, branch])))
    return raw


def build_lattice(
    spec: ModelSpec,
    N: int,
    grid: Optional[SpatialGrid] = None,
) -> Lattice:
    """Build the forward lattice of N trinomial steps over [0, spec.T].

    The time grid is TimeGrid(spec.T, N) and the increments are
    increments(h), the same law for every lattice.
    Without a spatial grid the coefficients must be constant, which is
    what guarantees recombination; level i then holds
    x0 + b t_i + sigma k sqrt(3h) for k in {-i..i}, and a non-finite
    state raises ConfigurationError naming the first level and node
    that holds one.  With a grid, every Euler step
    x + b(t, x) h + sigma(t, x) dw is projected and the reachable set
    is tracked level by level; a non-finite step raises
    ConfigurationError naming its level and node.
    """
    tg = TimeGrid(spec.T, N)
    h = tg.h
    if grid is None:
        bases, offsets = _tree(spec, N, h)
        return Lattice(
            time_grid=tg,
            supports=tuple(bases[i] + offsets[N - i:N + i + 1]
                           for i in range(N + 1)),
            children=None,
            saturation_count=0,
            model=spec,
        )

    k, sat = grid_project_index(grid, spec.x0)
    saturation = int(sat)
    supports = [grid.point(k.reshape(1))]
    children = []
    dws = np.array(increments(h))
    for i, t in enumerate(tg.times[:-1]):
        # the (nodes, branches) block of Euler steps from level i
        raw = _steps(spec, t, supports[i][:, None], h, dws, i)
        keys, sat = grid_project_index(grid, raw)
        saturation += int(np.count_nonzero(sat))
        states, idx = np.unique(keys, return_inverse=True)
        children.append(idx.reshape(keys.shape).astype(np.int64, copy=False))
        supports.append(grid.point(states))
    return Lattice(
        time_grid=tg,
        supports=tuple(supports),
        children=tuple(children),
        saturation_count=saturation,
        model=spec,
    )


def dump_lattice(lattice: Lattice) -> dict:
    """JSON-ready description of the lattice (debugging artifact)."""
    tg = lattice.time_grid
    levels = []
    for i, (t, states) in enumerate(zip(tg.times, lattice.supports)):
        entry = {
            "level": i,
            "t": t,
            "states": states.tolist(),
        }
        if i < tg.N:
            if lattice.children is None:
                entry["children"] = "uniform"
            else:
                entry["children"] = lattice.children[i].tolist()
        levels.append(entry)
    return {
        "T": tg.T,
        "N": tg.N,
        "h": tg.h,
        "weights": list(WEIGHTS),
        "increments": list(increments(tg.h)),
        "saturation_count": lattice.saturation_count,
        "levels": levels,
    }
