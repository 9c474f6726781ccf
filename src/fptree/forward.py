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
steps.  Lattice owns the layout: only its gather, gather_levels, push
and child_index read the child tables.
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

    def gather_levels(self, top: int, k: int, flat: np.ndarray):
        """Child values of the k levels top, top - 1, ..., top + 1 - k
        at once.

        flat holds their child levels top + 1, top, ..., top + 2 - k,
        concatenated in that order.  Returns (block, starts): level
        top - j's gather block is block[:, starts[j]:starts[j] + n], n
        its node count.  On the tree the block is one read-only view of
        flat, whose two columns that straddle each pair of levels
        belong to no level.
        """
        offsets = list(accumulate(
            map(len, self.supports[top + 1:top + 2 - k:-1]), initial=0))
        if self.children is None:
            block = np.ndarray((len(WEIGHTS), len(flat) - len(WEIGHTS) + 1),
                               dtype=flat.dtype, buffer=flat,
                               strides=flat.strides * 2)
            block.flags.writeable = False
            return block, offsets
        tables = [self.children[top - j] + s for j, s in enumerate(offsets)]
        starts = list(accumulate(map(len, tables[:-1]), initial=0))
        return flat[np.concatenate(tables).T], starts

    def push(self, level: int, masses: np.ndarray) -> np.ndarray:
        """Masses of level + 1, each child summing masses[p] * WEIGHTS[j]
        over its parents p in node-major order: the adjoint of gather."""
        if self.children is None:
            # node p feeds p + j along branch j; adding the shifted
            # branches last-first gives each child the sum of a
            # node-major per-node push, (m[k-2] w2 + m[k-1] w1) + m[k] w0
            # for m = masses.  The bincount below gives the same sums
            # but takes about 1.6 times as long on a 120-step tree.
            nxt = np.zeros(len(masses) + len(WEIGHTS) - 1)
            for j in reversed(range(len(WEIGHTS))):
                nxt[j:j + len(masses)] += masses * WEIGHTS[j]
            return nxt
        # bincount adds in node-major order too
        return np.bincount(self.children[level].ravel(),
                           weights=(masses[:, None]
                                    * np.asarray(WEIGHTS)).ravel(),
                           minlength=len(self.supports[level + 1]))

    def child_index(self) -> np.ndarray:
        """Children of every node of levels 0..N-1, (branches, nodes).

        Nodes count through np.concatenate(supports[:-1]) and children
        through np.concatenate(supports[1:]), so indexing the
        concatenated values of levels 1..N with it gives the gather
        blocks of all levels side by side, root level first.
        """
        if self.children is None:
            # level i's 2i+1 nodes start at i^2 and their children at
            # i^2 + 2i among levels 1..N: node k's children are k + 2i + j
            n = np.arange(self.time_grid.N)
            return (np.arange(len(n) * len(n)) + np.repeat(2 * n, 2 * n + 1)
                    + np.arange(len(WEIGHTS))[:, None])
        sizes = [len(s) for s in self.supports]
        offsets = np.repeat(np.cumsum([0] + sizes[1:-1]), sizes[:-1])
        return (np.concatenate(self.children) + offsets[:, None]).T


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
