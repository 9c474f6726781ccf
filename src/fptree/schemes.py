"""The backward level operator and full backward induction.

Every scheme kind is one level map, applied to the (branches, nodes)
block of child values of each level:

    z = E[v H]
    y solves y = E[v + (1 - theta) f(v, z) h] + theta f(y, z) h

with theta = 0 for explicit_euler and the full-projection kinds, 1 for
implicit_euler and the configured value for theta.  At theta = 0 the
map is explicit and needs no solve.  Each expectation is the plain
branch sum of :func:`_branch_sum` over the level's three weighted branch
arrays.  The full-projection kinds add the radial truncation T:

* full_projection_pre   truncates the children before the step
* full_projection_post  reports the truncated values T(y) of that sweep

The two full-projection variants are conjugate by construction: both
kinds run the one sweep that truncates the children, and the post
variant truncates each finished y level once, so y_post = T(y_pre) and
z is the same at every node, bit-for-bit.  T is idempotent, so the
children a post level would read are the ones the sweep truncated.

Non-finite values are data here: the explicit scheme on stiff problems
overflows to inf and then nan, and those values are carried through and
reported, never raised.  In a sum nan dominates, infinities of one sign
give that infinity, mixed infinities give nan and finite overflow gives
a signed infinity.  Only the implicit root-solve raises, since a
failed solve has no value to carry.  A level that is all nan makes
every level below it all nan, for every kind and driver: the children
enter m additively and z linearly, truncation keeps nan, and the solve
returns nan wherever m is not finite.  Every node of such a level runs
the same arithmetic, so once a level read as one nan bit pattern gives
back that pattern at every y and z node, the sweep has reached a fixed
point and fills the levels below without computing them.

run_backward steps through two forms of this map.  Where the driver
declares L_z = 0 and y is m (theta = 0) or the closed-form root, y
needs no z: a level computes m and y alone, and z is filled in one
pass per block of about _CHECK_NODES nodes, whose child levels side by
side (Lattice.gather_levels) give every level's z bit for bit as the
level's own block does (_z_levels).  Every other level, and every
level below a root that a solve does not confirm, is one call of
_level.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional, Tuple

import numpy as np

from .forward import Lattice
from .grids import (
    WEIGHTS, ConfigurationError, TruncationConfig, _Checked, _truncator,
    check_alpha, weight_values,
)
from .model import DriverSpec, ModelSpec

__all__ = [
    "SchemeError",
    "SolverError",
    "SchemeConfig",
    "ValueFunctions",
    "run_backward",
    "SCHEME_KINDS",
]

SCHEME_KINDS = (
    "explicit_euler",
    "implicit_euler",
    "theta",
    "full_projection_pre",
    "full_projection_post",
)

_FP_KINDS = ("full_projection_pre", "full_projection_post")

# implicit root solve: residual tolerance relative to max(1, |m|) and
# Newton iteration cap
_TOL = 1e-12
_MAX_ITER = 100
# nodes of the levels that one _solve call checks and one z pass fills
# (run_backward)
_CHECK_NODES = 2048
# the bits of the nan that an invalid operation, such as inf - inf, makes
with np.errstate(invalid="ignore"):
    _NAN = int((np.array([math.inf]) - math.inf).view(np.int64)[0])
_FAILURES = (
    None,
    "implicit residual became non-finite",
    "failed to bracket the implicit root: the driver's slope exceeds "
    "its declared M_y = {M_y:g}",
    "newton did not converge in {iters} iterations",
)


class SchemeError(ValueError):
    """Raised for inconsistent scheme configuration."""


class SolverError(RuntimeError):
    """Implicit solve failed; carries the (level, node) it failed at."""

    def __init__(self, message, level=None, node=None):
        super().__init__(message)
        self.level = level
        self.node = node


class _SchemeConfigFields(NamedTuple):
    kind: str
    theta: Optional[float] = None
    truncation: Optional[TruncationConfig] = None


class SchemeConfig(_Checked, _SchemeConfigFields):
    """Which backward operator to run and with what parameters.

    theta is required for kind "theta" and truncation for the
    full-projection kinds; every other kind rejects them.
    """

    __slots__ = ()

    def _check(self):
        if self.kind not in SCHEME_KINDS:
            raise SchemeError(
                "unknown scheme kind %r; expected one of %s"
                % (self.kind, ", ".join(SCHEME_KINDS))
            )
        if self.kind != "theta":
            if self.theta is not None:
                raise SchemeError("kind %r takes no theta" % (self.kind,))
        elif self.theta is None or not 0.0 <= self.theta <= 1.0:
            raise SchemeError("theta must lie in [0, 1]")
        if self.kind not in _FP_KINDS:
            if self.truncation is not None:
                raise SchemeError("kind %r takes no truncation" % (self.kind,))
        elif self.truncation is None:
            raise SchemeError("full-projection kinds require a TruncationConfig")


# ---------------------------------------------------------------------------
# Level operator
# ---------------------------------------------------------------------------


def _branch_sum(t: np.ndarray) -> np.ndarray:
    """The plain sum (t0 + t2) + t1 of a (branches, nodes) block.

    Its rounding error, at most about 2u (|t0| + |t1| + |t2|), is far
    below the scheme's O(h) error.  The mirrored branches meet first, so
    odd data on a symmetric stencil sums to exactly odd values.
    """
    return (t[0] + t[2]) + t[1]


def _level(
    kids: np.ndarray,
    W: np.ndarray,
    H: np.ndarray,
    driver: DriverSpec,
    h: float,
    theta: float,
) -> Tuple[np.ndarray, np.ndarray, int, int]:
    """One backward step at every node of a level.

    kids is the (branches, nodes) block of child values, already
    truncated for the full-projection kinds; W and H are the
    (branches, 1) columns of branch weights and Z weights.  z = E[v H]
    and m = E[v + (1 - theta) f(v, z) h] are _branch_sum's sums, and y
    is m at theta = 0, else _solve's root of y = m + theta h f(y, z).
    Returns y, z and the level's root-solve iteration total and
    per-node maximum (zero where no solve runs).  Callers run it under
    np.errstate(all="ignore"): overflow is data.
    """
    wk = W * kids
    z = _branch_sum(wk * H)
    if theta != 1.0:
        wk = W * (kids + driver.eval(kids, z) * ((1.0 - theta) * h))
    m = _branch_sum(wk)
    if theta == 0.0:
        return m, z, 0, 0
    y, _, total, most = _solve(m, z, driver, theta * h)
    return y, z, total, most


def _bracket_end(m: np.ndarray, fa: np.ndarray, hh: float, M_y: float,
                 scale: np.ndarray):
    """End point b of a bracket [m, b] of the root of F, given fa = F(m)
    and scale = max(1, |m|).

    F' >= c = 1 - hh max(M_y, 0) puts the root within |F(m)|/c of m.
    b = m - F(m)/c is pushed out by 2 _TOL max(1, |b|, |m|), so the
    exact F(b) exceeds the Newton tolerance and the computed one keeps
    its sign wherever Newton can converge at all.  F's rounding error
    scales with its terms, not with ulp(b): b can sit near 0 while m and
    hh f are large.
    """
    b = m - fa / (1.0 - hh * max(M_y, 0.0))
    return b - np.copysign(2.0 * _TOL * np.maximum(scale, np.abs(b)), fa)


def _solve(m: np.ndarray, z: np.ndarray, driver: DriverSpec, hh: float,
           start: Optional[np.ndarray] = None):
    """Root of F(y) = y - hh * f(y, z) - m at every node of a level.

    For one-sided Lipschitz drivers F' = 1 - hh f_y >= 1 - hh M_y > 1/2
    under the guard hh * M_y < 0.5, so F is strictly increasing and
    :func:`_bracket_end` brackets the root; F(b) of the wrong sign
    means the driver's slope exceeds the declared M_y.  Every node runs
    its own Newton iteration, masked over the level, bisecting whenever
    a step leaves the bracket.  It starts at start where given, else
    at the driver's closed-form root (DriverSpec.root) where the driver
    has one, at the nodes where that start is finite and inside the
    bracket, and at m everywhere else.  The start moves no node's
    tolerance, so a wrong root costs iterations and never accuracy; but
    where F's rounding exceeds the tolerance, which nodes end at the
    adjacent-float test, and so fail, depends on the path, hence on
    the start.  A Newton step that returns its iterate
    would repeat forever, so the node stops there; so does a node whose
    bracket holds no float strictly inside.  A node short of the
    tolerance when it stops, or after _MAX_ITER steps, is accepted when
    F changes sign between its iterate and the adjacent float toward
    the root.  Nodes with non-finite m or z give nan; they and nodes
    with F(m) = 0 take zero iterations.  The level stops iterating in
    the pass where no live node is still short of the tolerance: the
    rest of that pass could move no node.
    Returns y, the per-node iteration counts, their total and their
    maximum, which is the number of passes since a node once out of
    `live` never returns; a failure raises SolverError carrying the
    first failing node.  A node's path depends on its own m and z
    alone, with eval, dfdy and root elementwise, and it never changes
    once out of `live`: one call over the concatenated nodes of many
    levels gives each level's y, counts and failures, which
    run_backward relies on.
    """
    iters = np.zeros(m.shape, dtype=np.int64)
    ok = np.isfinite(m) & np.isfinite(z)
    if hh * driver.M_y >= 0.5 and ok.any():
        raise SolverError(
            "step size violates the implicit contraction guard: "
            "h*theta*M_y = %g >= 0.5" % (hh * driver.M_y,),
            node=int(np.argmax(ok)),
        )
    f = driver.eval
    dfdy = driver.dfdy

    def F(yv):
        return yv - hh * f(yv, z) - m

    scale = np.maximum(1.0, np.abs(m))
    tol = _TOL * scale
    fa = F(m)
    b = _bracket_end(m, fa, hh, driver.M_y, scale)
    fb = F(b)
    live = ok & (fa != 0.0)
    # F(b) of F(m)'s strict sign; on booleans a > b is a & ~b
    unbracketed = live & ((np.sign(fa) == np.sign(fb)) | ~np.isfinite(fb))
    np.greater(live, unbracketed, out=live)
    started = live.copy()

    # Newton from the driver's root where it lies in the bracket, else
    # from m, falling back to bisection outside the bracket; converged
    # and stalled nodes, and nodes whose bracket is two adjacent floats,
    # freeze and drop out of `live`
    lo = np.minimum(m, b)
    hi = np.maximum(m, b)
    yv, fy = m, fa
    if start is None and driver.root is not None:
        start = driver.root(m, z, hh)
    if start is not None:
        yv = np.where(live & (lo <= start) & (start <= hi), start, m)
        fy = F(yv)
    done = ~started
    total = passes = 0
    for it in range(_MAX_ITER):
        count = np.count_nonzero(live)
        if not count:
            break
        total += count
        passes += 1
        iters += live
        if it:
            fy = F(yv)
        done = np.abs(fy) <= tol
        np.greater(live, done, out=live)
        if not np.count_nonzero(live):
            break
        slope = 1.0 - hh * dfdy(yv, z)
        step = yv - fy / slope
        newton = ((slope > 0.0) & np.isfinite(slope)
                  & (lo <= step) & (step <= hi))
        np.greater(live, newton & (step == yv), out=live)
        # only live nodes take their step, so only they may need the
        # midpoint
        if np.count_nonzero(np.greater(live, newton)):
            step = np.where(newton, step, 0.5 * (lo + hi))
        up = fy > 0.0
        hi = np.where(up & (yv < hi), yv, hi)
        lo = np.where(up | (yv <= lo), lo, yv)
        live &= np.nextafter(lo, hi) < hi
        yv = np.where(live, step, yv)
    # `done` is |F(yv)| <= tol at every node the loop stopped; a node
    # still live after _MAX_ITER steps has moved since and is evaluated
    # again
    live = np.greater(started, done)
    if np.count_nonzero(live):
        # where F's terms dwarf |m| no float may meet the tolerance: accept
        # a root pinned between yv and the next float toward it
        fy = F(yv)
        np.greater(live, np.abs(fy) <= tol, out=live)
        nb = np.nextafter(yv, np.where(fy > 0.0, -np.inf, np.inf))
        fn = F(nb)
        pinned = live & np.where(fy > 0.0, fn <= 0.0, (fy < 0.0) & (fn >= 0.0))
        yv = np.where(pinned & (np.abs(fn) < np.abs(fy)), nb, yv)
        np.greater(live, pinned, out=live)
    failed = unbracketed | live
    if np.count_nonzero(failed):
        first = int(np.argmax(failed))
        reason = 3 if live[first] else 2 if np.isfinite(fb[first]) else 1
        raise SolverError(_FAILURES[reason].format(
            M_y=driver.M_y, iters=iters[first]), node=first)
    return np.where(ok, yv, math.nan), iters, int(total), passes


# ---------------------------------------------------------------------------
# Backward induction
# ---------------------------------------------------------------------------


class ValueFunctions(NamedTuple):
    """Backward-induction output: functions on the lattice they were run on.

    model is the ModelSpec the run solved; its g gave the terminal
    level.  y[i] is the float64 array of level-i values on
    lattice.supports[i]; z[i] exists for i < N.  finite is False as soon
    as any level contains a non-finite entry.  Lambda is the Z-weight
    normalization of weight_values at the lattice's step size.
    """

    lattice: Lattice
    model: ModelSpec
    y: Tuple[np.ndarray, ...]
    z: Tuple[np.ndarray, ...]
    finite: bool
    solver_iterations_total: int
    solver_iterations_max: int

    @property
    def y0(self) -> float:
        return float(self.y[0][0])

    @property
    def Lambda(self) -> float:
        return weight_values(self.lattice.time_grid.h)[1]


def _one_nan(nxt: np.ndarray, *levels: np.ndarray) -> bool:
    """Whether nxt and each level hold nxt[0]'s bit pattern at every
    node."""
    bits = nxt[:1].view(np.int64)
    return all(bool((a.view(np.int64) == bits).all())
               for a in (nxt,) + levels)


def _odd_nan(v: np.ndarray) -> bool:
    """Whether v holds a nan of other bits than an invalid operation
    makes (_NAN)."""
    nans = np.count_nonzero(np.isnan(v))
    return bool(nans) and nans != np.count_nonzero(v.view(np.int64) == _NAN)


def _z_levels(lattice: Lattice, top: int, kids, W: np.ndarray,
              H: np.ndarray):
    """The z levels of levels top, top - 1, ... from the list kids of
    their (truncated) child levels, in one pass over the block of
    Lattice.gather_levels: each is _level's z = _branch_sum(W v H).

    Where two nans of different bits meet, numpy's SIMD loops pick the
    result's bits by the element's place in the array, and a level's
    place in the block is not its place in its own gather block.  Every
    nan an operation makes has the bits _NAN, so only children that
    hold a nan of other bits can meet one.  Where the block's z sums to
    nan and the child levels hold such a nan, each level that holds one
    takes its z from its own gather block.
    """
    flat = np.concatenate(kids)
    block, starts = lattice.gather_levels(top, len(kids), flat)
    z = _branch_sum(W * block * H)
    levels = [z[s:s + len(lattice.supports[top - j])]
              for j, s in enumerate(starts)]
    if math.isnan(z.sum()) and _odd_nan(flat):
        levels = [_branch_sum(W * lattice.gather(top - j, v) * H)
                  if _odd_nan(v) else a
                  for j, (a, v) in enumerate(zip(levels, kids))]
    return levels


def _check(ms, zs, ys, driver: DriverSpec, hh: float):
    """The Newton total and maximum of one _solve call over the
    concatenated levels of m and z, or None where that call raises or
    its y differs in any bit, nan patterns included, from ys.  ys, the
    levels' roots, are the call's start, so it does not compute them
    again: a solve of each level would start from the same values."""
    y0 = np.concatenate(ys)
    try:
        y, _, total, most = _solve(np.concatenate(ms), np.concatenate(zs),
                                   driver, hh, y0)
    except SolverError:
        return None
    if not np.array_equal(y.view(np.int64), y0.view(np.int64)):
        return None
    return total, most


def run_backward(
    cfg: SchemeConfig,
    lattice: Lattice,
    spec: ModelSpec,
) -> ValueFunctions:
    """Backward induction of the configured scheme over the lattice.

    spec.g is called once, with the float64 array of the terminal
    states, and may return a float that broadcasts against it; a run
    from other terminal data is a run of spec._replace(g=...), and the
    run carries spec as its model.  spec differs from lattice.model, the
    lattice's own, in g and the driver alone, else ConfigurationError.
    The run is deterministic: identical inputs give bit-identical
    outputs.  Implicit solver failures raise SolverError tagged with the
    level and node, whose message names N too; explicit explosions are
    recorded in the values and the finite flag instead.  For
    full_projection_post the flag is taken on the truncated values.

    Every level takes one of two forms.  Where the driver declares
    L_z = 0 and y is m (theta = 0) or the closed-form root
    (DriverSpec.root), a level computes m and y alone: its term
    v + (1 - theta) h f(v) is computed once on the child level, with
    eval(v, None), and gathered with the level (v itself at theta = 1),
    and y is m or root(m, None, hh).  A driver that declares L_z = 0
    must not read z.  Once the levels since the last pass hold
    _CHECK_NODES nodes, at level 0, and before a nan fixed point's test
    reads a level's z, one pass fills their z (_z_levels), and where
    theta > 0 one _solve call over their concatenated m and z checks
    their roots (_check): where it returns each root bit for bit, those
    are the values level by level solving gives, and its counts are
    theirs.  The check starts Newton at the roots it checks, as each
    level's solve would, so no root is computed twice.  Every other
    level goes through _level, with its own _solve where theta > 0:
    those of a driver with a z term, whose root is only a start, of a
    driver without a root, and every level from the block of a failed
    check down, which gives that solve's values, counts and
    SolverError.
    """
    base = lattice.model
    if spec._replace(g=base.g, driver=base.driver) != base:
        raise ConfigurationError("the model differs from the lattice's "
                                 "in more than g and the driver")
    tg = lattice.time_grid
    h = tg.h
    driver = spec.driver
    f = driver.eval
    gather = lattice.gather

    kind = cfg.kind
    clamp = None
    if kind in _FP_KINDS:
        check_alpha(cfg.truncation, driver.m)
        clamp = _truncator(cfg.truncation, h)
    theta = {"implicit_euler": 1.0, "theta": cfg.theta}.get(kind, 0.0)
    W = np.array(WEIGHTS)[:, None]
    H = np.array(weight_values(h)[0])[:, None]
    # (1 - theta) h as a float64 0-d array, which numpy applies faster
    # than a Python float, to the same bits
    c = np.array((1.0 - theta) * h)

    x = lattice.supports[tg.N]
    with np.errstate(all="ignore"):
        # g overflowing is data, as in the level operator
        vals = np.broadcast_to(spec.g(x), x.shape).astype(float)
    y_levels = [vals]
    z_levels = []
    iters_total = 0
    iters_max = 0
    # while `fast` holds, levels compute m and y alone; `kids` and `ms`
    # hold the child levels and the m of those still without z, and
    # `nodes` counts their nodes
    hh = theta * h
    root = driver.root
    fast = driver.L_z == 0.0 and (theta == 0.0 or root is not None)
    kids = []
    ms = []
    nodes = 0

    with np.errstate(all="ignore"):
        i = tg.N - 1
        while i >= 0:
            nxt = y_levels[-1]
            # truncation is elementwise: truncating the level once equals
            # truncating each node's children
            v = nxt if clamp is None else clamp(nxt)
            if fast:
                d = v if theta == 1.0 else v + f(v, None) * c
                m = _branch_sum(W * gather(i, d))
                y = m if theta == 0.0 else root(m, None, hh)
                z = None
                kids.append(v)
                ms.append(m)
                nodes += y.size
            else:
                try:
                    y, z, total, most = _level(gather(i, v), W, H, driver, h,
                                               theta)
                except SolverError as err:
                    raise SolverError(
                        "implicit solve failed at N=%d level %d node %d: %s"
                        % (tg.N, i, err.node, err),
                        level=i,
                        node=err.node,
                    ) from err
                iters_total += total
                iters_max = max(iters_max, most)
            y_levels.append(y)
            z_levels.append(z)
            # a nan fixed point needs one nan pattern in y first, and z
            # is read only then
            stop = math.isnan(nxt[0]) and _one_nan(nxt, y)
            if kids and (stop or i == 0 or nodes >= _CHECK_NODES):
                n = len(kids)
                z_levels[-n:] = _z_levels(lattice, i + n - 1, kids, W, H)
                counts = (0, 0) if theta == 0.0 else _check(
                    ms, z_levels[-n:], y_levels[-n:], driver, hh)
                kids = []
                ms = []
                nodes = 0
                if counts is None:
                    # some root is not its level's value: the block's
                    # levels and all below run through _level, as a root
                    # that misses once tends to miss again
                    del y_levels[-n:], z_levels[-n:]
                    fast = False
                    i += n - 1
                    continue
                iters_total += counts[0]
                iters_max = max(iters_max, counts[1])
            if stop and _one_nan(nxt, z_levels[-1]):
                # the fixed point of the module docstring: no solve runs
                # on a nan level, so the skipped levels add no iterations
                for j in range(i - 1, -1, -1):
                    n = len(lattice.supports[j])
                    y_levels.append(np.full(n, nxt[0]))
                    z_levels.append(np.full(n, nxt[0]))
                break
            i -= 1

    if kind == "full_projection_post":
        y_levels = [clamp(y) for y in y_levels]
    y_levels.reverse()
    z_levels.reverse()
    return ValueFunctions(
        lattice=lattice,
        model=spec,
        y=tuple(y_levels),
        z=tuple(z_levels),
        finite=bool(np.isfinite(np.concatenate(y_levels)).all()),
        solver_iterations_total=iters_total,
        solver_iterations_max=iters_max,
    )
