"""Shared fixtures.

The expensive pieces (N=120 proxy runs, the finite-difference
reference) are computed once per session; everything downstream reads
from these.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest

import fptree as fp
from fptree.analysis import (
    TOL_ABS, TOL_REL, _guarded_exp, _guarded_product, _is_violation,
)
from fptree.grids import _power
from fptree.schemes import (
    _FAILURES, _MAX_ITER, _TOL, SolverError, _bracket_end, _level,
)

W = (1 / 6, 2 / 3, 1 / 6)


def col(values):
    """A (branches, 1) float64 column, the shape the level operator takes."""
    return np.array(values, dtype=float)[:, None]


WCOL = col(W)


def float_bits(v):
    return np.float64(v).tobytes()


def float_key(v):
    """The bits of v, or "nan" for any nan: IEEE 754 leaves the sign and
    payload of a nan made from two nans open."""
    return "nan" if v != v else float_bits(v)


# the trinomial's branch weights as exact Fractions
W_EXACT = (Fraction(1, 6), Fraction(2, 3), Fraction(1, 6))


def branch_weight_values(h):
    """H and Lambda branch by branch: the reference for the closed form
    of fp.weight_values.

    Each increment of (-sqrt(3h), 0, sqrt(3h)) is clamped to
    [-r_h, r_h] (no clamp at h >= 1) and divided by h; Lambda sums
    p_j c_j^2 / h in Fractions, where an unclamped branch contributes
    its exact square (3h or 0) and a clamped one the square of its
    float clamp.
    """
    g = math.sqrt(3.0 * h)
    r_h = fp.increment_radius(h) if h < 1.0 else math.inf
    sq = 3 * Fraction(h)
    H, lam = [], Fraction(0)
    for x, w, x2 in zip((-g, 0.0, g), W_EXACT, (sq, Fraction(0), sq)):
        c = min(max(x, -r_h), r_h)
        H.append(c / h)
        lam += w * (x2 if c == x else Fraction(c) ** 2)
    return tuple(H), float(lam / Fraction(h))


def branch_moment(h, k):
    """The k-th trinomial moment summed branch by branch in Fractions:
    the reference for fp.moment_exact."""
    if k % 2 == 1:
        return Fraction(0)
    sq = 3 * Fraction(h)
    return sum((w * x2 ** (k // 2)
                for w, x2 in zip(W_EXACT, (sq, Fraction(0), sq))), Fraction(0))


def scalar_truncate(cfg, h, y):
    """The truncation T on one Python float: the reference for the
    library's array form.

    T caps |y| at R = R0 h^{-alpha}; nan stays nan.
    """
    R = fp.truncation_radius(cfg, h)
    if y != y or abs(y) <= R:
        return y
    return math.copysign(R, y)


def child_indices(lattice, level, pos):
    """The children of node `pos` of `level`, as Python ints: the per-node
    reference for the lattice's block `gather`."""
    if lattice.children is None:
        return (pos, pos + 1, pos + 2)
    return tuple(lattice.children[level][pos].tolist())


def build(model, N, grid=None):
    return fp.build_lattice(model, N, grid)


def one_node(kids, driver, h, theta=0.0, H=(0.0, 0.0, 0.0), pre=None,
             post=None):
    """The level operator on a one-node level with children `kids`.

    Returns (y, z, iterations) as Python numbers; pre and post are the
    optional child and output truncations, applied around _level.
    """
    kids = col(kids)
    with np.errstate(all="ignore"):
        if pre is not None:
            kids = pre(kids)
        y, z, iters, _ = _level(kids, WCOL, col(H), driver, h, theta)
        if post is not None:
            y = post(y)
    return float(y[0]), float(z[0]), iters


def reference_solve(m, z, driver, hh):
    """The implicit root solve with every pass run in full: the reference
    for schemes._solve, which skips only work that cannot change its
    result."""
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
    failed = np.zeros(m.shape, dtype=np.int8)  # index into _FAILURES
    failed[live & np.where(fa > 0.0, fb > 0.0, fb < 0.0)] = 2
    failed[live & ~np.isfinite(fb)] = 1
    live &= failed == 0
    started = live.copy()
    lo = np.minimum(m, b)
    hi = np.maximum(m, b)
    yv = m
    if driver.root is not None:
        # each live node starts at the driver's root inside the bracket
        y0 = driver.root(m, z, hh)
        yv = np.where(live & (lo <= y0) & (y0 <= hi), y0, m)
    done = ~started
    for _ in range(_MAX_ITER):
        if not live.any():
            break
        iters += live
        fy = F(yv)
        done = np.abs(fy) <= tol
        slope = 1.0 - hh * dfdy(yv, z)
        step = yv - fy / slope
        newton = ((slope > 0.0) & np.isfinite(slope)
                  & (lo <= step) & (step <= hi))
        live &= ~(done | (newton & (step == yv)))
        y_new = np.where(newton, step, 0.5 * (lo + hi))
        up = fy > 0.0
        hi = np.where(up & (yv < hi), yv, hi)
        lo = np.where(up | (yv <= lo), lo, yv)
        live &= np.nextafter(lo, hi) < hi
        yv = np.where(live, y_new, yv)
    live = started & ~done
    if live.any():
        fy = F(yv)
        live &= ~(np.abs(fy) <= tol)
        nb = np.nextafter(yv, np.where(fy > 0.0, -np.inf, np.inf))
        fn = F(nb)
        pinned = live & np.where(fy > 0.0, fn <= 0.0, (fy < 0.0) & (fn >= 0.0))
        yv = np.where(pinned & (np.abs(fn) < np.abs(fy)), nb, yv)
        live &= ~pinned
    failed[live] = 3
    if failed.any():
        first = int(np.argmax(failed != 0))
        raise SolverError(_FAILURES[failed[first]].format(
            M_y=driver.M_y, iters=iters[first]), node=first)
    return (np.where(ok, yv, math.nan), iters, int(iters.sum()),
            int(iters.max()))


def size_constants(spec, trunc, h):
    """The size inequality's c and K^2, written out on their own as the
    reference for the library's one-step constants (d + 1 = 2).  A power
    that overflows takes its limit inf, as in the library."""
    drv = spec.driver
    mm = 2 * (drv.m - 1)
    radius_term = (_power(trunc.R0, mm) * _power(h, -mm * trunc.alpha)
                   if mm else 1.0)
    c = (
        2.0 * drv.M_y
        + 8.0 * drv.L_z ** 2
        + 4.0 * 2 * drv.L_y ** 2 * (1.0 + radius_term) * h
    )
    if drv.f00 == 0.0:
        K2 = 0.0
    elif drv.L_z == 0.0:
        K2 = math.inf
    else:
        K2 = drv.f00 ** 2 / (4.0 * drv.L_z ** 2) + 2 * drv.f00 ** 2 * h
    return c, K2


def stability_constant(spec, trunc, h):
    """The stability inequality's c, the reference like size_constants."""
    drv = spec.driver
    mm = 2 * (drv.m - 1)
    radius_term = (_power(trunc.R0, mm) * _power(h, -mm * trunc.alpha)
                   if mm else 1.0)
    return (
        2.0 * drv.M_y
        + 4.0 * drv.L_z ** 2
        + 3.0 * 2 * drv.L_y ** 2 * (1.0 + 2.0 * radius_term) * h
    )


def reference_one_step(run, trunc, kind, run2=None):
    """The one-step ledger's numbers, level by level: the reference for
    analysis.one_step_checks, which evaluates all levels at once, with
    the constants of run.model.

    Returns a dict of the StabilityLedger fields that the residuals
    determine.
    """
    lattice = run.lattice
    h = lattice.time_grid.h
    W = col(fp.WEIGHTS)
    if kind == "size":
        c, K2 = size_constants(run.model, trunc, h)
        tail = K2 * h
    else:
        c, tail = stability_constant(run.model, trunc, h), 0.0
    ech = _guarded_exp(c * h)
    residual, rhs = [], []
    with np.errstate(all="ignore"):
        for i in range(lattice.time_grid.N):
            if kind == "size":
                y, z = run.y[i], run.z[i]
                nxt = fp.truncate(trunc, h, run.y[i + 1])
            else:
                y = run.y[i] - run2.y[i]
                z = run.z[i] - run2.z[i]
                nxt = run.y[i + 1] - run2.y[i + 1]
            sq = W * lattice.gather(i, nxt) ** 2
            e_sq = (sq[0] + sq[2]) + sq[1]
            rhs.append(_guarded_product(ech, e_sq) + tail)
            residual.append(y * y + 0.125 * z * z * h - rhs[-1])
    res = np.concatenate(residual)
    rhs = np.concatenate(rhs)
    starts = np.cumsum([0] + [len(r) for r in residual[:-1]])
    bad = _is_violation(res, rhs, TOL_ABS, TOL_REL)
    level_violations = np.add.reduceat(bad, starts, dtype=np.int64)
    level_worst = np.maximum.reduceat(res, starts)
    return dict(
        c_value=c,
        total_checked=len(res),
        violations=int(level_violations.sum()),
        rhs_overflows=int(np.count_nonzero(rhs == math.inf)),
        nonfinite=int(np.count_nonzero(~(res < math.inf))),
        worst_residual=float(level_worst.max()),
        level_checked=np.array([len(r) for r in residual]),
        level_violations=level_violations,
        level_worst=level_worst,
    )


@pytest.fixture(scope="session")
def exp1_model():
    return fp.experiment1_model()


@pytest.fixture(scope="session")
def exp2_model():
    return fp.experiment2_model()


@pytest.fixture(scope="session")
def exp1_trunc():
    return fp.TruncationConfig(R0=2.0, alpha=0.249)


@pytest.fixture(scope="session")
def exp2_trunc():
    return fp.TruncationConfig(R0=2.5, alpha=0.249)


@dataclass
class TimedRun:
    run: object
    seconds: float


def _timed_backward(cfg, lattice, model, repeats=2):
    best = None
    run = None
    for _ in range(repeats):
        t0 = time.monotonic()
        run = fp.run_backward(cfg, lattice, model)
        dt = time.monotonic() - t0
        best = dt if best is None else min(best, dt)
    return TimedRun(run=run, seconds=best)


@pytest.fixture(scope="session")
def proxy120(exp1_model, exp1_trunc):
    """Timed implicit and FP runs at N=120 on the shared lattice."""
    lattice = build(exp1_model, 120)
    impl = _timed_backward(
        fp.SchemeConfig(kind="implicit_euler"), lattice, exp1_model
    )
    pre = _timed_backward(
        fp.SchemeConfig(kind="full_projection_pre", truncation=exp1_trunc),
        lattice, exp1_model,
    )
    return {"lattice": lattice, "implicit": impl, "fp": pre}


@pytest.fixture(scope="session")
def fd_exp1(exp1_model):
    return fp.fd_solve(exp1_model, dx=0.02)
