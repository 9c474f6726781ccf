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
from fptree.schemes import _level

W = (1 / 6, 2 / 3, 1 / 6)


def col(values):
    """A (branches, 1) float64 column, the shape the level operator takes."""
    return np.array(values, dtype=float)[:, None]


WCOL = col(W)

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

    Hard mode caps |y| at R; mollified mode maps r = |y| > R to
    R + eps (s - s^2/2), s = (r - R)/eps, constant R + eps/2 from
    r = R + eps on.  nan stays nan.
    """
    R = fp.truncation_radius(cfg, h)
    if y != y:
        return y
    r = abs(y)
    if r <= R:
        return y
    if cfg.mode == "hard":
        return math.copysign(R, y)
    eps = h if cfg.epsilon is None else cfg.epsilon
    if eps <= 0.0 or r >= R + eps:
        return math.copysign(R if eps <= 0.0 else R + 0.5 * eps, y)
    s = (r - R) / eps
    return math.copysign(R + eps * (s - 0.5 * s * s), y)


def child_indices(lattice, level, pos):
    """The children of node `pos` of `level`, as Python ints: the per-node
    reference for the lattice's block `gather`."""
    if lattice.children is None:
        return (pos, pos + 1, pos + 2)
    return tuple(lattice.children[level][pos].tolist())


def build(model, N, grid=None):
    tg = fp.TimeGrid(T=model.T, N=N)
    return fp.build_lattice(model, tg, grid)


def one_node(kids, driver, h, theta=0.0, H=(0.0, 0.0, 0.0), pre=None,
             post=None):
    """The level operator on a one-node level with children `kids`.

    Returns (y, z, iterations) as Python numbers; pre and post are the
    optional child and output truncations.
    """
    kids = col(kids)
    with np.errstate(all="ignore"):
        if pre is not None:
            kids = pre(kids)
        y, z, iters = _level(kids, WCOL, col(H), driver, h, theta, post)
    return float(y[0]), float(z[0]), int(iters[0])


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
