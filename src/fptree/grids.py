"""Time grids, truncation operators, martingale weights, and lattices.

This module owns the small deterministic objects the schemes are built
from: the uniform time grid, the polynomial-radius truncation
T(y) = min(1, R/|y|) y with R = R0 * h^{-alpha}, the moment-matched
trinomial increment law, the truncated-increment weight family H_j
with its normalization Lambda, and the spatial grid with nearest-point
projection.

The trinomial law is a constant of h, not an object: its branch
weights are WEIGHTS = (1/6, 2/3, 1/6) at every step, its increments
are increments(h) = (-sqrt(3h), 0, sqrt(3h)), and moment_exact(h, k)
and weight_values(h) are closed forms in h.  Moments and Lambda are
computed in exact rational arithmetic: the squared increments 3h are
rational, so even moments are exact Fractions and odd moments vanish
by symmetry; this is what makes "moments 0..5 equal the Gaussian's
exactly" a testable statement rather than a tolerance game.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Tuple

import numpy as np

__all__ = [
    "ConfigurationError",
    "TimeGrid",
    "TruncationConfig",
    "SpatialGrid",
    "truncation_radius",
    "truncate",
    "increment_radius",
    "WEIGHTS",
    "increments",
    "moment_exact",
    "gaussian_moment_exact",
    "weight_values",
    "grid_project",
    "grid_project_index",
    "alpha_cap",
    "default_alpha",
    "check_alpha",
]


class ConfigurationError(ValueError):
    """Raised when grid/truncation/weight parameters are inconsistent."""


class _Checked:
    """Base of a record whose fields are checked when it is made.

    A checked record is ``class R(_Checked, _RFields)``, where _RFields
    is the NamedTuple of its fields, and defines ``_check(self)``, which
    raises on bad fields.  The constructor, _make and hence _replace all
    run it, so no copy skips the checks.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        self._check()
        return self

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


# ---------------------------------------------------------------------------
# Time grid
# ---------------------------------------------------------------------------


class _TimeGridFields(NamedTuple):
    T: float
    N: int


class TimeGrid(_Checked, _TimeGridFields):
    """Uniform subdivision of [0, T] into N steps of size h = T/N."""

    __slots__ = ()

    def _check(self):
        if not self.T > 0:
            raise ConfigurationError("T must be positive, got %r" % (self.T,))
        if self.N < 1:
            raise ConfigurationError("N must be >= 1, got %r" % (self.N,))

    @property
    def h(self) -> float:
        return self.T / self.N

    @property
    def times(self) -> Tuple[float, ...]:
        h = self.h
        return tuple(i * h for i in range(self.N + 1))


# ---------------------------------------------------------------------------
# Truncation of values
# ---------------------------------------------------------------------------


class _TruncationConfigFields(NamedTuple):
    R0: float
    alpha: float


class TruncationConfig(_Checked, _TruncationConfigFields):
    """Parameters of the value truncation T(y).

    R0 and alpha set the radius R = R0 * h^{-alpha}; both must be
    positive and finite.
    """

    __slots__ = ()

    def _check(self):
        if not 0 < self.R0 < math.inf:
            raise ConfigurationError("R0 must be positive and finite")
        if not 0 < self.alpha < math.inf:
            raise ConfigurationError("alpha must be positive and finite")


def alpha_cap(m: int) -> float:
    """1/(2(m-1)), the cap on alpha for a degree-m driver; inf at m = 1."""
    return 1.0 / (2.0 * (m - 1)) if m > 1 else math.inf


def default_alpha(m: int) -> float:
    """Largest clean exponent for a degree-m driver.

    The radius exponent must satisfy alpha <= alpha_cap(m); the default
    backs off by 1e-3 so the strict-inequality limits apply.  For m = 1
    the constraint is vacuous and 1.0 is returned (any positive value
    is admissible; a large alpha keeps the radius far from Lipschitz
    data).
    """
    if m <= 1:
        return 1.0
    return alpha_cap(m) - 1e-3


def check_alpha(cfg: TruncationConfig, m: int) -> None:
    """Enforce alpha <= 1/(2(m-1)) for the model's growth degree."""
    if cfg.alpha > alpha_cap(m):
        raise ConfigurationError(
            "alpha=%g exceeds 1/(2(m-1))=%g for m=%d"
            % (cfg.alpha, alpha_cap(m), m)
        )


def _power(base: float, expo: float) -> float:
    """base ** expo, or inf where the float power overflows."""
    try:
        return base ** expo
    except OverflowError:
        return math.inf


def truncation_radius(cfg: TruncationConfig, h: float) -> float:
    """R = R0 * h^{-alpha}; nonincreasing in h, and inf where the power
    overflows, which makes the truncation the identity."""
    if not h > 0:
        raise ConfigurationError("h must be positive, got %r" % (h,))
    return cfg.R0 * _power(h, -cfg.alpha)


def truncate(cfg: TruncationConfig, h: float, y: np.ndarray) -> np.ndarray:
    """Radial truncation min(1, R/|y|) y at R = R0 * h^{-alpha}, elementwise.

    The map is the projection onto [-R, R]: odd, 1-Lipschitz,
    idempotent and total.  nan stays nan (an exploded value must remain
    visible) and +-inf maps to the signed cap.  _truncator's clamp is
    bitwise the selection np.where(|y| <= R or y is nan, y,
    copysign(R, y)): np.maximum and np.minimum pass a nan operand
    through unchanged, keep -0.0 and, at |y| = R, give y.
    """
    return _truncator(cfg, h)(y)


def _truncator(cfg: TruncationConfig, h: float):
    """The map y -> truncate(cfg, h, y) on float64 values, its radius
    computed once.  R and -R are float64 0-d arrays, which numpy applies
    faster than Python floats, to the same bits."""
    R = np.array(truncation_radius(cfg, h))
    nR = -R
    return lambda y: np.minimum(np.maximum(y, nR), R)


# ---------------------------------------------------------------------------
# Increment truncation and weights
# ---------------------------------------------------------------------------


def increment_radius(h: float) -> float:
    """r = sqrt(2h) * ln(1/h); positive only for h < 1."""
    if not h > 0:
        raise ConfigurationError("h must be positive, got %r" % (h,))
    return math.sqrt(2.0 * h) * math.log(1.0 / h)


# The trinomial increment law: support (-sqrt(3h), 0, sqrt(3h)) with
# these branch weights, the same at every node of every lattice.
WEIGHTS = (1.0 / 6.0, 2.0 / 3.0, 1.0 / 6.0)


def increments(h: float) -> Tuple[float, float, float]:
    """The trinomial increments (-sqrt(3h), 0, sqrt(3h)), in branch order.

    With WEIGHTS they match the N(0, h) moments through order 5.
    """
    if not h > 0:
        raise ConfigurationError("h must be positive, got %r" % (h,))
    g = math.sqrt(3.0 * h)
    return (-g, 0.0, g)


def moment_exact(h: float, k: int) -> Fraction:
    """k-th moment of the trinomial increment as an exact Fraction.

    Odd moments vanish by symmetry; the even ones are (3h)^{k/2} / 3
    for k > 0, with h taken at its binary value.  Order 6 is the first
    mismatch with the Gaussian: 9h^3 against 15h^3.
    """
    if not h > 0:
        raise ConfigurationError("h must be positive, got %r" % (h,))
    if k < 0:
        raise ConfigurationError("moment order must be >= 0")
    if k % 2 == 1:
        return Fraction(0)
    if k == 0:
        return Fraction(1)
    return (3 * Fraction(h)) ** (k // 2) / 3


def gaussian_moment_exact(h: float, k: int) -> Fraction:
    """k-th moment of N(0, h) as a Fraction of the (binary) value of h.

    Odd moments vanish; even moments are (k-1)!! h^{k/2}.
    """
    if k < 0:
        raise ConfigurationError("moment order must be >= 0")
    if k % 2 == 1:
        return Fraction(0)
    double_fact = 1
    for j in range(k - 1, 0, -2):
        double_fact *= j
    return double_fact * Fraction(h) ** (k // 2)


def weight_values(h: float) -> Tuple[Tuple[float, float, float], float]:
    """Per-branch weights H_j = clamp(g_j) / h and their Lambda.

    The outer increments +-g, g = sqrt(3h), are clamped to
    [-r_h, r_h] with r_h = increment_radius(h) before dividing by h.
    The radius sqrt(2h) ln(1/h) is positive only for h < 1, so at
    h >= 1 no increment is clamped.

    Lambda = h * sum_j p_j H_j^2 is exactly 1 when no increment is
    clamped.  When the outer two are, it is r_h^2 / (3h), evaluated in
    exact rational arithmetic and rounded once; r_h < g, so
    0 < Lambda < 1.
    """
    g = increments(h)[2]
    c = min(g, increment_radius(h)) if h < 1.0 else g
    lam = 1.0 if c == g else float(Fraction(c) ** 2 / (3 * Fraction(h)))
    return (-c / h, 0.0, c / h), lam


# ---------------------------------------------------------------------------
# Spatial grid
# ---------------------------------------------------------------------------


class _SpatialGridFields(NamedTuple):
    x0: float
    eta: float
    M: int


class SpatialGrid(_Checked, _SpatialGridFields):
    """Uniform grid x0 + k*eta for |k| <= M, with M at most 2**52."""

    __slots__ = ()

    def _check(self):
        if not 0 < self.eta < math.inf:
            raise ConfigurationError("eta must be positive and finite")
        if not math.isfinite(self.x0):
            raise ConfigurationError("x0 must be finite")
        if self.M < 0:
            raise ConfigurationError("M must be nonnegative")
        if self.M > 2 ** 52:
            raise ConfigurationError(
                "M must be at most 2**52, beyond which float grid indices "
                "are not exact")

    def point(self, k: np.ndarray) -> np.ndarray:
        return self.x0 + k * self.eta


def grid_project_index(grid: SpatialGrid, x: np.ndarray):
    """Indices of the nearest grid points and saturation flags.

    Ties break toward the smaller coordinate (k = ceil(u - 1/2) rounds
    half-integers down).  Out-of-hull x clamps to the boundary index
    with the flag set; callers that track saturation counts read it
    from here, keeping the grid itself immutable.  k is clipped in
    float before the int64 cast, so a huge finite x saturates on its
    own side; non-finite x raises ConfigurationError.  Returns int64
    and bool arrays of x's shape.
    """
    x = np.asarray(x, dtype=np.float64)
    if not np.isfinite(x).all():
        raise ConfigurationError("cannot project the non-finite state %r"
                                 % (float(x[~np.isfinite(x)][0]),))
    with np.errstate(over="ignore"):
        k = np.ceil((x - grid.x0) / grid.eta - 0.5)
    saturated = np.abs(k) > grid.M
    return np.clip(k, -grid.M, grid.M).astype(np.int64), saturated


def grid_project(grid: SpatialGrid, x: np.ndarray) -> np.ndarray:
    """Nearest grid points of x (ties toward the smaller coordinate)."""
    k, _ = grid_project_index(grid, x)
    return grid.point(k)
