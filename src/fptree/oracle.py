"""Independent reference values.

Three sources, none of which share code with the lattice schemes:

* closed-form solutions of the linear-driver equation f = a*y, where
  Y_t = e^{a(T-t)} E[g(X_T) | F_t] and the Gaussian expectation of the
  built-in terminal functions is analytic;
* an explicit finite-difference solver for the semilinear PDE
  dy/dt + (1/2) sigma^2 y_xx + b y_x + f(y, sigma y_x) = 0, marched
  backward from g with conservative step-size guards;
* the proxy reference: the average of the implicit and full-projection
  values at N = 120, used where no exact solution exists.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Tuple

import numpy as np

from .forward import build_lattice
from .grids import ConfigurationError, TruncationConfig
from .model import ClampG, ConstantG, ModelSpec, QuadraticG
from .schemes import SchemeConfig, run_backward

__all__ = [
    "OracleError",
    "FdSolverError",
    "PdeSolution",
    "linear_solution",
    "fd_solve",
    "ProxyReference",
    "proxy_reference",
]


class OracleError(ValueError):
    """Raised when a reference value cannot be produced for the model."""


class FdSolverError(RuntimeError):
    """Raised when the finite-difference march breaks its guards."""


# ---------------------------------------------------------------------------
# Linear-driver closed form
# ---------------------------------------------------------------------------


_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def _norm_cdf(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / _SQRT2))


def _norm_pdf(x: float) -> float:
    return math.exp(-0.5 * x * x) * _INV_SQRT_2PI


def _gaussian_expectation_of_g(g, mean: float, var: float) -> float:
    """E[g(X)] for X ~ N(mean, var), analytic for the built-in g."""
    if isinstance(g, ConstantG):
        return g.c
    if var <= 0.0:
        return float(g(mean))
    if isinstance(g, QuadraticG):
        return mean * mean + var
    if isinstance(g, ClampG):
        # Y = slope*X ~ N(mu, s^2); E[clamp(Y, lo, hi)] in closed form
        mu = g.slope * mean
        s = abs(g.slope) * math.sqrt(var)
        if s == 0.0:
            return float(g(mean))
        a = (g.lo - mu) / s
        b = (g.hi - mu) / s
        return (
            g.lo * _norm_cdf(a)
            + g.hi * (1.0 - _norm_cdf(b))
            + mu * (_norm_cdf(b) - _norm_cdf(a))
            - s * (_norm_pdf(b) - _norm_pdf(a))
        )
    raise OracleError(
        "no closed-form Gaussian expectation for terminal function %r" % (g,)
    )


def linear_solution(a: float, spec: ModelSpec):
    """Closed-form solution for the linear driver f(y, z) = a*y.

    Requires constant coefficients.  Returns (y_of_t, Y0) where
    y_of_t(t) = e^{a(T-t)} E[g(X_T) | X_t = x0 + b*t] along the mean
    path, and Y0 = y_of_t(0).
    """
    if not spec.has_constant_coefficients:
        raise OracleError("linear_solution requires constant b and sigma")
    T = spec.T
    b0 = spec.b_const
    s0 = spec.sigma_const

    def y_of_t(t: float) -> float:
        if not 0.0 <= t <= T:
            raise OracleError("t outside [0, T]")
        mean = spec.x0 + b0 * T
        var = s0 * s0 * (T - t)
        return math.exp(a * (T - t)) * _gaussian_expectation_of_g(
            spec.g, mean, var
        )

    return y_of_t, y_of_t(0.0)


# ---------------------------------------------------------------------------
# Finite-difference PDE solver
# ---------------------------------------------------------------------------


class PdeSolution(NamedTuple):
    """Snapshots of the backward PDE solution on a uniform space grid.

    xs is the grid; ts the snapshot times (increasing, containing 0 and
    T); values[k] the solution at ts[k] on xs.
    """

    xs: np.ndarray
    ts: Tuple[float, ...]
    values: np.ndarray

    def _slice(self, t: float) -> np.ndarray:
        for k, tk in enumerate(self.ts):
            if abs(tk - t) <= 1e-12 * max(1.0, abs(t)):
                return self.values[k]
        raise OracleError(
            "time %r is not one of the stored snapshots %r" % (t, self.ts)
        )

    def value_at(self, t: float, x: np.ndarray):
        """The snapshot at t linearly interpolated at x, elementwise.

        x is a float, which gives a float, or a float64 array of states.
        Raises OracleError when t is not a snapshot time or any x lies
        outside the domain [xs[0], xs[-1]].
        """
        xs = self.xs
        outside = np.asarray(x)[~((xs[0] <= x) & (x <= xs[-1]))]
        if outside.size:
            raise OracleError(
                "x=%r outside the PDE domain" % (float(outside[0]),))
        vals = self._slice(t)
        j = np.clip(np.searchsorted(xs, x), 1, len(xs) - 1)
        x0, x1 = xs[j - 1], xs[j]
        with np.errstate(divide="ignore", invalid="ignore"):
            w = np.where(x1 == x0, 0.0, (x - x0) / (x1 - x0))
        v = (1.0 - w) * vals[j - 1] + w * vals[j]
        return v if isinstance(x, np.ndarray) else float(v)


def _reaction_bound(spec: ModelSpec, y_range: float) -> float:
    """Grid estimate of sup |df/dy| over |y| <= y_range (z fixed at 0)."""
    ys = np.linspace(-y_range, y_range, 513)
    return float(np.max(np.abs(spec.driver.dfdy(ys, 0.0))))


# the FD domain reaches this many standard deviations of X_T from x0
_EXTENT_SIGMAS = 6.0
# the most grid points times time steps fd_solve marches.  The largest
# march of the tests, experiment1 at dx = 0.02, takes 901 points by
# 78,732 steps (7.1e7 point-steps, 1.9 s on a 2-core x86 host at about
# 27 ns a point-step); the documented runs make none
_MAX_POINT_STEPS = 2e8


def _check_march(points: float, steps: float) -> None:
    """Raise FdSolverError where a march of this many grid points and
    time steps exceeds _MAX_POINT_STEPS."""
    if not points * steps <= _MAX_POINT_STEPS:
        raise FdSolverError(
            "the march needs %.0f points x %.0f steps, more than the %.0f "
            "point-steps fd_solve allows" % (points, steps, _MAX_POINT_STEPS))


def fd_solve(
    spec: ModelSpec,
    dx: float = 0.02,
    snapshots: int = 1,
) -> PdeSolution:
    """Explicit finite-difference march of the backward semilinear PDE.

    The domain is [x0 - 6 sigma sqrt(T), x0 + 6 sigma sqrt(T)]; the
    terminal slice is g; boundary closure sets the second derivative to
    zero at the edges.  dt is half the tightest of the diffusion CFL
    bound dx^2/sigma^2, the reaction bound 1/(2 L_react) and the
    advection bound dx/|b|, rounded so the number of steps is a
    multiple of `snapshots`.  The reaction bound is re-checked each
    step against the current value range, so drivers that leave the
    initially observed range are caught instead of silently
    under-resolved.  A march of more than _MAX_POINT_STEPS grid points
    times steps raises FdSolverError before it starts: it is sized
    from the diffusion and advection bounds before the grid is made,
    and again with the reaction bound.
    """
    if not spec.has_constant_coefficients:
        raise OracleError("fd_solve requires constant b and sigma")
    if not dx > 0:
        raise ConfigurationError("dx must be positive")
    if snapshots < 1:
        raise ConfigurationError("snapshots must be >= 1")
    T = spec.T
    s0 = spec.sigma_const
    b0 = spec.b_const
    if s0 == 0.0:
        raise OracleError("fd_solve requires sigma != 0")

    half_width = _EXTENT_SIGMAS * abs(s0) * math.sqrt(T)
    dt_diff = dx * dx / (s0 * s0)
    dt_adv = dx / abs(b0) if b0 != 0.0 else math.inf
    dt_free = min(dt_diff, dt_adv)
    # the reaction bound can only add steps
    _check_march(2.0 * half_width / dx + 1.0,
                 T / (0.5 * dt_free) if dt_free > 0.0 else math.inf)
    n_half = int(math.ceil(half_width / dx))
    xs = spec.x0 + dx * np.arange(-n_half, n_half + 1)
    v = np.asarray(spec.g(xs), dtype=float)
    if not np.isfinite(v).all():
        raise FdSolverError("terminal data non-finite on the FD grid")

    y_range = float(np.max(np.abs(v)))
    l_react = _reaction_bound(spec, max(y_range, 1.0))
    dt_react = 0.5 / l_react if l_react > 0 else math.inf
    dt_target = 0.5 * min(dt_free, dt_react)
    per_block = max(1, int(math.ceil(T / snapshots / dt_target)))
    n_steps = per_block * snapshots
    _check_march(len(xs), n_steps)
    dt_eff = T / n_steps

    lam = 0.5 * s0 * s0 * dt_eff / (dx * dx)
    mu = 0.5 * b0 * dt_eff / dx
    f = spec.driver.eval
    sig = s0

    snap_every = per_block
    out = [v.copy()]
    cur = v
    for step in range(1, n_steps + 1):
        d2 = np.empty_like(cur)
        d2[1:-1] = cur[2:] - 2.0 * cur[1:-1] + cur[:-2]
        d2[0] = 0.0  # zero-curvature closure
        d2[-1] = 0.0
        d1 = np.empty_like(cur)
        d1[1:-1] = cur[2:] - cur[:-2]
        d1[0] = 2.0 * (cur[1] - cur[0])
        d1[-1] = 2.0 * (cur[-1] - cur[-2])
        zfield = sig * d1 / (2.0 * dx)
        cur = cur + lam * d2 + mu * d1 + dt_eff * np.asarray(
            f(cur, zfield), dtype=float
        )
        if not np.isfinite(cur).all():
            raise FdSolverError("FD values became non-finite at step %d" % step)
        cur_max = float(np.max(np.abs(cur)))
        if cur_max > y_range:
            y_range = cur_max
            l_now = _reaction_bound(spec, max(y_range, 1.0))
            if dt_eff * l_now > 0.5:
                raise FdSolverError(
                    "reaction guard violated: values grew to |y|=%g, "
                    "dt*L=%g > 1/2" % (cur_max, dt_eff * l_now)
                )
        if step % snap_every == 0:
            out.append(cur.copy())

    # out[k] holds the solution at backward time k*block from T;
    # reorder to increasing forward time t = T - tau
    out.reverse()
    ts = tuple(T * k / snapshots for k in range(snapshots + 1))
    return PdeSolution(xs=xs, ts=ts, values=np.asarray(out))


# ---------------------------------------------------------------------------
# Proxy reference
# ---------------------------------------------------------------------------


class ProxyReference(NamedTuple):
    """Average of the implicit and full-projection values at one N."""

    value: float
    implicit_y0: float
    fp_y0: float
    N: int


def proxy_reference(
    spec: ModelSpec,
    trunc: TruncationConfig,
    N: int = 120,
) -> ProxyReference:
    """(Y0_implicit + Y0_full_projection)/2 at the proxy resolution N.

    Symmetric in the two runs and deterministic.  Raises OracleError
    when either run produces non-finite values, since an average of
    garbage is not a reference.
    """
    lattice = build_lattice(spec, N)
    impl = run_backward(SchemeConfig(kind="implicit_euler"), lattice, spec)
    fp = run_backward(
        SchemeConfig(kind="full_projection_pre", truncation=trunc),
        lattice,
        spec,
    )
    if not (impl.finite and fp.finite):
        raise OracleError(
            "proxy reference needs finite runs: implicit finite=%s, "
            "full-projection finite=%s" % (impl.finite, fp.finite)
        )
    return ProxyReference(
        value=0.5 * (impl.y0 + fp.y0),
        implicit_y0=impl.y0,
        fp_y0=fp.y0,
        N=N,
    )
