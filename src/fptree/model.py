"""Problem specification for decoupled forward-backward systems.

A model instance bundles the forward coefficients b and sigma, the
terminal function g, and the driver f(y, z) together with the constants
under which the rest of the library operates:

    (Mon)   (y' - y) (f(y', z) - f(y, z)) <= M_y (y' - y)^2
    (RegY)  |f(y', z) - f(y, z)| <= L_y (1 + |y'|^{m-1} + |y|^{m-1}) |y' - y|
    (RegZ)  |f(y, z') - f(y, z)| <= L_z |z' - z|

Drivers built by :func:`poly_driver` (polynomial in y plus a linear z
term) derive these constants symbolically.  Arbitrary callables are
accepted too, with their derivative in y, but then the constants are
trusted as declared.
:func:`validate_model` probes the declared constants numerically on a
deterministic low-discrepancy sample and reports the worst observed
ratios, so a bad declaration is caught instead of silently poisoning
the stability monitors downstream.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .grids import _Checked

__all__ = [
    "DriverSpec",
    "ModelSpec",
    "ValidationReport",
    "CheckResult",
    "poly_driver",
    "validate_model",
    "quadratic_g",
    "lipschitz_clamp_g",
    "constant_g",
    "constant_b_sigma",
    "make_constant_model",
    "experiment1_model",
    "experiment2_model",
    "linear_model",
]


class ModelError(ValueError):
    """Raised for inconsistent model specifications."""


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


class _DriverSpecFields(NamedTuple):
    eval: Callable
    M_y: float
    L_y: float
    m: int
    L_z: float
    f00: float
    dfdy: Callable
    label: str = "custom"
    root: Optional[Callable] = None


class DriverSpec(_Checked, _DriverSpecFields):
    """The driver f(y, z) and its assumption constants.

    Attributes
    ----------
    eval : callable
        f(y, z) -> real.  Accepts floats or numpy arrays.
    M_y : float
        One-sided (monotonicity) constant of (Mon).
    L_y : float
        Growth-Lipschitz constant of (RegY).
    m : int
        Polynomial growth degree, m >= 1.  m = 1 means globally
        Lipschitz in y.
    L_z : float
        Lipschitz constant in z.  A driver that declares L_z = 0 must
        not read z, in eval or in root: where theta < 1, run_backward
        calls its eval as eval(v, None) on the child values of a level,
        once per child node, and its root as root(m, None, hh).
    f00 : float
        The value f(0, 0).
    dfdy : callable
        Partial derivative in y, dfdy(y, z), with the array contract of
        eval.  Every driver supplies it: the implicit solver's Newton
        steps and the finite-difference reaction bound read it.
    root : callable or None
        root(m, z, hh), the array of real roots of y - hh f(y, z) = m
        with the array contract of eval, or None.  It is the implicit
        solver's start: a wrong root never costs accuracy, and a
        non-finite one, or one outside the solver's bracket, leaves that
        node's start at m.  run_backward takes it as a level's value
        where a solve started from it returns the same bits, so it
        returns a float64 array of m's shape, computed elementwise.  It
        is more than a start there: a root that misses costs the
        guessed block of levels and one failed check before the level
        by level solves begin.  :func:`poly_driver` supplies it up to
        degree 3.
    """

    __slots__ = ()

    def _check(self):
        if self.m < 1:
            raise ModelError("driver degree m must be >= 1, got %r" % (self.m,))
        if self.L_y < 0 or self.L_z < 0:
            raise ModelError("L_y and L_z must be nonnegative")


def _horner(coeffs: Sequence[float]):
    """Evaluate sum_k coeffs[k] * y^k with plain multiplies.

    Plain * and + follow IEEE semantics on overflow (inf, then nan),
    which the explicit scheme relies on to record explosions instead of
    raising; y**k would raise OverflowError instead.  Floats and arrays
    go through the same operations, so they agree elementwise, also at
    +-inf.  A constant polynomial returns its float for any input.

    The adds of zero coefficients are skipped, except the constant
    term's, and the result is still bitwise the plain Horner's: x + 0.0
    is x but for turning -0.0 into +0.0 (x + -0.0 is always x), so a
    skip can only leave a zero accumulator's sign unchanged.  A multiply
    passes that sign on to a zero or drops it into a nan that does not
    depend on it, the add of a nonzero coefficient drops it, and the
    constant term's add drops it last, since zero + c0 is c0 for every
    c0 but -0.0.  With c0 = -0.0 nothing is skipped.
    """
    cs = tuple(float(c) for c in coeffs)
    lead, rest = cs[-1], cs[-2::-1]
    if rest and math.copysign(1.0, rest[-1]) > 0.0:
        rest = tuple(None if c == 0.0 else c for c in rest[:-1]) + rest[-1:]

    def p(y):
        acc = lead
        for c in rest:
            acc = acc * y
            if c is not None:
                acc = acc + c
        return acc

    return p


def _per_hh(make):
    """make(hh), computed again only when hh is not the object of the
    last call: a run passes one hh object to every level's root."""
    memo = [(None, None)]

    def get(hh):
        last, value = memo[0]
        if hh is not last:
            value = make(hh)
            memo[0] = (hh, value)
        return value

    return get


def _implicit_root(cs: Sequence[float], zc: float):
    """The closed-form real root of y - hh f(y, z) = m for the driver
    f = sum_k cs[k] y^k + zc z of degree <= 3, or None above degree 3.

    The y-free terms fold into the right side M = m + hh (c0 + zc z),
    or m + hh c0 when zc = 0.
    Degree <= 1 gives the quotient M / (1 - hh c1).  A cubic, whose
    c3 < 0, is divided by a = -hh c3 > 0 and depressed by y = t - B/3,
    B = c2/c3, to t^3 + P t + Q = 0.  An increasing F has P > 0 and one
    real root, Cardano's u - v with s = sqrt(Q^2/4 + P^3/27),
    u = cbrt(|Q|/2 + s) and v = P/(3u), which is written as
    -Q/(u^2 + uv + v^2) to avoid the cancellation of u - v; s is a
    hypot, so Q^2 cannot overflow.

    The constants of hh are computed once per hh and held as float64
    0-d arrays, which numpy applies faster than Python floats, to the
    same bits.  The cubic takes |Q|/2 as |Q/2|, the same float, and
    skips the add of a zero hh c0 (at zc = 0) or a zero (2B^2 - 9C)B/27
    where its only effect, the sign of a zero -Q and so of a zero
    quotient, is lost in the quotient's subtraction of B/3: that
    subtraction gives -B/3 at +-0, and +0.0 at B/3 = -0.0.  So B/3 must
    not be +0.0 for the skip, and the bits stay the full formula's.
    """
    if len(cs) > 4:
        return None
    c0, c1, c2, c3 = (list(cs) + [0.0] * 3)[:4]

    def folder(hh):
        if not zc:
            hc0 = np.array(hh * c0)
            return lambda m, z: m + hc0
        hh_, c0_, zc_ = np.array(hh), np.array(c0), np.array(zc)
        return lambda m, z: m + hh_ * (c0_ + zc_ * z)

    if not c3:  # degree <= 1: poly_driver admits no degree 2
        @_per_hh
        def linear(hh):
            return folder(hh), np.array(1.0 - hh * c1)

        def root(m, z, hh):
            fold, d = linear(hh)
            return fold(m, z) / d
        return root
    B = c2 / c3
    B3 = np.array(B / 3.0)
    # whether subtracting B/3 loses the sign of a zero
    lost = B / 3.0 != 0.0 or math.copysign(1.0, B / 3.0) < 0.0
    half = np.array(0.5)

    @_per_hh
    def cubic(hh):
        a = -hh * c3
        # a underflows to 0 where hh |c3| is below the least subnormal:
        # numpy's division makes C inf there, and the root nan, no start
        C = np.float64(1.0 - hh * c1) / a
        P = C - B * B / 3.0
        # -Q = M/a - B (2B^2 - 9C)/27
        off = B * (2.0 * B * B - 9.0 * C) / 27.0
        # P <= 0 (F not increasing) gives no start
        k = P * math.sqrt(P / 27.0) if P > 0.0 else math.nan
        skip = lost and not zc and hh * c0 == 0.0
        return (None if skip else folder(hh), np.array(a),
                None if lost and off == 0.0 else np.array(off),
                np.array(k), np.array(P / 3.0))

    def root(m, z, hh):
        fold, a, off, k, P3 = cubic(hh)
        nq = (m if fold is None else fold(m, z)) / a
        if off is not None:
            nq = nq - off
        hq = half * nq
        s = np.hypot(hq, k)
        u = np.cbrt(np.abs(hq) + s)
        v = P3 / u
        return nq / (u * (u + v) + v * v) - B3
    return root


def poly_driver(coeffs: Sequence[float], z_coeff: float = 0.0) -> DriverSpec:
    """Driver f(y, z) = sum_k coeffs[k] y^k + z_coeff * z.

    With z_coeff = 0 (every preset) f is p(y) and ignores z, a
    non-finite z included.

    The assumption constants are derived from the coefficients:

    * M_y is the supremum of the derivative p'(y) over the real line
      (finite only when p' is bounded above, i.e. the driver is
      one-sided Lipschitz); drivers without a finite supremum are
      rejected.
    * L_y uses the factorization |y'^k - y^k| <=
      (k/2)(|y'|^{k-1} + |y|^{k-1}) |y' - y| for k >= 2.  The constant
      term of (RegY) absorbs the k = 1 part and the middle powers, the
      two top-power slots absorb the rest, giving
      L_y = max(|c_1| + sum_{1<k<m} k |c_k|, sum_{k>=2} (k/2) |c_k|).
    * L_z = |z_coeff|, m = deg p (at least 1), f00 = c_0.
    """
    cs = [float(c) for c in coeffs]
    while len(cs) > 1 and cs[-1] == 0.0:
        cs.pop()
    deg = len(cs) - 1
    m = max(deg, 1)

    # derivative polynomial p'(y), ascending coefficients
    dcs = [k * cs[k] for k in range(1, deg + 1)]

    if not dcs:
        M_y = 0.0
    elif len(dcs) == 1:
        M_y = dcs[0]
    else:
        ddeg = len(dcs) - 1
        lead = dcs[-1]
        if ddeg % 2 == 1 or lead > 0:
            raise ModelError(
                "driver %r is not one-sided Lipschitz (p' unbounded above)"
                % (tuple(cs),)
            )
        # finite maximum: evaluate p' at the real critical points of p''
        ddcs = [k * dcs[k] for k in range(1, len(dcs))]
        roots = np.roots(ddcs[::-1])
        real = [r.real for r in roots if abs(r.imag) < 1e-9]
        dp = _horner(dcs)
        M_y = max(dp(r) for r in real) if real else dp(0.0)
        M_y = float(M_y)

    slot_const = abs(cs[1]) if deg >= 1 else 0.0
    slot_const += sum(k * abs(cs[k]) for k in range(2, m))
    slot_power = sum(0.5 * k * abs(cs[k]) for k in range(2, deg + 1))
    L_y = max(slot_const, slot_power)

    p = _horner(cs)
    dp = _horner(dcs or (0.0,))
    zc = float(z_coeff)

    def f(y, z):
        return p(y) + zc * z if zc else p(y)

    def dfdy(y, z):
        return dp(y)

    return DriverSpec(
        eval=f,
        M_y=M_y,
        L_y=L_y,
        m=m,
        L_z=abs(zc),
        f00=cs[0],
        dfdy=dfdy,
        label="poly(%s)%s" % (",".join(repr(c) for c in cs),
                              "" if zc == 0.0 else "+%r*z" % zc),
        root=_implicit_root(cs, zc),
    )


# ---------------------------------------------------------------------------
# Terminal functions and coefficients
# ---------------------------------------------------------------------------


class QuadraticG:
    """g(x) = x^2.  Not globally Lipschitz; lipschitz is None.

    A plain class, since a record without fields would be the empty
    tuple; every instance is the same function, so all compare equal.
    """

    __slots__ = ()
    lipschitz = None

    def __call__(self, x):
        return x * x

    def __repr__(self):
        return "QuadraticG()"

    def __eq__(self, other):
        return type(other) is type(self)

    def __hash__(self):
        return hash(type(self))


class _ClampGFields(NamedTuple):
    lo: float
    hi: float
    slope: float = 1.0


class ClampG(_Checked, _ClampGFields):
    """g(x) = clamp(slope * x, lo, hi), Lipschitz with constant |slope|."""

    __slots__ = ()

    def _check(self):
        if not self.lo <= self.hi:
            raise ModelError("clamp requires lo <= hi")

    @property
    def lipschitz(self) -> float:
        return abs(self.slope)

    def __call__(self, x):
        return np.clip(self.slope * x, self.lo, self.hi)


class ConstantG(NamedTuple):
    c: float
    lipschitz = 0.0

    def __call__(self, x):
        return np.full(np.shape(x), self.c)


def quadratic_g() -> QuadraticG:
    return QuadraticG()


def lipschitz_clamp_g(lo: float, hi: float, slope: float = 1.0) -> ClampG:
    return ClampG(lo=float(lo), hi=float(hi), slope=float(slope))


def constant_g(c: float) -> ConstantG:
    return ConstantG(c=float(c))


class ConstantCoefficient(NamedTuple):
    """A coefficient (t, x) -> value that does not depend on (t, x)."""

    value: float

    def __call__(self, t, x):
        return self.value


def constant_b_sigma(b0: float, sigma0: float):
    """Constant drift/diffusion pair as callables tagged constant."""
    return ConstantCoefficient(float(b0)), ConstantCoefficient(float(sigma0))


# ---------------------------------------------------------------------------
# Model
# ---------------------------------------------------------------------------


class _ModelSpecFields(NamedTuple):
    T: float
    x0: float
    b: Callable
    sigma: Callable
    g: Callable
    driver: DriverSpec


class ModelSpec(_Checked, _ModelSpecFields):
    """A full problem instance.

    The coefficients b(t, x) and sigma(t, x) take a float t and a
    float64 array x of states and return a float or an array that
    broadcasts against x, like DriverSpec.eval; the projected lattice
    calls them once per level.  The terminal function g follows the
    same contract: it takes a float64 array of states and returns an
    array or a float that broadcasts against it; a Lipschitz constant
    it declares is its attribute lipschitz, which validate_model
    probes.  Both X and Y are scalar.
    """

    __slots__ = ()

    def _check(self):
        if not self.T > 0:
            raise ModelError("horizon T must be positive")

    @property
    def b_const(self) -> Optional[float]:
        return self.b.value if isinstance(self.b, ConstantCoefficient) else None

    @property
    def sigma_const(self) -> Optional[float]:
        return (
            self.sigma.value
            if isinstance(self.sigma, ConstantCoefficient)
            else None
        )

    @property
    def has_constant_coefficients(self) -> bool:
        return self.b_const is not None and self.sigma_const is not None


def make_constant_model(T, x0, b, sigma, g, driver: DriverSpec) -> ModelSpec:
    """Model with constant drift b and diffusion sigma."""
    b_fn, s_fn = constant_b_sigma(b, sigma)
    return ModelSpec(T=float(T), x0=float(x0), b=b_fn, sigma=s_fn, g=g,
                     driver=driver)


def experiment1_model() -> ModelSpec:
    """Convergence study setup: X = 1.5 W, f = -y^3, g = x^2 on [0, 1]."""
    return make_constant_model(
        T=1.0, x0=0.0, b=0.0, sigma=1.5,
        g=quadratic_g(), driver=poly_driver((0.0, 0.0, 0.0, -1.0)),
    )


def experiment2_model() -> ModelSpec:
    """Stability study setup: sigma = 2.5, f = -y - y^3, g = clamp(x, -7, 7)."""
    return make_constant_model(
        T=1.0, x0=0.0, b=0.0, sigma=2.5,
        g=lipschitz_clamp_g(-7.0, 7.0),
        driver=poly_driver((0.0, -1.0, 0.0, -1.0)),
    )


def linear_model(a: float = -1.0) -> ModelSpec:
    """Linear-driver setup f = a*y with closed-form reference solution."""
    return make_constant_model(
        T=1.0, x0=0.0, b=0.0, sigma=1.5,
        g=quadratic_g(), driver=poly_driver((0.0, float(a))),
    )


# ---------------------------------------------------------------------------
# Numerical validation of declared constants
# ---------------------------------------------------------------------------


class CheckResult(NamedTuple):
    name: str
    passed: bool
    worst: float
    witness: tuple = ()


class ValidationReport(NamedTuple):
    checks: tuple

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self):
        return [c for c in self.checks if not c.passed]


# half-widths of the y and z ranges validate_model probes, the
# tolerance of its residuals and the size of its sample
Y_MAX = 50.0
Z_MAX = 50.0
PROBE_TOL = 1e-9
PROBE_BUDGET = 10_000


# Kronecker (additive recurrence) sequence based on the generalized
# golden ratio, from index 1; deterministic, well spread, no RNG state.
def _kronecker(n: int, dim: int):
    phi = 2.0
    for _ in range(40):
        phi = (1.0 + phi) ** (1.0 / (dim + 1))
    alphas = [(1.0 / phi) ** (k + 1) % 1.0 for k in range(dim)]
    out = np.empty((n, dim))
    idx = np.arange(1, n + 1, dtype=float)[:, None]
    out[:] = (0.5 + idx * np.asarray(alphas)[None, :]) % 1.0
    return out


def validate_model(spec: ModelSpec) -> ValidationReport:
    """Probe the declared assumption constants on a deterministic sample.

    Each assumption is evaluated on PROBE_BUDGET low-discrepancy
    points of the box [-Y_MAX, Y_MAX]^2 x [-Z_MAX, Z_MAX]^2; the pair
    list additionally contains near-coincident pairs (y, y + delta)
    with |delta| <= 1e-3, which is where one-sided Lipschitz violations
    of smooth drivers show up first.  The report lists, per check, the
    worst observed residual (positive means violated beyond the
    tolerance PROBE_TOL) and a witness point.

    Identical specs give bit-identical reports.
    """
    drv = spec.driver
    u = _kronecker(PROBE_BUDGET, 5)
    ys = (2.0 * u[:, 0] - 1.0) * Y_MAX
    yps = (2.0 * u[:, 1] - 1.0) * Y_MAX
    zs = (2.0 * u[:, 2] - 1.0) * Z_MAX
    zps = (2.0 * u[:, 3] - 1.0) * Z_MAX
    deltas = (2.0 * u[:, 4] - 1.0) * 1e-3

    pairs_y = np.concatenate([np.stack([ys, yps]), np.stack([ys, ys + deltas])],
                             axis=1)
    pair_z = np.concatenate([zs, zs])

    def ev(y, z):
        v = drv.eval(y, z)
        return np.asarray(v, dtype=float)

    checks = []

    def finite_or_fail(name, *arrays):
        ok = all(np.isfinite(a).all() for a in arrays)
        if not ok:
            checks.append(CheckResult(name, False, math.inf))
        return ok

    def worst(name, resid, *points):
        k = int(np.argmax(resid))
        checks.append(CheckResult(
            name, bool(resid[k] <= 0.0), float(resid[k]),
            witness=tuple(float(p[k]) for p in points),
        ))

    # (Mon)
    y0, y1 = pairs_y
    f0 = ev(y0, pair_z)
    f1 = ev(y1, pair_z)
    if finite_or_fail("mon", f0, f1):
        lhs = (y1 - y0) * (f1 - f0)
        rhs = drv.M_y * (y1 - y0) ** 2
        resid = lhs - rhs - PROBE_TOL * np.maximum(
            1.0, np.maximum(np.abs(lhs), np.abs(rhs)))
        worst("mon", resid, y0, y1, pair_z)

        # (RegY)
        grow = 1.0 + np.abs(y0) ** (drv.m - 1) + np.abs(y1) ** (drv.m - 1)
        bound = drv.L_y * grow * np.abs(y1 - y0)
        resid = np.abs(f1 - f0) - bound - PROBE_TOL * np.maximum(1.0, bound)
        worst("reg_y", resid, y0, y1, pair_z)

    # (RegZ); the growth bounds reuse fz0 = f(ys, zs)
    fz0 = ev(ys, zs)
    fz1 = ev(ys, zps)
    if finite_or_fail("reg_z", fz0, fz1):
        bound = drv.L_z * np.abs(zps - zs)
        resid = np.abs(fz1 - fz0) - bound - PROBE_TOL * np.maximum(1.0, bound)
        worst("reg_z", resid, ys, zs, zps)

    # Lipschitz bound for g (informational when g declares no constant)
    L_g = getattr(spec.g, "lipschitz", None)
    gx0 = np.asarray(spec.g(ys), dtype=float)
    gx1 = np.asarray(spec.g(yps), dtype=float)
    if finite_or_fail("lipschitz_g", gx0, gx1):
        dx = np.abs(yps - ys)
        with np.errstate(divide="ignore", invalid="ignore"):
            slopes = np.where(dx > 0, np.abs(gx1 - gx0) / dx, 0.0)
        worst_slope = float(np.max(slopes))
        if L_g is None:
            checks.append(CheckResult("lipschitz_g", True, worst_slope))
        else:
            k = int(np.argmax(slopes))
            ok = worst_slope <= L_g * (1.0 + PROBE_TOL) + PROBE_TOL
            checks.append(CheckResult(
                "lipschitz_g", ok, worst_slope - L_g,
                witness=(float(ys[k]), float(yps[k])),
            ))

    # growth bounds the assumptions imply (Young's inequality, weight 1)
    if finite_or_fail("growth", fz0):
        bound = ((abs(drv.f00) + drv.L_y) + 2.0 * drv.L_y * np.abs(ys) ** drv.m
                 + drv.L_z * np.abs(zs))
        r1 = np.abs(fz0) - bound - PROBE_TOL * np.maximum(1.0, bound)
        bound2 = (drv.f00 * drv.f00 / 2.0 + (drv.M_y + 1.0) * ys ** 2
                  + drv.L_z * drv.L_z / 2.0 * zs ** 2)
        r2 = ys * fz0 - bound2 - PROBE_TOL * np.maximum(1.0, np.abs(bound2))
        worst("growth", np.maximum(r1, r2), ys, zs)

    # finite coefficient evaluation on sampled (t, x)
    ts = u[:256, 0] * spec.T
    xs = (2.0 * u[:256, 1] - 1.0) * Y_MAX
    bv = np.asarray([spec.b(t, x) for t, x in zip(ts, xs)], dtype=float)
    sv = np.asarray([spec.sigma(t, x) for t, x in zip(ts, xs)], dtype=float)
    ok = bool(np.isfinite(bv).all() and np.isfinite(sv).all())
    checks.append(CheckResult("coefficients_finite", ok,
                              0.0 if ok else math.inf))

    return ValidationReport(checks=tuple(checks))
