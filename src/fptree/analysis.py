"""Error studies and stability monitors.

The continuous-time error functionals (time-integrated squared Y/Z
errors) need the exact solution and are not computed.  The convergence
study reports |Y0^N - reference| per run on one lattice per N, with the
fitted order.  fd_comparison gives the per-level sup difference to the
finite-difference oracle at matching time slices, interpolating the FD
snapshot at all of a level's in-domain states at once; it is a library
function only, and no CLI artifact carries it.

The stability side evaluates three families of inequalities whose
conditional expectations are exact finite sums on the lattice, so any
violation beyond roundoff tolerance indicates a bug, not noise:

* per-node size bound        |Y_i|^2 + h/8 |Z_i|^2 <= e^{ch} E_i[|T(Y_{i+1})|^2] + K^2 h
* per-node stability bound   |dY_i|^2 + h/8 |dZ_i|^2 <= e^{ch} E_i[|dY_{i+1}|^2]
* per-level contraction      ||Y_i||_2 <= e^{(M_y/2)(T - t_i)} ||Y_N||_2

Each monitor reads the lattice and the model from the run (run.lattice
and run.model) and reports whether its hypotheses on the driver and the
truncation argument hold: a threshold on h, sign conditions.  When they
do not, the ledger is still computed and marked "not applicable" rather
than skipped, so the empirical behaviour outside the guaranteed regime
remains visible.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .forward import Lattice
from .grids import TruncationConfig, _power, alpha_cap, truncate
from .model import DriverSpec
from .oracle import OracleError
from .schemes import SchemeConfig, ValueFunctions, run_backward
from .treeval import chain_law, l2_norms

__all__ = [
    "ErrorEntry",
    "ErrorReport",
    "convergence_study",
    "minmax_processes",
    "StabilityLedger",
    "contraction_check",
    "one_step_checks",
    "sup_norm_check",
    "fd_comparison",
    "TOL_ABS",
    "TOL_REL",
]

TOL_ABS = 1e-10
TOL_REL = 1e-8

# errors at or below this are quantization-exact; they carry no slope
# information and are excluded from log-log fits
_EXACT_FLOOR = 1e-12

# the paper's d + 1 for Brownian dimension d; the package is scalar
_D_PLUS_1 = 2


# ---------------------------------------------------------------------------
# Convergence studies
# ---------------------------------------------------------------------------


class ErrorEntry(NamedTuple):
    N: int
    h: float
    Y0: float
    err: float
    exploded: bool


class ErrorReport(NamedTuple):
    entries: Tuple[ErrorEntry, ...]
    slope: Optional[float]
    slope_residual: Optional[float]
    note: str = ""


def _fit_slope(entries: Sequence[ErrorEntry]):
    pts = [
        (e.h, e.err)
        for e in entries
        if not e.exploded and math.isfinite(e.err) and e.err > _EXACT_FLOOR
    ]
    if len(pts) < 2:
        return None, None
    logh = np.log([p[0] for p in pts])
    loge = np.log([p[1] for p in pts])
    slope, intercept = np.polyfit(logh, loge, 1)
    resid = float(np.sum((slope * logh + intercept - loge) ** 2))
    return float(slope), resid


def convergence_study(
    cfg: SchemeConfig,
    lattices: Sequence[Lattice],
    reference: float,
) -> ErrorReport:
    """Run the scheme on each lattice's model and fit the error order.

    The lattices are built by the caller, one per N in strictly
    increasing order, so every scheme of a study reads the same ones.
    Errors are |Y0^N - reference|; runs with non-finite Y0 are marked
    exploded and excluded from the fit, as are quantization-exact
    entries (error <= 1e-12).  Runs are independent: dropping a lattice
    does not change the other rows.
    """
    Ns = [lat.time_grid.N for lat in lattices]
    if not Ns:
        raise ValueError("lattices must be nonempty")
    if Ns != sorted(set(Ns)):
        raise ValueError("lattice Ns must be strictly increasing")
    entries = []
    for lattice in lattices:
        run = run_backward(cfg, lattice, lattice.model)
        y0 = run.y0
        err = abs(y0 - reference) if math.isfinite(y0) else math.nan
        entries.append(
            ErrorEntry(
                N=lattice.time_grid.N, h=lattice.time_grid.h, Y0=y0,
                err=err, exploded=not run.finite,
            )
        )
    slope, resid = _fit_slope(entries)
    note = ""
    finite_entries = [e for e in entries if not e.exploded]
    if finite_entries and all(e.err <= _EXACT_FLOOR for e in finite_entries):
        note = "errors at quantization-exact floor; no slope fitted"
    elif slope is None:
        note = "fewer than two fittable points; no slope"
    return ErrorReport(
        entries=tuple(entries),
        slope=slope,
        slope_residual=resid,
        note=note,
    )


def _starts(sizes) -> np.ndarray:
    """Offsets of consecutive levels of these sizes, for reduceat."""
    return np.cumsum(sizes) - sizes


def _level_extremes(levels):
    """Per-level max, min and all-finite flag of a tuple of level arrays.

    max and min are nan on a level holding a non-finite entry.
    """
    flat = np.concatenate(levels)
    starts = _starts(np.array([len(a) for a in levels]))
    finite = np.logical_and.reduceat(np.isfinite(flat), starts)
    hi = np.where(finite, np.maximum.reduceat(flat, starts), math.nan)
    lo = np.where(finite, np.minimum.reduceat(flat, starts), math.nan)
    return hi, lo, finite


def minmax_processes(run: ValueFunctions):
    """Per-level (level, t, max, min, finite) rows, terminal last."""
    hi, lo, finite = _level_extremes(run.y)
    return list(zip(range(len(run.y)), run.lattice.time_grid.times,
                    hi.tolist(), lo.tolist(), finite.tolist()))


# ---------------------------------------------------------------------------
# Stability ledgers
# ---------------------------------------------------------------------------


class StabilityLedger(NamedTuple):
    """Outcome of one inequality monitor over a whole run.

    level_checked, level_violations and level_worst are per-level arrays
    (terminal last for the per-level monitors, level N-1 last for the
    one-step ones): the inequalities checked, those violated, and the
    worst residual lhs - rhs.  total_checked and violations are the sums
    of the first two, worst_residual the max of the third; a nan
    residual (unverifiable) dominates both maxima.
    """

    kind: str  # contraction | size | stability | sup_norm
    applicable: bool
    applicability_reason: str
    c_value: float
    tol_abs: float
    tol_rel: float
    total_checked: int
    violations: int
    rhs_overflows: int
    nonfinite: int
    worst_residual: float
    level_checked: np.ndarray
    level_violations: np.ndarray
    level_worst: np.ndarray


def _guarded_exp(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _log(x: float) -> float:
    """math.log of x >= 0 (or nan), with log 0 = -inf."""
    return math.log(x) if x != 0.0 else -math.inf


def _show_exp(log_x: float) -> str:
    """e**log_x as %g, or as a power of ten where it is a positive number
    below the smallest normal float."""
    if -math.inf < log_x < math.log(sys.float_info.min):
        return "10^%.1f" % (log_x / math.log(10.0))
    return "%g" % _guarded_exp(log_x)


def _quotient(num: float, den: float) -> float:
    """num / den for num >= 0, or its limit inf where den is 0.

    den is a positive multiple of a squared constant, which is 0 when
    the constant is or when its square underflows (L = 1e-170).
    """
    return num / den if den != 0.0 else math.inf


def _guarded_product(a, b):
    # e^{ch} * E with E = 0 is 0 for any finite c, also when e^{ch}
    # overflowed to inf; keep that limit instead of IEEE inf*0 = nan
    with np.errstate(invalid="ignore"):
        return np.where(b == 0.0, 0.0, a * b)


def _is_violation(residual, rhs, tol_abs: float, tol_rel: float):
    """Elementwise: residual above the slack, or nan (not verifiable)."""
    tol = np.where(np.isfinite(rhs), tol_abs + tol_rel * np.abs(rhs), math.inf)
    return np.isnan(residual) | (residual > tol)


def _ledger(kind, reasons, c_value, res, rhs, sizes, tol_rel=TOL_REL,
            holds="all hypotheses hold") -> StabilityLedger:
    """Fill a ledger from flat residual and right-hand-side arrays.

    res and rhs hold one check per entry, level after level; sizes is
    the int64 array of the number of checks of each level.  A check
    overflows when its rhs is +inf and is non-finite when its residual
    is nan or +inf (lhs non-finite, or rhs nan); the lhs terms are never
    negative, so a -inf residual comes from an overflowed rhs.
    """
    starts = _starts(sizes)
    bad = _is_violation(res, rhs, TOL_ABS, tol_rel)
    level_violations = np.add.reduceat(bad, starts, dtype=np.int64)
    level_worst = np.maximum.reduceat(res, starts)
    return StabilityLedger(
        kind=kind,
        applicable=not reasons,
        applicability_reason="; ".join(reasons) if reasons else holds,
        c_value=c_value,
        tol_abs=TOL_ABS,
        tol_rel=tol_rel,
        total_checked=len(res),
        violations=int(level_violations.sum()),
        rhs_overflows=int(np.count_nonzero(rhs == math.inf)),
        nonfinite=int(np.count_nonzero(~(res < math.inf))),
        worst_residual=float(level_worst.max()),
        level_checked=sizes,
        level_violations=level_violations,
        level_worst=level_worst,
    )


def contraction_check(
    run: ValueFunctions,
    trunc: TruncationConfig,
) -> StabilityLedger:
    """Per-level norm decay ||Y_i||_2 <= e^{(M_y/2)(T-t_i)} ||Y_N||_2.

    The guarantee needs f(0,0) = 0, M_y < 0, 8 L_z^2 <= -M_y, a strict
    radius exponent alpha < 1/(2(m-1)), and h below an explicit
    threshold; when any of these fails the ledger is computed anyway
    and marked not applicable.  L2 norms are taken under the chain law
    of run.lattice, computed here once, and T - t_i on its time grid.
    """
    drv = run.model.driver
    tg = run.lattice.time_grid
    h = tg.h
    reasons = []
    if drv.f00 != 0.0:
        reasons.append("f(0,0)=%g is not 0" % drv.f00)
    if not drv.M_y < 0.0:
        reasons.append("M_y=%g is not negative" % drv.M_y)
    lz8 = 8.0 * _power(drv.L_z, 2)
    if not lz8 <= -drv.M_y:
        reasons.append("8*L_z^2=%g exceeds -M_y" % (lz8,))
    if drv.m > 1 and not trunc.alpha < alpha_cap(drv.m):
        reasons.append("alpha=%g is not strictly below 1/(2(m-1))" % trunc.alpha)
    if drv.M_y < 0.0:
        # h <= min(base, (base / R0^mm)^(1/expo)) with
        # base = (-M_y/4) / (4(d+1) L_y^2), taken in logs, where no
        # square or power of a constant can overflow or underflow; with
        # L_y = 0 both terms are inf and h meets no threshold
        mm = 2 * (drv.m - 1)
        log_base = (_log(-drv.M_y / 4.0) - math.log(4.0 * _D_PLUS_1)
                    - 2.0 * _log(drv.L_y))
        expo = 1.0 - mm * trunc.alpha
        log_threshold = log_base
        if expo > 0:
            log_threshold = min(log_base,
                                (log_base - mm * _log(trunc.R0)) / expo)
        if math.log(h) > log_threshold:
            reasons.append("h=%g exceeds the contraction threshold %s"
                           % (h, _show_exp(log_threshold)))
    c_prime = drv.M_y / 2.0

    l2 = l2_norms(run.y, chain_law(run.lattice))
    bound = _guarded_product(
        np.array([_guarded_exp(c_prime * (tg.T - t)) for t in tg.times]),
        l2[-1],
    )
    return _ledger("contraction", reasons, c_prime, l2 - bound, bound,
                   np.ones(len(bound), dtype=np.int64))


def sup_norm_check(run: ValueFunctions) -> StabilityLedger:
    """Per-level sup bound ||Y_i||_inf <= ||Y_N||_inf.

    The qualitative boundedness property of contracting dynamics;
    non-finite levels count as violations.
    """
    hi, lo, _ = _level_extremes(run.y)
    sup = np.maximum(np.abs(hi), np.abs(lo))  # nan on non-finite levels
    return _ledger("sup_norm", [], 0.0, sup - sup[-1],
                   np.full(len(sup), sup[-1]),
                   np.ones(len(sup), dtype=np.int64), tol_rel=0.0,
                   holds="qualitative bound, no hypotheses")


def _one_step_constants(drv: DriverSpec, trunc: TruncationConfig, h: float,
                        kind: str):
    """The rate c and the tail (K^2 h for size, 0 for stability) of kind.

    L_y^2 = 0 drops the L_y^2 term, also where the radius term
    overflows to inf and IEEE 0 * inf would make c nan.
    """
    mm = 2 * (drv.m - 1)
    radius_term = _power(trunc.R0, mm) * _power(h, -mm * trunc.alpha)
    L_y2, L_z2 = _power(drv.L_y, 2), _power(drv.L_z, 2)
    if kind == "stability":
        c = 2.0 * drv.M_y + 4.0 * L_z2
        if L_y2:
            c += 3.0 * _D_PLUS_1 * L_y2 * (1.0 + 2.0 * radius_term) * h
        return c, 0.0
    c = 2.0 * drv.M_y + 8.0 * L_z2
    if L_y2:
        c += 4.0 * _D_PLUS_1 * L_y2 * (1.0 + radius_term) * h
    if drv.f00 == 0.0:
        K2 = 0.0
    else:
        f00_2 = _power(drv.f00, 2)
        K2 = _quotient(f00_2, 4.0 * L_z2) + _D_PLUS_1 * f00_2 * h
    return c, K2 * h


def one_step_checks(
    run: ValueFunctions,
    trunc: TruncationConfig,
    kind: str,
    run2: Optional[ValueFunctions] = None,
) -> StabilityLedger:
    """Exact per-node evaluation of the one-step inequalities.

    kind='size': |Y_i|^2 + h/8 |Z_i|^2 <= e^{ch} E_i[|T(Y_{i+1})|^2] + K^2 h
    at every node, with c and K^2 assembled from the constants of
    run.model.driver and the truncation parameters.

    kind='stability': same shape for the difference of two runs (run2
    required, with run's lattice and driver objects, else ValueError;
    same scheme, perturbed terminal data), with its own c and no K term.

    Lattice expectations are exact finite sums, so the inequalities are
    guaranteed for the full-projection scheme within the stated h
    thresholds; violations beyond tolerance indicate bugs.  Outside the
    thresholds the ledger still runs, flagged not applicable.  All
    levels are evaluated at once, on the concatenated level values, and
    E_i[T(Y)^2] or E_i[dY^2] is one Lattice.expect over all levels; every
    operation is elementwise, so each node's residual is the one a
    level-by-level pass computes.
    """
    lattice = run.lattice
    drv = run.model.driver
    if kind not in ("size", "stability"):
        raise ValueError("kind must be 'size' or 'stability'")
    if kind == "stability":
        if run2 is None:
            raise ValueError("stability check needs a second run")
        if run2.lattice is not lattice:
            raise ValueError("stability check needs both runs on one lattice, "
                             "got an N=%d lattice and another of N=%d"
                             % (lattice.time_grid.N, run2.lattice.time_grid.N))
        if run2.model.driver is not drv:
            raise ValueError("stability check needs both runs of one driver "
                             "object, got %s and %s"
                             % (drv.label, run2.model.driver.label))
    h = lattice.time_grid.h

    reasons = []
    h_max = _quotient(1.0, 16.0 * _D_PLUS_1 * _power(drv.L_z, 2))
    if h > h_max:
        reasons.append("h=%g exceeds threshold %g" % (h, h_max))
    if trunc.alpha > alpha_cap(drv.m):
        reasons.append("alpha above 1/(2(m-1))")

    c, tail = _one_step_constants(drv, trunc, h, kind)
    ech = _guarded_exp(c * h)

    sizes = np.array([len(s) for s in lattice.supports[:-1]])
    with np.errstate(all="ignore"):
        # v is every level of y (or dY) concatenated, root first; the
        # nodes are its levels 0..N-1 and their children its levels 1..N
        if kind == "size":
            v = np.concatenate(run.y)
            z = np.concatenate(run.z)
            nxt = truncate(trunc, h, v[sizes[0]:])
        else:
            v = np.concatenate(run.y) - np.concatenate(run2.y)
            z = np.concatenate(run.z) - np.concatenate(run2.z)
            nxt = v[sizes[0]:]
        y = v[:len(z)]
        e_sq = lattice.expect(range(len(sizes)), nxt ** 2)
        rhs = _guarded_product(ech, e_sq) + tail
        residual = y * y + 0.125 * z * z * h - rhs
    return _ledger(kind, reasons, c, residual, rhs, sizes)


# ---------------------------------------------------------------------------
# FD-oracle level comparison
# ---------------------------------------------------------------------------


def fd_comparison(run: ValueFunctions, pde) -> list:
    """Per-level sup |y_run - y_FD| at matching (t_i, x) of run.lattice.

    Levels whose time is not a snapshot time of pde.value_at are
    skipped; nodes outside the FD domain are skipped.  A nan difference
    makes its level's sup nan.  Returns rows (level, t, nodes_compared,
    sup_diff).
    """
    rows = []
    lattice = run.lattice
    for i, (t, x) in enumerate(zip(lattice.time_grid.times, lattice.supports)):
        inside = (pde.xs[0] <= x) & (x <= pde.xs[-1])
        count = int(np.count_nonzero(inside))
        if not count:
            continue
        try:
            ref = pde.value_at(t, x[inside])
        except OracleError:  # t is not a snapshot time
            continue
        diff = np.abs(run.y[i][inside] - ref)
        rows.append((i, t, count, float(np.max(diff))))
    return rows
