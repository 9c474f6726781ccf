import hashlib
import math
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st

import fptree as fp
from fptree import schemes
from fptree.forward import Lattice
from fptree.schemes import (
    _TOL, SCHEME_KINDS, SchemeError, SolverError, _bracket_end, _level,
    _solve,
)

from conftest import (
    WCOL, build, child_indices, col, float_key, level_bytes, one_node,
    reference_solve, scalar_truncate,
)

CUBIC = fp.poly_driver((0.0, 0.0, 0.0, -1.0))
ZERO = fp.poly_driver((0.0,))
NEG_ZERO = fp.poly_driver((-0.0,))
# drivers without a closed-form root: -y - y^3 built by hand, and a quintic
HAND_CUBIC = fp.DriverSpec(eval=lambda y, z: -y - y * y * y, M_y=-1.0,
                           L_y=3.0, m=3, L_z=0.0, f00=0.0,
                           dfdy=lambda y, z: -1.0 - 3.0 * y * y)
QUINTIC = fp.poly_driver((0.0, -1.0, 0.0, 0.5, 0.0, -0.25), z_coeff=0.3)
NAN = math.nan
U = 2.0 ** -53  # unit roundoff


def H_for(h):
    return fp.weight_values(h)[0]


def T_for(trunc, h):
    return partial(fp.truncate, trunc, h)


class TestZStep:
    def test_constant_children_vanish(self):
        H = H_for(0.03)
        assert one_node((5.0, 5.0, 5.0), ZERO, 0.03, H=H)[1] == 0.0

    def test_documented_example(self):
        H = H_for(0.03)
        _, got, _ = one_node((1.0, 2.0, 3.0), ZERO, 0.03, H=H)
        assert got == pytest.approx(10 / 3, abs=1e-12)

    def test_zeros(self):
        H = H_for(0.03)
        assert one_node((0.0, 0.0, 0.0), ZERO, 0.03, H=H)[1] == 0.0


class TestExplicitYStep:
    def test_zero_driver_is_expectation(self):
        y, _, _ = one_node((1.0, 2.0, 3.0), ZERO, 0.1)
        assert y == pytest.approx(2.0)

    def test_constant_cubic(self):
        y, _, _ = one_node((2.0, 2.0, 2.0), CUBIC, 0.1)
        assert y == pytest.approx(1.2)

    def test_linear_growth_factor(self):
        lin = fp.poly_driver((0.0, -1.0))
        y, _, _ = one_node((3.0, 3.0, 3.0), lin, 0.25)
        assert y == pytest.approx(3.0 * (1 - 0.25))


class TestFpSteps:
    def test_inside_radius_equals_explicit(self):
        trunc = fp.TruncationConfig(R0=100.0, alpha=0.25)
        H = H_for(0.1)
        kids = (1.0, 2.0, 3.0)
        y, _, _ = one_node(kids, CUBIC, 0.1, H=H, pre=T_for(trunc, 0.1))
        ye, _, _ = one_node(kids, CUBIC, 0.1, H=H)
        assert y == ye

    def test_documented_clamp_example(self):
        # children at 100, radius 10 at h=0.1: y = 10 + (-1000)(0.1) = -90
        h = 0.1
        trunc = fp.TruncationConfig(R0=10.0 * h ** 0.25, alpha=0.25)
        assert fp.truncation_radius(trunc, h) == pytest.approx(10.0, rel=1e-12)
        y, z, _ = one_node((100.0, 100.0, 100.0), CUBIC, h,
                           pre=T_for(trunc, h))
        assert y == pytest.approx(-90.0, rel=1e-9)
        assert z == 0.0

    def test_symmetric_children_z_from_truncated(self):
        # post: children arrive truncated and only the output is truncated
        trunc = fp.TruncationConfig(R0=10.0, alpha=0.25)
        h = 1.0
        y, z, _ = one_node((-10.0, 0.0, 10.0), ZERO, h, H=(-3.0, 0.0, 3.0),
                           post=T_for(trunc, h))
        assert z == pytest.approx((1 / 6) * 10 * 3 * 2)
        assert y == 0.0


class TestImplicitStep:
    def test_documented_root(self):
        y, _, iters = one_node((1.0, 1.0, 1.0), CUBIC, 0.1, theta=1.0)
        assert abs(y + 0.1 * y ** 3 - 1.0) <= 1e-12
        assert y == pytest.approx(0.9216989942047172, abs=1e-11)
        assert iters >= 1

    def test_zero_driver(self):
        y, _, _ = one_node((1.0, 2.0, 3.0), ZERO, 0.1, theta=1.0)
        assert y == pytest.approx(2.0)

    def test_linear_closed_form(self):
        a = -2.0
        lin = fp.poly_driver((0.0, a))
        y, _, _ = one_node((4.0, 4.0, 4.0), lin, 0.1, theta=1.0)
        assert y == pytest.approx(4.0 / (1 - a * 0.1), rel=1e-12)

    def test_growth_guard(self):
        expanding = fp.poly_driver((0.0, 1.0))
        with pytest.raises(SolverError):
            one_node((1.0, 1.0, 1.0), expanding, 0.6, theta=1.0)

    def test_nonfinite_mean_propagates(self):
        y, _, iters = one_node((NAN, NAN, NAN), CUBIC, 0.1, theta=1.0)
        assert math.isnan(y)
        assert iters == 0


    def test_first_failing_node_reported(self):
        # at |m| = 1e103 the cubic residual overflows at the bracket
        # end point; nodes 1 and 3 fail, node 1 is reported
        kids = np.array([[1.0, 1e103, 1.0, 1e103]] * 3)
        with np.errstate(all="ignore"), pytest.raises(SolverError) as exc:
            _level(kids, WCOL, col((0.0,) * 3), CUBIC, 0.1, 1.0)
        assert exc.value.node == 1
        assert "non-finite" in str(exc.value)


class TestClosedFormBracket:
    """The end point m - F(m)/c, widened, brackets the root with m."""

    @given(
        m=st.floats(-6.0, 6.0).map(lambda e: 10.0 ** e).flatmap(
            lambda a: st.sampled_from([a, -a])),
        c0=st.floats(-1.0, 1.0), c1=st.floats(-2.0, 2.0),
        c2=st.floats(-1.0, 1.0),
        c3=st.one_of(st.just(0.0), st.floats(-2.0, -0.05)),
        zc=st.floats(0.1, 2.0).flatmap(lambda a: st.sampled_from([a, -a])),
        hh=st.floats(1e-3, 1.0),
        # the root a few ulps from m (|F(m)| near the ulp of m, down to
        # 0), or anywhere in [-1, 1] through a z term of size |m|
        root=st.one_of(
            st.integers(-8, 8).map(lambda k: ("ulps", k)),
            st.floats(-1.0, 1.0).map(lambda r: ("at", r)),
        ),
    )
    # linear drivers with slope M_y > 0 make F(b) vanish in exact
    # arithmetic; rounding then decides the sign unless b is widened
    # on the scale of F's terms
    @example(m=1e-05, c0=1.0, c1=1.0, c2=0.0, c3=0.0, zc=1.0, hh=0.25,
             root=("at", 0.0))
    @example(m=47985.21919642071, c0=0.0, c1=0.0, c2=0.0, c3=0.0, zc=0.75,
             hh=0.1875, root=("at", 1.0))
    @example(m=-3.0, c0=0.0, c1=1.5, c2=0.0, c3=0.0, zc=-1.0, hh=0.25,
             root=("ulps", 1))
    @settings(max_examples=400, deadline=None)
    def test_end_point_brackets(self, m, c0, c1, c2, c3, zc, hh, root):
        driver = fp.poly_driver((c0, c1, c2 if c3 else 0.0, c3), z_coeff=zc)
        assume(hh * driver.M_y < 0.5)
        f, df = driver.eval, driver.dfdy
        kind, v = root
        r = m + v * math.ulp(m) if kind == "ulps" else v
        z = (r - hh * f(r, 0.0) - m) / (hh * zc)
        # F's rounding error, about eps times the size of its terms,
        # must stay below the Newton tolerance 1e-12 max(1, |m|) for
        # any solver to meet it
        terms = abs(r) + hh * sum(abs(c * r ** k)
                                  for k, c in enumerate((c0, c1, c2, c3)))
        assume(terms <= 1e2 * max(1.0, abs(m)))

        def F(y):
            return y - hh * f(y, z) - m

        fa = F(m)
        if fa != 0.0:
            b = float(_bracket_end(np.array(m), np.array(fa), hh, driver.M_y,
                                   np.array(max(1.0, abs(m)))))
            lo, hi = min(m, b), max(m, b)
            assert F(lo) <= 0.0 <= F(hi)
        y = _solve(np.array([m]), np.array([z]), driver, hh)[0]
        want = scalar_solve(m, z, hh, f, df)
        # both stop at |F| <= 1e-12 max(1, |m|), and F' > 1/2
        assert abs(y[0] - want) <= 4e-12 * max(1.0, abs(m))

    def test_root_pinned_to_one_ulp(self):
        # z puts the root within an ulp above m = 114503, where F moves
        # by about 0.56 per ulp against the tolerance 1.1e-7: no float
        # meets the tolerance, but F changes sign across the ulp; the
        # start is m, as it is for drivers without a closed-form root
        driver = fp.poly_driver((0.0, 0.0, 1.0, -2.0),
                                z_coeff=1.0)._replace(root=None)
        m, hh, z = 114503.0, 0.375, 3002470129746045.5

        def F(y):
            return y - hh * driver.eval(y, z) - m

        up = math.nextafter(m, math.inf)
        assert F(m) == -0.1875 and F(up) == pytest.approx(0.375)
        with np.errstate(all="ignore"):
            y, iters, _, _ = _solve(np.array([m, 1.0]), np.array([z, 0.0]),
                                    driver, hh)
        # the end with the smaller |F| is kept; the other node is as
        # it was
        assert y[0] == m and iters[0] == 1
        assert abs(y[1] - scalar_solve(1.0, 0.0, hh, driver.eval,
                                       driver.dfdy)) <= 4e-12

    def test_alternating_adjacent_floats_stop(self):
        # Newton alternates between the adjacent floats -64.49901683760109
        # (F = -6.3e-8) and -64.49901683760108 (F = 5.0e-8), each step
        # returning the other, against the tolerance 5.6e-10; once the
        # bracket is those two floats the node stops instead of running
        # out its 100 iterations (a quintic: the start is m)
        driver = fp.poly_driver(
            (-0.7364540870016669, -0.16290994799305278, -0.48211931267997826,
             0.5988462126346276, 0.03972210748165899, -0.2924567509650886),
            z_coeff=-0.7819084623568421)._replace(root=None)
        m, z, hh = -559.4933527097415, 418182960.77212954, 0.269690207037431
        y, iters, _, _ = _solve(np.array([m]), np.array([z]), driver, hh)
        assert y[0] == -64.49901683760108 and iters[0] == 17

    def test_nonconvergence_reports_the_node_iteration_count(self):
        # Newton's second iterate returns itself, where F's rounding
        # (about one ulp of y) hides the root from both the tolerance
        # and the adjacent-float sign test: the node stops after 2
        # iterations, and the message says 2, not the cap of 100.  The
        # start is m: the closed-form root of this linear driver meets
        # the tolerance
        driver = fp.poly_driver((-0.8399414484462417, 0.9394493482815327),
                                z_coeff=-0.49290371466181204)._replace(
                                    root=None)
        m, z, hh = 0.013991291912618822, 228813039626420.28, 0.2974581888987467
        with pytest.raises(SolverError) as exc:
            _solve(np.array([1.0, m]), np.array([0.0, z]), driver, hh)
        assert str(exc.value) == "newton did not converge in 2 iterations"
        assert exc.value.node == 1

    def test_declared_slope_below_true_slope_raises(self):
        # f = y - y^3 has slope 1 at 0; declared 0, the bracket end
        # falls short of the root and the sign check fails
        lying = fp.poly_driver((0, 1, 0, -1))._replace(M_y=0.0)
        m = fp.make_constant_model(T=1.0, x0=0.0, b=0.0, sigma=1.0,
                                   g=fp.quadratic_g(), driver=lying)
        with pytest.raises(SolverError, match="declared M_y = 0") as exc:
            fp.run_backward(fp.SchemeConfig(kind="implicit_euler"),
                            build(m, 4), m)
        assert exc.value.level is not None and exc.value.node is not None


class TestClosedFormStart:
    """Newton starts at DriverSpec.root: a start, never an answer."""

    # the preset cubics, two cubics with c0, c2 and z terms (the second
    # with M_y > 0), and linear and constant drivers with and without a
    # z term
    DRIVERS = [
        fp.poly_driver((0.0, 0.0, 0.0, -1.0)),
        fp.poly_driver((0.0, -1.0, 0.0, -1.0)),
        fp.poly_driver((0.3, -0.5, 0.7, -1.2), z_coeff=0.4),
        fp.poly_driver((0.5, 1.0, -2.0, -0.5), z_coeff=-1.0),
        fp.poly_driver((0.2, -1.0), z_coeff=-0.5),
        fp.poly_driver((0.0, -1.0)),
        fp.poly_driver((0.1,), z_coeff=0.7),
    ]

    def test_supplied_up_to_degree_three(self):
        assert all(d.root is not None for d in self.DRIVERS)
        assert HAND_CUBIC.root is None and QUINTIC.root is None

    @pytest.mark.parametrize("preset, N", [("experiment1", 120),
                                           ("experiment2", 15)])
    @pytest.mark.parametrize("theta", [1.0, 0.5])
    @pytest.mark.parametrize("driver", DRIVERS, ids=lambda d: d.label)
    def test_one_pass_at_every_node(self, preset, N, theta, driver):
        # every node of every level meets the tolerance at its start, at
        # hh = h and at theta = 0.5's hh = h/2
        base = getattr(fp, preset + "_model")()
        cfg = (fp.SchemeConfig(kind="implicit_euler") if theta == 1.0
               else fp.SchemeConfig(kind="theta", theta=theta))
        run = fp.run_backward(cfg, build(base, N),
                              base._replace(driver=driver))
        assert run.finite
        assert run.solver_iterations_max == 1

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 1e3,
                                     -1e3])
    def test_unusable_root_starts_at_m(self, bad):
        # a non-finite root, or one outside the bracket, leaves the node's
        # start at m: the same y and count as without a root; the other
        # nodes take their good roots
        driver = fp.poly_driver((0.3, -0.5, 0.7, -1.2), z_coeff=0.4)
        m = np.array([0.7, -2.5, 1.9, 0.05])
        z = np.array([0.3, -1.0, 4.0, 0.0])
        hh = 0.1

        def root(m, z, hh):
            y0 = driver.root(m, z, hh)
            y0[1:3] = bad
            return y0

        y, iters, _, _ = _solve(m, z, driver._replace(root=root), hh)
        y_m, iters_m, _, _ = _solve(m, z, driver._replace(root=None), hh)
        assert y[1:3].tobytes() == y_m[1:3].tobytes()
        assert iters[1:3].tolist() == iters_m[1:3].tolist()
        assert iters_m[1:3].min() > 1
        assert iters[[0, 3]].tolist() == [1, 1]

    @pytest.mark.parametrize("driver, kind, total, most, digest", [
        (HAND_CUBIC, "implicit_euler", 7166, 12,
         "5ad8b22a96f9389b2ddd757a5686dd42379498b1b3a23ead59d7172b18fb22eb"),
        (HAND_CUBIC, "theta", 13788, 22,
         "e8c30632da59f086b6b27ca29fa9ea9ee73847d250442b5ecfb82a48fec013a1"),
        (QUINTIC, "implicit_euler", 7575, 21,
         "bf0282cafa488896f88fac6066cc7e1bb2be39569724a72e25e412965fb433e1"),
        (QUINTIC, "theta", 61763, 79,
         "662c39e1d1fed450ef4410000425048b0a3e44df3b670c0ad5e330c0e7f7aeaa"),
    ], ids=["hand-built-implicit", "hand-built-theta", "quintic-implicit",
            "quintic-theta"])
    def test_drivers_without_root_keep_their_bits(self, driver, kind, total,
                                                  most, digest):
        # drivers without a closed-form root start at m: their Newton
        # counts and the sha256 of every y and z level on experiment1 at
        # N=40 are those of the solver that always started at m
        base = fp.experiment1_model()
        cfg = fp.SchemeConfig(kind=kind,
                              theta=0.5 if kind == "theta" else None)
        run = fp.run_backward(cfg, build(base, 40),
                              base._replace(driver=driver))
        got = hashlib.sha256(b"".join(a.tobytes() for a in run.y + run.z))
        assert (run.solver_iterations_total, run.solver_iterations_max,
                got.hexdigest()) == (total, most, digest)

    @given(
        deg=st.sampled_from([0, 1, 3]),
        coeffs=st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3),
        lead=st.floats(0.05, 1.0),
        zc=st.floats(0.1, 1.0).flatmap(lambda a: st.sampled_from([a, -a])),
        lie=st.one_of(st.none(), st.floats(0.1, 2.0)),
        hh=st.floats(0.01, 0.3),
        nodes=st.lists(st.tuples(
            st.floats(-6.0, 6.0).map(lambda e: 10.0 ** e).flatmap(
                lambda a: st.sampled_from([a, -a])),
            st.floats(-2.0, 2.0)), min_size=6, max_size=6),
        nan_m=st.sets(st.integers(0, 5), max_size=1),
    )
    @settings(max_examples=300, deadline=None)
    def test_same_failures_and_roots_as_from_m(self, deg, coeffs, lead, zc,
                                               lie, hh, nodes, nan_m):
        # each node's z, of the size of m, puts its root r in [-2, 2],
        # where F's rounding, about eps times the size of F's terms,
        # stays below the tolerance 1e-12 max(1, |m|): Newton converges
        # from either start.  Where it cannot (|z| up to 1e16), which
        # nodes fail depends on the path, hence on the start.  A declared
        # M_y below the true slope fails the bracket, whatever the start
        cs = (coeffs[:deg] + [-lead]) if deg else coeffs[:1]
        driver = fp.poly_driver(cs, z_coeff=zc)
        if lie is not None:
            driver = driver._replace(M_y=driver.M_y - lie)
        assume(hh * driver.M_y < 0.5)
        f = driver.eval
        m = np.array([mv for mv, _ in nodes])
        r = np.array([rv for _, rv in nodes])
        with np.errstate(all="ignore"):
            z = (r - hh * f(r, 0.0) - m) / (hh * zc)
            terms = (np.abs(r) + np.abs(m) + np.abs(hh * zc * z) + hh * sum(
                abs(c) * np.abs(r) ** k for k, c in enumerate(cs)))
        assume(np.all(terms <= 1e2 * np.maximum(1.0, np.abs(m))))
        m[list(nan_m)] = math.nan
        outcomes = []
        with np.errstate(all="ignore"):
            for drv in (driver, driver._replace(root=None)):
                try:
                    outcomes.append(_solve(m, z, drv, hh)[0])
                except SolverError as err:
                    outcomes.append((str(err), err.node))
        got, want = outcomes
        if isinstance(want, tuple) or isinstance(got, tuple):
            assert got == want
        else:
            ok = np.isfinite(m)
            assert np.array_equal(np.isnan(got), ~ok)
            assert np.all(np.abs(got[ok] - want[ok])
                          <= 4e-12 * np.maximum(1.0, np.abs(m[ok])))


class TestThetaStep:
    def test_theta_zero_is_explicit(self):
        m = fp.experiment1_model()
        lat = build(m, 12)
        ye = fp.run_backward(fp.SchemeConfig(kind="explicit_euler"), lat, m)
        yt = fp.run_backward(fp.SchemeConfig(kind="theta", theta=0.0), lat, m)
        assert not ye.finite  # explicit explodes here: nan is compared too
        assert all(np.array_equal(a, b, equal_nan=True)
                   for a, b in zip(yt.y, ye.y))
        assert all(np.array_equal(a, b, equal_nan=True)
                   for a, b in zip(yt.z, ye.z))

    def test_theta_one_is_implicit(self):
        m = fp.experiment1_model()
        lat = build(m, 12)
        yi = fp.run_backward(fp.SchemeConfig(kind="implicit_euler"), lat, m)
        yt = fp.run_backward(fp.SchemeConfig(kind="theta", theta=1.0), lat, m)
        assert all(np.array_equal(a, b) for a, b in zip(yt.y, yi.y))
        assert yt.solver_iterations_total == yi.solver_iterations_total

    def test_intermediate_theta_between(self):
        kids = (2.0, 2.0, 2.0)
        y0, _, _ = one_node(kids, CUBIC, 0.1, theta=0.0)
        y1, _, _ = one_node(kids, CUBIC, 0.1, theta=1.0)
        yh, _, _ = one_node(kids, CUBIC, 0.1, theta=0.5)
        lo, hi = sorted((y0, y1))
        assert lo <= yh <= hi


class TestRunBackward:
    def test_zero_driver_constant_terminal(self):
        m = fp.make_constant_model(
            T=1.0, x0=0.0, b=0.0, sigma=1.5,
            g=fp.constant_g(4.0), driver=ZERO,
        )
        lat = build(m, 6)
        run = fp.run_backward(fp.SchemeConfig(kind="explicit_euler"), lat, m)
        for level_vals in run.y:
            assert all(v == 4.0 for v in level_vals)
        for level_z in run.z:
            assert all(v == 0.0 for v in level_z)

    def test_linear_recursion_exact(self):
        m = fp.linear_model()
        N = 40
        lat = build(m, N)
        run = fp.run_backward(fp.SchemeConfig(kind="explicit_euler"), lat, m)
        h = 1.0 / N
        want = 2.25 * (1 - h) ** N
        assert run.y0 == pytest.approx(want, rel=1e-13)

    def test_fp_equals_explicit_when_radius_never_binds(self):
        m = fp.linear_model()
        lat = build(m, 16)
        trunc = fp.TruncationConfig(R0=1000.0, alpha=0.1)
        ex = fp.run_backward(fp.SchemeConfig(kind="explicit_euler"), lat, m)
        pre = fp.run_backward(
            fp.SchemeConfig(kind="full_projection_pre", truncation=trunc),
            lat, m,
        )
        assert len(pre.y) == len(ex.y) and len(pre.z) == len(ex.z)
        assert all(np.array_equal(a, b) for a, b in zip(pre.y, ex.y))
        assert all(np.array_equal(a, b) for a, b in zip(pre.z, ex.z))

    def test_fp_requires_truncation(self):
        m = fp.linear_model()
        lat = build(m, 4)
        with pytest.raises(SchemeError):
            fp.run_backward(
                fp.SchemeConfig(kind="full_projection_pre"), lat, m
            )

    @pytest.mark.parametrize("kind", ["explicit_euler", "implicit_euler",
                                      "full_projection_pre",
                                      "full_projection_post"])
    def test_theta_rejected_outside_theta_kind(self, kind):
        trunc = (fp.TruncationConfig(R0=10.0, alpha=0.25)
                 if kind.startswith("full_") else None)
        with pytest.raises(SchemeError, match="takes no theta"):
            fp.SchemeConfig(kind=kind, theta=0.5, truncation=trunc)

    @pytest.mark.parametrize("kind, theta", [
        ("explicit_euler", None), ("implicit_euler", None), ("theta", 0.5),
    ])
    def test_truncation_rejected_outside_fp_kinds(self, kind, theta):
        trunc = fp.TruncationConfig(R0=10.0, alpha=0.25)
        with pytest.raises(SchemeError, match="takes no truncation"):
            fp.SchemeConfig(kind=kind, theta=theta, truncation=trunc)

    def test_theta_kind_requires_theta(self):
        with pytest.raises(SchemeError, match=r"theta must lie in \[0, 1\]"):
            fp.SchemeConfig(kind="theta")

    @pytest.mark.parametrize("preset, N, iterations, y0", [
        ("experiment1", 120, 14400, 0.5785999412143815),
        ("experiment2", 15, 210, 0.0),
    ], ids=["experiment1", "experiment2"])
    def test_implicit_preset_counts_pinned(self, preset, N, iterations, y0):
        # the Newton stopping rules may only drop iterations that cannot
        # move y: the preset totals and the bits of Y0 stay put.  Every
        # node starts at the cubic's closed-form root and meets the
        # tolerance there, in one iteration
        m = getattr(fp, preset + "_model")()
        run = fp.run_backward(fp.SchemeConfig(kind="implicit_euler"),
                              build(m, N), m)
        assert run.solver_iterations_total == iterations
        assert run.y0.hex() == y0.hex()

    def test_unknown_kind(self):
        m = fp.linear_model()
        lat = build(m, 4)
        with pytest.raises(SchemeError):
            fp.run_backward(fp.SchemeConfig(kind="midpoint"), lat, m)

    def test_explicit_explosion_recorded_not_raised(self):
        m = fp.experiment2_model()
        lat = build(m, 15)
        run = fp.run_backward(fp.SchemeConfig(kind="explicit_euler"), lat, m)
        assert not run.finite
        assert any(
            not all(map(math.isfinite, level)) for level in run.y
        )

    def test_finite_reads_the_terminal_level(self):
        # g is inf at the top terminal node.  fp truncates the children
        # it steps from, so that inf is its only non-finite entry, and
        # the run is not finite; explicit carries it up; fp-post
        # truncates the terminal level too and is finite
        m = fp.experiment1_model()
        m = m._replace(g=lambda x: np.where(x == x.max(), math.inf, x * x))
        lat = build(m, 5)
        trunc = fp.TruncationConfig(R0=2.0, alpha=0.249)
        pre, post, explicit = (fp.run_backward(cfg, lat, m) for cfg in (
            fp.SchemeConfig(kind="full_projection_pre", truncation=trunc),
            fp.SchemeConfig(kind="full_projection_post", truncation=trunc),
            fp.SchemeConfig(kind="explicit_euler")))
        assert all(np.isfinite(y).all() for y in pre.y[:-1])
        assert np.isinf(pre.y[-1]).sum() == 1
        assert not pre.finite and not explicit.finite and post.finite

    def test_solver_failure_carries_location(self):
        expanding = fp.poly_driver((0.0, 1.0))
        m = fp.make_constant_model(
            T=1.0, x0=0.0, b=0.0, sigma=1.0,
            g=fp.quadratic_g(), driver=expanding,
        )
        lat = build(m, 1)  # h = 1.0 -> h * M_y = 1 >= 0.5
        with pytest.raises(SolverError) as exc:
            fp.run_backward(fp.SchemeConfig(kind="implicit_euler"), lat, m)
        assert exc.value.level is not None

    def test_diagnostics_levels(self):
        m = fp.experiment1_model()
        lat = build(m, 8)
        trunc = fp.TruncationConfig(R0=2.0, alpha=0.249)
        run = fp.run_backward(
            fp.SchemeConfig(kind="full_projection_pre", truncation=trunc),
            lat, m,
        )
        assert len(run.y) == 9
        for _, _, y_max, y_min, finite in fp.minmax_processes(run):
            assert finite and y_min <= y_max
        ledger = fp.contraction_check(run, trunc)
        assert ledger.level_checked.tolist() == [1] * 9
        assert run.finite
        assert run.Lambda == 1.0

    def test_run_carries_its_lattice(self):
        # Lambda is read off the run's lattice: at N=2 (h=0.5) the
        # increments are clamped and Lambda drops below 1
        m = fp.experiment1_model()
        lat = build(m, 2)
        run = fp.run_backward(fp.SchemeConfig(kind="implicit_euler"), lat, m)
        assert run.lattice is lat
        assert run.Lambda == fp.weight_values(0.5)[1] < 1.0

    @pytest.mark.parametrize("kind", SCHEME_KINDS)
    def test_run_carries_its_model(self, kind, exp1_model, exp1_trunc):
        # the monitors read the driver's constants off run.model
        cfg = fp.SchemeConfig(
            kind=kind, theta=0.5 if kind == "theta" else None,
            truncation=exp1_trunc if kind.startswith("full_") else None)
        run = fp.run_backward(cfg, build(exp1_model, 4), exp1_model)
        assert run.model is exp1_model

    def test_lattice_records_its_model(self, exp1_model):
        grid = fp.SpatialGrid(x0=0.0, eta=0.05, M=80)
        assert build(exp1_model, 4).model is exp1_model
        assert build(exp1_model, 4, grid).model is exp1_model

    @pytest.mark.parametrize("kind", ["full_projection_pre", "implicit_euler"])
    def test_rejects_a_model_of_another_lattice(self, kind, exp1_trunc):
        # experiment1's model on experiment2's lattice (sigma 2.5, not
        # 1.5) gave fp a Y0 of 0.268 on states that are not its own
        cfg = fp.SchemeConfig(
            kind=kind,
            truncation=exp1_trunc if kind.startswith("full_") else None)
        lat = build(fp.experiment2_model(), 15)
        with pytest.raises(fp.ConfigurationError, match="from the lattice's"):
            fp.run_backward(cfg, lat, fp.experiment1_model())

    @pytest.mark.parametrize("change", [
        dict(T=2.0), dict(x0=0.5), dict(b=fp.constant_b_sigma(0.1, 1.5)[0]),
        dict(sigma=fp.constant_b_sigma(0.0, 1.6)[1]),
    ])
    def test_rejects_each_field_but_g_and_driver(self, change, exp1_model):
        lat = build(exp1_model, 4)
        with pytest.raises(fp.ConfigurationError, match="from the lattice's"):
            fp.run_backward(fp.SchemeConfig(kind="explicit_euler"), lat,
                            exp1_model._replace(**change))

    def test_accepts_another_g_and_driver_and_an_equal_model(self,
                                                             exp1_model):
        # the perturbed-terminal run is model._replace(g=...); a model
        # built again from the same settings equals the lattice's
        lat = build(exp1_model, 4)
        cfg = fp.SchemeConfig(kind="implicit_euler")
        other = exp1_model._replace(g=lambda x: 0.5 * x,
                                    driver=fp.poly_driver((0.0, -1.0)))
        assert fp.run_backward(cfg, lat, other).model is other
        again = fp.experiment1_model()
        assert again is not exp1_model
        assert fp.run_backward(cfg, lat, again).y0 == fp.run_backward(
            cfg, lat, exp1_model).y0

    def test_implicit_counts_solver_iterations(self):
        m = fp.experiment1_model()
        lat = build(m, 8)
        run = fp.run_backward(fp.SchemeConfig(kind="implicit_euler"), lat, m)
        assert run.solver_iterations_total > 0
        assert run.solver_iterations_max >= 1
        # Python ints, as the JSON writers of callers need
        assert type(run.solver_iterations_total) is int
        assert type(run.solver_iterations_max) is int

    def test_terminal_override(self):
        m = fp.experiment1_model()
        lat = build(m, 6)
        run = fp.run_backward(
            fp.SchemeConfig(kind="explicit_euler"), lat,
            m._replace(g=lambda x: 0.0),
        )
        assert run.y0 == 0.0

    @pytest.mark.parametrize("g, scalar_g", [
        (fp.quadratic_g(), lambda x: x * x),
        (fp.lipschitz_clamp_g(-7.0, 7.0),
         lambda x: min(max(x, -7.0), 7.0)),
        (fp.lipschitz_clamp_g(0.0, 1.0, -2.0),
         lambda x: min(max(-2.0 * x, 0.0), 1.0)),
        (fp.constant_g(-0.0), lambda x: -0.0),
        # the stability command's perturbed terminal on experiment2
        (lambda x, g=fp.lipschitz_clamp_g(-7.0, 7.0): g(x) + 0.1 * g(x),
         lambda x: min(max(x, -7.0), 7.0) + 0.1 * min(max(x, -7.0), 7.0)),
    ])
    def test_terminal_level_matches_per_float_evaluation(self, g, scalar_g):
        # g is called once on the terminal array; each entry is bitwise
        # what g and its plain-float formula give on that float alone
        xs = np.array([-math.inf, -1e200, -2.5, -0.0, 0.0, 0.75, 1e200,
                       math.inf, NAN])
        tg = fp.TimeGrid(T=1.0, N=1)
        m = fp.experiment2_model()
        lat = Lattice(time_grid=tg, supports=(np.zeros(1), xs),
                      children=(np.array([[2, 3, 4]]),), saturation_count=0,
                      model=m)
        run = fp.run_backward(fp.SchemeConfig(kind="explicit_euler"), lat,
                              m._replace(g=g))
        for want in ([float(g(x)) for x in xs.tolist()],
                     [scalar_g(x) for x in xs.tolist()]):
            assert run.y[1].tobytes() == np.array(want).tobytes()

    @pytest.mark.parametrize("N", [15, 25])
    def test_odd_symmetry_exact_on_experiment2(self, N, exp2_model, exp2_trunc):
        # odd g, odd driver and b = x0 = 0: y is odd and z even in x,
        # exactly, on every finite level
        lat = build(exp2_model, N)
        for cfg in (
            fp.SchemeConfig(kind="explicit_euler"),
            fp.SchemeConfig(kind="implicit_euler"),
            fp.SchemeConfig(kind="full_projection_pre", truncation=exp2_trunc),
            fp.SchemeConfig(kind="full_projection_post", truncation=exp2_trunc),
        ):
            run = fp.run_backward(cfg, lat, exp2_model)
            for y in run.y:
                if np.isfinite(y).all():
                    assert np.array_equal(y, -y[::-1]), cfg.kind
            for z in run.z:
                if np.isfinite(z).all():
                    assert np.array_equal(z, z[::-1]), cfg.kind
            if run.finite:
                assert run.y0 == 0.0, cfg.kind

    @pytest.mark.parametrize("grid", [None, fp.SpatialGrid(x0=0.0, eta=0.05, M=80)])
    def test_pre_post_conjugate_bitwise(self, grid, exp1_model):
        trunc = fp.TruncationConfig(R0=2.0, alpha=0.249)
        lat = build(exp1_model, 20, grid)
        h = lat.time_grid.h
        pre = fp.run_backward(
            fp.SchemeConfig(kind="full_projection_pre", truncation=trunc),
            lat, exp1_model,
        )
        post = fp.run_backward(
            fp.SchemeConfig(kind="full_projection_post", truncation=trunc),
            lat, exp1_model,
        )
        for a, b in zip(pre.y, post.y):
            assert np.array_equal([scalar_truncate(trunc, h, v) for v in a], b)
        for a, b in zip(pre.z, post.z):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("model, R0, alpha, N", [
        (fp.experiment1_model, 2.0, 0.249, 5),
        (fp.experiment1_model, 2.0, 0.249, 40),
        (fp.experiment2_model, 2.5, 0.249, 19),
        (fp.linear_model, 10.0, 1.0, 10),
        # fp's outputs overflow to inf, which only the post variant's
        # truncation caps: fp is not finite and fp-post is
        (fp.experiment1_model, 1e120, 0.1, 10),
    ])
    def test_post_is_truncated_pre(self, model, R0, alpha, N):
        # against the reference sweep, which truncates each post level as
        # it goes and steps from it: y_post = T(y_pre) and the same z,
        # bitwise, with finite taken on the truncated values
        spec = model()
        trunc = fp.TruncationConfig(R0=R0, alpha=alpha)
        lat = build(spec, N)
        pre, post = (fp.run_backward(
            fp.SchemeConfig(kind=kind, truncation=trunc), lat, spec)
            for kind in ("full_projection_pre", "full_projection_post"))
        ys, zs, _, _ = shortcut_free_sweep(
            fp.SchemeConfig(kind="full_projection_post", truncation=trunc),
            lat, spec)
        T = partial(fp.truncate, trunc, lat.time_grid.h)
        assert level_bytes(post.y) == level_bytes(map(T, pre.y)) \
            == level_bytes(ys)
        assert level_bytes(post.z) == level_bytes(pre.z) == level_bytes(zs)
        assert post.finite == all(np.isfinite(y).all() for y in ys)
        if R0 == 1e120:
            assert post.finite and not pre.finite


def shortcut_free_sweep(cfg, lattice, spec):
    """Backward induction through _level at every level, none skipped:
    the reference for run_backward.  The post variant truncates each
    level as it is made and steps from the truncated values.  A failed
    solve raises SolverError with run_backward's message, level and
    node.  Returns the (y, z) levels from the root and the Newton total
    and maximum."""
    N, h = lattice.time_grid.N, lattice.time_grid.h
    T = partial(fp.truncate, cfg.truncation, h)
    pre = T if cfg.kind == "full_projection_pre" else None
    post = T if cfg.kind == "full_projection_post" else None
    theta = {"implicit_euler": 1.0, "theta": cfg.theta}.get(cfg.kind, 0.0)
    x = lattice.supports[-1]
    total = most = 0
    with np.errstate(all="ignore"):
        ys = [np.broadcast_to(spec.g(x), x.shape).astype(float)]
        if post is not None:
            ys[0] = post(ys[0])
        zs = []
        for i in range(N - 1, -1, -1):
            kids = lattice.gather(i, ys[-1] if pre is None else pre(ys[-1]))
            try:
                y, z, level_total, level_most = _level(
                    kids, WCOL, col(H_for(h)), spec.driver, h, theta)
            except SolverError as err:
                raise SolverError(
                    "implicit solve failed at N=%d level %d node %d: %s"
                    % (N, i, err.node, err), level=i, node=err.node) from err
            total += level_total
            most = max(most, level_most)
            ys.append(y if post is None else post(y))
            zs.append(z)
    return ys[::-1], zs[::-1], total, most


class TestAllNanLevels:
    # an extent of 3.0 keeps the explicit run finite at N=40; 6.0 does not
    @pytest.mark.parametrize("grid", [
        None, fp.SpatialGrid(x0=0.0, eta=0.05, M=120),
    ], ids=["tree", "projected"])
    def test_explicit_blowup_matches_full_sweep(self, exp1_model, grid):
        lattice = build(exp1_model, 40, grid)
        cfg = fp.SchemeConfig(kind="explicit_euler")
        run = fp.run_backward(cfg, lattice, exp1_model)
        ys, zs, _, _ = shortcut_free_sweep(cfg, lattice, exp1_model)
        # an all-nan level above the root, so levels below it were filled
        assert any(np.isnan(y).all() for y in run.y[1:])
        assert level_bytes(run.y) == level_bytes(ys)
        assert level_bytes(run.z) == level_bytes(zs)

    def test_solve_writes_its_own_nan(self, exp1_model):
        # the solve gives math.nan wherever m is not finite, while z
        # carries its children's nan: from a terminal of negative nan the
        # two differ in their bits alone, which are not data
        lattice = build(exp1_model, 10)
        cfg = fp.SchemeConfig(kind="implicit_euler")
        neg_nan = np.copysign(math.nan, -1.0)
        spec = exp1_model._replace(g=lambda x: np.full(x.shape, neg_nan))
        run = fp.run_backward(cfg, lattice, spec)
        ys, zs, _, _ = shortcut_free_sweep(cfg, lattice, spec)
        assert level_bytes(run.y) == level_bytes(ys)
        assert level_bytes(run.z) == level_bytes(zs)
        assert run.solver_iterations_total == 0

    @pytest.mark.parametrize("kind", ["explicit_euler", "implicit_euler"])
    def test_mixed_nan_level_ends_the_sweep(self, exp1_model, kind):
        # a terminal of nans of both signs is all nan whatever its bits:
        # every level below it is filled, and nothing is summed
        lattice = build(exp1_model, 40)
        neg_nan = np.copysign(math.nan, -1.0)
        spec = exp1_model._replace(g=lambda x: np.where(
            np.arange(x.size) % 2 == 0, math.nan, neg_nan))
        cfg = fp.SchemeConfig(kind=kind)
        sums, got = count_sums(lambda: run_outcome(backward, cfg, lattice,
                                                   spec))
        assert sums == 0
        assert got == run_outcome(level_by_level, cfg, lattice, spec)
        # the spies see the sums of a run that has them: from the finite
        # terminal, one expect per level and one per z pass; explicit
        # computes levels 39..31 and stops at the all-nan level 31
        finite, _ = count_sums(lambda: fp.run_backward(cfg, lattice,
                                                       exp1_model))
        levels = 9 if kind == "explicit_euler" else 40
        assert finite == levels + 1

    def test_infinite_terminal_node_keeps_block_checks(self, exp1_model):
        # g = inf at the top node gives nan levels whose nans the solve
        # writes as math.nan and the closed-form root as an invalid
        # operation's nan: the block checks accept both, so no level is
        # solved on its own, with the Newton total of level by level
        # solves
        lattice = build(exp1_model, 60)
        spec = exp1_model._replace(
            g=lambda x: np.where(x == x.max(), math.inf, x * x))
        cfg = fp.SchemeConfig(kind="implicit_euler")
        with mock.patch.object(schemes, "_level", wraps=_level) as level:
            got = run_outcome(backward, cfg, lattice, spec)
        assert level.call_count == 0
        assert got[3] == 3540
        assert got == run_outcome(level_by_level, cfg, lattice, spec)


def run_outcome(sweep, cfg, lattice, spec):
    """The levels' bytes, finite flag and Newton total and maximum of a
    sweep, or the message, level and node of its SolverError."""
    try:
        ys, zs, finite, total, most = sweep(cfg, lattice, spec)
    except SolverError as err:
        return str(err), err.level, err.node
    return level_bytes(ys), level_bytes(zs), finite, total, most


def backward(cfg, lattice, spec):
    run = fp.run_backward(cfg, lattice, spec)
    return (run.y, run.z, run.finite, run.solver_iterations_total,
            run.solver_iterations_max)


def level_by_level(cfg, lattice, spec):
    ys, zs, total, most = shortcut_free_sweep(cfg, lattice, spec)
    return ys, zs, all(np.isfinite(y).all() for y in ys), total, most


# terminal functions: x^2, x^2 scaled until the cubic's residual (1e103)
# or g itself (1e308) overflows, an inf at the top node, nan on the
# right half and a level of negative nan
TERMINALS = {
    "quadratic": fp.quadratic_g(),
    "clamp": fp.lipschitz_clamp_g(-7.0, 7.0),
    "1e103": lambda x: 1e103 * x * x,
    "1e308": lambda x: 1e308 * x * x,
    "inf-top": lambda x: np.where(x == x.max(), math.inf, x * x),
    "nan-right": lambda x: np.where(x > 0.0, math.nan, x * x),
    "neg-nan": lambda x: np.full(x.shape, np.copysign(math.nan, -1.0)),
    # every other node one of nan, +-inf, +-0.0 or a value whose cube
    # overflows
    "specials": lambda x: np.where(
        np.arange(x.size) % 2 == 0,
        np.resize([math.nan, math.inf, -math.inf, -0.0, 0.0, 1e200, -1e200],
                  x.size),
        x * x),
}


class TestLevelChecks:
    """run_backward's implicit levels, taken from the closed-form root and
    checked in blocks by one _solve call where the driver declares
    L_z = 0, and solved one by one where it has a z term, are those of
    _level level by level: bits, counts and failures."""

    @given(
        deg=st.sampled_from([0, 1, 3]),
        coeffs=st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3),
        c1=st.floats(-2.0, 4.0),
        lead=st.floats(0.05, 1.0),
        zc=st.one_of(st.just(0.0), st.floats(0.1, 1.0).flatmap(
            lambda a: st.sampled_from([a, -a]))),
        lie=st.one_of(st.none(), st.floats(0.1, 2.0)),
        sigma=st.floats(0.5, 2.5), N=st.integers(1, 16),
        theta=st.sampled_from([0.5, 1.0]),
        projected=st.booleans(),
        g=st.sampled_from(sorted(TERMINALS)),
        block=st.sampled_from([1, 7, schemes._CHECK_NODES]),
    )
    # the overflow witness of test_first_failing_node_reported: the cubic
    # residual overflows at the bracket end where |m| reaches 1e103
    @example(deg=3, coeffs=[0.0, 0.0, 0.0], c1=0.0, lead=1.0, zc=0.0,
             lie=None, sigma=1.5, N=10, theta=1.0, projected=False,
             g="1e103", block=schemes._CHECK_NODES)
    # experiment2 at N=15: its middle nodes have m = 0, where F(m) = 0
    # and no Newton step runs
    @example(deg=3, coeffs=[0.0, 0.0, 0.0], c1=-1.0, lead=1.0, zc=0.0,
             lie=None, sigma=2.5, N=15, theta=1.0, projected=False,
             g="clamp", block=schemes._CHECK_NODES)
    @settings(max_examples=200, deadline=None)
    def test_matches_level_by_level_solves(self, deg, coeffs, c1, lead, zc,
                                           lie, sigma, N, theta, projected, g,
                                           block):
        # drivers of degree 0, 1 and 3, with and without a z term, some
        # declaring an M_y below their slope or with theta h M_y >= 0.5;
        # blocks of one level, a few levels and the module's budget
        cs = {0: coeffs[:1], 1: [coeffs[0], c1],
              3: [coeffs[0], c1, coeffs[1], -lead]}[deg]
        driver = fp.poly_driver(cs, z_coeff=zc)
        if lie is not None:
            driver = driver._replace(M_y=driver.M_y - lie)
        spec = fp.make_constant_model(T=1.0, x0=0.0, b=0.0, sigma=sigma,
                                      g=TERMINALS[g], driver=driver)
        grid = fp.SpatialGrid(x0=0.0, eta=0.05, M=80) if projected else None
        lattice = build(spec, N, grid)
        cfg = (fp.SchemeConfig(kind="implicit_euler") if theta == 1.0
               else fp.SchemeConfig(kind="theta", theta=theta))

        with mock.patch.object(schemes, "_CHECK_NODES", block):
            got = run_outcome(backward, cfg, lattice, spec)
        want = run_outcome(level_by_level, cfg, lattice, spec)
        event("fails" if len(want) == 3 else
              "finite" if want[2] else "not finite")
        assert got == want

    @pytest.mark.parametrize("where", ["everywhere", "level 0"])
    def test_a_wrong_root_reruns_from_its_block(self, exp1_model, where):
        # a root off by a relative 1e-9 is a start, not a value: Newton
        # moves the node from it, so the check of the block holding it
        # fails.  That block's levels and all below run again with a
        # _solve each, bitwise as level by level solves, Newton counts
        # included.  Off everywhere, the first block fails; off at the
        # one node of level 0, the blocks above pass their checks
        lattice = build(exp1_model, 120)
        cfg = fp.SchemeConfig(kind="implicit_euler")
        blocks = count_solves(lambda: fp.run_backward(cfg, lattice,
                                                      exp1_model))
        assert len(blocks) > 2
        if where == "level 0":
            h = lattice.time_grid.h
            run = fp.run_backward(cfg, lattice, exp1_model)
            m0 = schemes._branch_sum(WCOL * lattice.gather(0, run.y[1]))
            checked = blocks[:-1]
        else:
            m0, checked = None, []
        true_root = exp1_model.driver.root

        def root(m, z, hh):
            y = true_root(m, z, hh)
            return np.where(True if m0 is None else m == m0,
                            y * (1.0 + 1e-9), y)

        spec = exp1_model._replace(
            driver=exp1_model.driver._replace(root=root))
        levels = [len(lattice.supports[i]) for i in range(119, -1, -1)]
        done = 0
        while sum(levels[:done]) < sum(checked):
            done += 1
        calls = count_solves(lambda: fp.run_backward(cfg, lattice, spec))
        assert calls == checked + [blocks[len(checked)]] + levels[done:]
        want = run_outcome(level_by_level, cfg, lattice, spec)
        assert run_outcome(backward, cfg, lattice, spec) == want
        # one Newton iteration per node from the true root, more from
        # the wrong one
        assert want[3] == 14401 if m0 is not None else want[3] > 14400

    def test_one_root_per_guessed_level(self, exp1_model):
        # the checks start from the roots the levels hold, so the root is
        # computed once per level and never inside a check, which still
        # runs once per block.  A driver that declares L_z = 0 gets its
        # root as root(m, None, hh), at theta = 1 as at theta < 1
        lattice = build(exp1_model, 120)
        calls = []
        root = exp1_model.driver.root

        def counted(m, z, hh):
            calls.append((m.size, z))
            return root(m, z, hh)

        spec = exp1_model._replace(
            driver=exp1_model.driver._replace(root=counted))
        cfg = fp.SchemeConfig(kind="implicit_euler")
        blocks = count_solves(lambda: fp.run_backward(cfg, lattice, spec))
        assert calls == [(len(lattice.supports[i]), None)
                         for i in range(119, -1, -1)]
        assert sum(blocks) == sum(n for n, _ in calls) and len(blocks) > 2
        assert (run_outcome(backward, cfg, lattice, spec)
                == run_outcome(backward, cfg, lattice, exp1_model))

    @pytest.mark.parametrize("theta", [0.5, 1.0])
    def test_z_term_drivers_solved_level_by_level(self, exp2_model, theta):
        # a driver with a z term reads z in its root, so its root is only
        # _solve's start: every level is one _solve call, top-down, with
        # the bits, counts and finite flag of level by level solves
        spec = exp2_model._replace(
            driver=fp.poly_driver((0.0, -1.0, 0.0, -1.0), z_coeff=0.5))
        assert spec.driver.root is not None
        lattice = build(spec, 30)
        cfg = (fp.SchemeConfig(kind="implicit_euler") if theta == 1.0
               else fp.SchemeConfig(kind="theta", theta=theta))
        calls = count_solves(lambda: fp.run_backward(cfg, lattice, spec))
        assert calls == [len(lattice.supports[i]) for i in range(29, -1, -1)]
        assert (run_outcome(backward, cfg, lattice, spec)
                == run_outcome(level_by_level, cfg, lattice, spec))

    @pytest.mark.parametrize("preset, N", [("experiment1", 120),
                                           ("experiment2", 15)])
    def test_one_solve_per_block(self, preset, N):
        # a preset run solves each block once: the calls hold every node
        # above the terminal level once, and each holds fewer than
        # _CHECK_NODES plus the widest level's nodes, and each but the
        # last at least _CHECK_NODES
        spec = getattr(fp, preset + "_model")()
        lattice = build(spec, N)
        calls = count_solves(lambda: fp.run_backward(
            fp.SchemeConfig(kind="implicit_euler"), lattice, spec))
        widest = len(lattice.supports[N - 1])
        assert sum(calls) == sum(map(len, lattice.supports[:N]))
        assert all(schemes._CHECK_NODES <= n < schemes._CHECK_NODES + widest
                   for n in calls[:-1])
        assert calls[-1] < schemes._CHECK_NODES + widest


class TestChildNodeDriverTerm:
    """Where theta < 1, the driver declares L_z = 0 and y is m or the
    closed-form root, run_backward computes v + (1 - theta) h f(v) once
    per child node and gathers it: the bits of _level's branch form,
    whose f reads the block."""

    @given(
        kind=st.sampled_from(["explicit_euler", "full_projection_pre",
                              "full_projection_post", "theta"]),
        driver=st.one_of(
            st.sampled_from([HAND_CUBIC, ZERO, NEG_ZERO]),
            # degree 1, or a cubic with a negative leading coefficient
            st.tuples(st.floats(-1.0, 1.0), st.floats(-2.0, 1.0),
                      st.sampled_from([0.0, -0.5, 1.0]),
                      st.sampled_from([0.0, 0.25, 1.0])).map(
                lambda c: fp.poly_driver(
                    c[:2] if not c[3] else c[:3] + (-c[3],)))),
        sigma=st.floats(0.5, 2.5), N=st.integers(1, 16),
        projected=st.booleans(),
        g=st.sampled_from(sorted(TERMINALS)),
        R0=st.sampled_from([0.5, 3.0, 1e6]),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_branch_form(self, kind, driver, sigma, N, projected, g,
                                 R0):
        # bits but a nan's, sign bits included, the finite flag and the
        # Newton counts of theta = 0.5, whose roots are checked in blocks
        # where the driver has one and solved level by level where it
        # has none.  HAND_CUBIC's -y flips a nan's sign, so nans of two
        # signs meet in its f and in v + (1 - theta) h f(v): IEEE 754
        # leaves the bits of such a nan open, and numpy's SIMD loops take
        # them by the element's place in the array
        assert driver.L_z == 0.0
        spec = fp.make_constant_model(T=1.0, x0=0.0, b=0.0, sigma=sigma,
                                      g=TERMINALS[g], driver=driver)
        grid = fp.SpatialGrid(x0=0.0, eta=0.05, M=80) if projected else None
        lattice = build(spec, N, grid)
        trunc = fp.TruncationConfig(R0=R0, alpha=0.249)
        cfg = (fp.SchemeConfig(kind="theta", theta=0.5) if kind == "theta"
               else fp.SchemeConfig(kind=kind, truncation=trunc)
               if kind.startswith("full") else fp.SchemeConfig(kind=kind))
        got = run_outcome(backward, cfg, lattice, spec)
        want = run_outcome(level_by_level, cfg, lattice, spec)
        assert got == want

    @pytest.mark.parametrize("zc, on_block", [(0.0, False), (0.5, True)])
    @pytest.mark.parametrize("kind", ["full_projection_pre",
                                      "full_projection_post"])
    def test_which_form_each_driver_gets(self, exp2_model, exp2_trunc, zc,
                                         on_block, kind):
        # a driver that declares L_z = 0 is called once per level on the
        # child level with z = None; one with a z term on each level's
        # (branches, nodes) block with that level's z
        driver = fp.poly_driver((0.0, -1.0, 0.0, -1.0), z_coeff=zc)
        calls = []

        def f(y, z):
            calls.append((y.shape, None if z is None else z.shape))
            return driver.eval(y, z)

        spec = exp2_model._replace(driver=driver._replace(eval=f))
        lattice = build(spec, 10)
        fp.run_backward(fp.SchemeConfig(kind=kind, truncation=exp2_trunc),
                        lattice, spec)
        sizes = [len(lattice.supports[i]) for i in range(10)][::-1]
        if on_block:
            assert calls == [((3, n), (n,)) for n in sizes]
        else:
            assert calls == [((n + 2,), None) for n in sizes]


def missing(driver):
    """driver with its root, where it has one, off by a relative 1e-9: a
    start, but not the level's value, so a check of it fails."""
    if driver.root is None:
        return driver
    return driver._replace(
        root=lambda m, z, hh: driver.root(m, z, hh) * (1.0 + 1e-9))


class TestZBlocks:
    """Where y needs no z, run_backward fills z in one pass per block of
    levels: every z level is the one _level's formula gives from the
    run's own children, bit for bit but a nan's."""

    @given(
        kind=st.sampled_from(SCHEME_KINDS),
        driver=st.one_of(
            st.sampled_from([HAND_CUBIC, ZERO, NEG_ZERO, QUINTIC]),
            # degree 1, or a cubic with a negative leading coefficient,
            # with or without a z term
            st.tuples(st.floats(-1.0, 1.0), st.floats(-2.0, 1.0),
                      st.sampled_from([0.0, -0.5, 1.0]),
                      st.sampled_from([0.0, 0.25, 1.0]),
                      st.sampled_from([0.0, 0.5])).map(
                lambda c: fp.poly_driver(
                    c[:2] if not c[3] else c[:3] + (-c[3],),
                    z_coeff=c[4]))),
        miss=st.booleans(),
        sigma=st.floats(0.5, 2.5), N=st.integers(1, 16),
        projected=st.booleans(),
        g=st.sampled_from(sorted(TERMINALS)),
        R0=st.sampled_from([0.5, 3.0, 1e6]),
        block=st.sampled_from([1, 7, schemes._CHECK_NODES]),
    )
    # nans of two patterns meet in the children: the terminal's and the
    # one inf - inf makes
    @example(kind="explicit_euler", driver=ZERO, miss=False, sigma=1.0, N=3,
             projected=False, g="specials", R0=0.5, block=schemes._CHECK_NODES)
    # a terminal level that is already the nan fixed point
    @example(kind="full_projection_pre", driver=CUBIC, miss=False, sigma=1.5,
             N=12, projected=False, g="neg-nan", R0=3.0, block=7)
    # every check fails, so every level is solved one by one
    @example(kind="theta", driver=CUBIC, miss=True, sigma=1.5, N=12,
             projected=True, g="quadratic", R0=3.0, block=7)
    @settings(max_examples=200, deadline=None)
    def test_every_z_level_is_the_level_formula(self, kind, driver, miss,
                                                sigma, N, projected, g, R0,
                                                block):
        # the run's z from its own y, and the run against level by level
        # solves: bits but a nan's, finite flag, Newton counts and
        # failures
        if miss:
            driver = missing(driver)
        spec = fp.make_constant_model(T=1.0, x0=0.0, b=0.0, sigma=sigma,
                                      g=TERMINALS[g], driver=driver)
        grid = fp.SpatialGrid(x0=0.0, eta=0.05, M=80) if projected else None
        lattice = build(spec, N, grid)
        trunc = fp.TruncationConfig(R0=R0, alpha=fp.default_alpha(driver.m))
        cfg = (fp.SchemeConfig(kind="theta", theta=0.5) if kind == "theta"
               else fp.SchemeConfig(kind=kind, truncation=trunc)
               if kind.startswith("full") else fp.SchemeConfig(kind=kind))
        runs = []

        def sweep(*args):
            run = fp.run_backward(*args)
            runs.append(run)
            return (run.y, run.z, run.finite, run.solver_iterations_total,
                    run.solver_iterations_max)

        with mock.patch.object(schemes, "_CHECK_NODES", block):
            got = run_outcome(sweep, cfg, lattice, spec)
        want = run_outcome(level_by_level, cfg, lattice, spec)
        event("fails" if len(want) == 3 else
              "finite" if want[2] else "not finite")
        if runs:
            h = lattice.time_grid.h
            T = (partial(fp.truncate, trunc, h) if kind.startswith("full")
                 else lambda v: v)
            for i, z in enumerate(runs[0].z):
                kids = lattice.gather(i, T(runs[0].y[i + 1]))
                with np.errstate(all="ignore"):
                    level_z = _level(kids, WCOL, col(H_for(h)), driver, h,
                                     0.0)[1]
                assert level_bytes([z]) == level_bytes([level_z]), i
        assert got == want

    @pytest.mark.parametrize("preset, N", [("experiment1", 120),
                                           ("linear-oracle", 320)])
    def test_one_z_pass_per_block(self, preset, N):
        # fp fills z once per block: the passes hold every node above the
        # terminal level once, each but the last at least _CHECK_NODES
        # and fewer than _CHECK_NODES plus the widest level's nodes.  The
        # passes of the theta scheme and of implicit are their checks'
        # blocks, the same blocks
        spec = (fp.experiment1_model() if preset == "experiment1"
                else fp.linear_model(-1.0))
        lattice = build(spec, N)
        widest = len(lattice.supports[N - 1])
        trunc = fp.TruncationConfig(R0=2.0, alpha=0.249)
        fp_run = partial(fp.run_backward, fp.SchemeConfig(
            kind="full_projection_pre", truncation=trunc), lattice, spec)
        passes, _ = count_z_passes(fp_run)
        assert sum(passes) == sum(map(len, lattice.supports[:N]))
        assert all(schemes._CHECK_NODES <= n < schemes._CHECK_NODES + widest
                   for n in passes[:-1])
        assert passes[-1] < schemes._CHECK_NODES + widest
        theta = partial(fp.run_backward, fp.SchemeConfig(
            kind="theta", theta=0.5), lattice, spec)
        assert count_z_passes(theta)[0] == passes
        assert count_solves(theta) == passes
        implicit = partial(fp.run_backward, fp.SchemeConfig(
            kind="implicit_euler"), lattice, spec)
        assert count_z_passes(implicit)[0] == count_solves(implicit) \
            == passes


def count_sums(run):
    """The number of branch sums that run() makes, through
    Lattice.expect or schemes._branch_sum, and its result."""
    with mock.patch.object(Lattice, "expect", autospec=True,
                           side_effect=Lattice.expect) as expect, \
            mock.patch.object(schemes, "_branch_sum",
                              wraps=schemes._branch_sum) as branch_sum:
        result = run()
    return expect.call_count + branch_sum.call_count, result


def count_z_passes(run):
    """The node counts of the z passes that run() makes, and its
    result."""
    calls = []
    z_levels = schemes._z_levels

    def counted(*args):
        levels = z_levels(*args)
        calls.append(sum(map(len, levels)))
        return levels

    with mock.patch.object(schemes, "_z_levels", counted):
        return calls, run()


def count_solves(run):
    """The node counts of the _solve calls that run() makes."""
    calls = []
    solve = schemes._solve

    def counted(m, z, driver, hh, start=None):
        calls.append(m.size)
        return solve(m, z, driver, hh, start)

    with mock.patch.object(schemes, "_solve", counted):
        run()
    return calls


class TestSolveReference:
    @given(
        deg=st.sampled_from([1, 3, 5]),
        coeffs=st.lists(st.floats(-1.0, 1.0), min_size=5, max_size=5),
        lead=st.floats(0.05, 1.0),
        zc=st.floats(-1.0, 1.0),
        lie=st.one_of(st.none(), st.floats(0.1, 2.0)),
        hh=st.floats(0.01, 0.3),
        m=st.lists(st.tuples(st.sampled_from([-1.0, 1.0]), st.floats(-2.0, 8.0)),
                   min_size=8, max_size=8),
        z=st.lists(st.tuples(st.sampled_from([-1.0, 1.0]), st.floats(-2.0, 16.0)),
                   min_size=8, max_size=8),
        nan_m=st.sets(st.integers(0, 7), max_size=2),
        inf_z=st.sets(st.integers(0, 7), max_size=2),
    )
    @settings(max_examples=300, deadline=None)
    def test_solve_matches_full_passes(self, deg, coeffs, lead, zc, lie, hh,
                                       m, z, nan_m, inf_z):
        # random polynomial drivers with a negative leading coefficient,
        # declared M_y at or below the true slope, |m| up to 1e8 and |z|
        # up to 1e16, a few nan m and inf z: the same bytes, iterations,
        # iteration total and maximum, and failures as the full passes
        cs = coeffs[:deg] + [-lead]
        driver = fp.poly_driver(cs, z_coeff=zc)
        if lie is not None:
            driver = driver._replace(M_y=driver.M_y - lie)
        assume(hh * driver.M_y < 0.5)
        m = np.array([s * 10.0 ** e for s, e in m])
        z = np.array([s * 10.0 ** e for s, e in z])
        m[list(nan_m)] = math.nan
        z[list(inf_z)] = math.inf
        outcomes = []
        with np.errstate(all="ignore"):
            for solve in (_solve, reference_solve):
                try:
                    y, iters, total, most = solve(m, z, driver, hh)
                    outcomes.append((y.tobytes(), iters.tolist(), total,
                                     most))
                except SolverError as err:
                    outcomes.append((str(err), err.node))
        assert outcomes[0] == outcomes[1]


def scalar_solve(m, z, hh, f, df):
    """y - hh f(y, z) = m in Python floats: a geometric bracket search
    from m, then Newton kept inside the bracket."""
    def F(y):
        return y - hh * f(y, z) - m
    up, b = F(m) > 0.0, m
    step = max(abs(hh * f(m, z)), 1e-12 * max(1.0, abs(m)), 1e-8)
    while F(b) != 0.0 and (F(b) > 0.0) == up:
        b, step = b - step if up else b + step, 2.0 * step
    if F(b) == 0.0:
        return b
    lo, hi, y = min(m, b), max(m, b), m
    for _ in range(100):
        if abs(F(y)) <= 1e-12 * max(1.0, abs(m)):
            return y
        lo, hi = (lo, min(hi, y)) if F(y) > 0.0 else (max(lo, y), hi)
        y = y - F(y) / (1.0 - hh * df(y, z))
        y = y if lo <= y <= hi else 0.5 * (lo + hi)
    raise AssertionError("reference Newton did not converge")


def plain_sum(t):
    """The operator's conditional expectation of one node's three
    weighted branch terms: (t0 + t2) + t1, in schemes._branch_sum's
    order."""
    return (t[0] + t[2]) + t[1]


def scalar_level(cfg, lattice, spec, i, nxt):
    """The m and z of every node of level i in Python floats, from the
    level i + 1 values nxt, each expectation the plain sum in the
    operator's order."""
    h, f = lattice.time_grid.h, spec.driver.eval
    theta = {"implicit_euler": 1.0, "theta": cfg.theta}.get(cfg.kind, 0.0)
    T = partial(scalar_truncate, cfg.truncation, h)
    H, _ = fp.weight_values(h)
    ms, zs = [], []
    for pos in range(len(lattice.supports[i])):
        v = [nxt[c] for c in child_indices(lattice, i, pos)]
        if cfg.kind == "full_projection_pre":
            v = [T(x) for x in v]
        z = plain_sum([w * x * hj for w, x, hj in zip(fp.WEIGHTS, v, H)])
        if theta != 1.0:
            v = [x + f(x, z) * ((1.0 - theta) * h) for x in v]
        ms.append(plain_sum([w * x for w, x in zip(fp.WEIGHTS, v)]))
        zs.append(z)
    return ms, zs


def scalar_reference(cfg, lattice, spec):
    """A theta = 0 kind node by node in Python floats, level after level
    of scalar_level; no solve runs, so y is m.

    Returns the (y, z) levels from the root, or None as soon as a level
    holds a value that is not finite.
    """
    tg = lattice.time_grid
    post = cfg.kind == "full_projection_post"
    T = partial(scalar_truncate, cfg.truncation, tg.h)

    vals = [float(spec.g(x)) for x in lattice.supports[-1]]
    ys = [[T(v) for v in vals] if post else vals]
    zs = []
    for i in range(tg.N - 1, -1, -1):
        ms, z_level = scalar_level(cfg, lattice, spec, i, ys[-1])
        if not all(math.isfinite(v) for v in ms + z_level):
            return None
        ys.append([T(m) for m in ms] if post else ms)
        zs.append(z_level)
    return ys[::-1], zs[::-1]


def assert_solve_accepts(y, m, z, hh, driver, coeffs, zc):
    """y meets _solve's acceptance at m and z, and lies as close to the
    scalar solve's root as the two stopping rules allow.

    _solve accepts |F(y)| <= _TOL max(1, |m|), or else F changing sign
    between y and the adjacent float toward the root.  The bound: the
    exact F(v) = v - hh f(v, z) - m, for the floats m, z and hh, has
    slope 1 - hh f_y >= c = 1 - hh max(M_y, 0) > 0, since f_y = c1 +
    3 c3 y^2 <= c1 = M_y for c3 <= 0.  So any v lies within
    |F_exact(v)| / c of the one root, and |F_exact(v)| <= |F(v)| + d(v),
    where d(v) bounds the rounding of the computed F: the degree-3
    Horner and the z term err by at most gamma_8 times A(v) = sum
    |c_k| |v|^k + |zc z|, and the product with hh and the two
    subtractions bring it to gamma_11 (|v| + |m| + hh A(v)), with
    gamma_11 < 12u.  Two points that each meet some stopping rule lie
    within the sum of their two distances to the root.
    """
    def F(v):
        return v - hh * driver.eval(v, z) - m

    def rounding(v):
        terms = 0.0
        for c in reversed(coeffs):
            terms = terms * abs(v) + abs(c)
        return 12.0 * U * (abs(v) + abs(m) + hh * (terms + abs(zc * z)))

    fy = F(y)
    if abs(fy) > _TOL * max(1.0, abs(m)):
        fn = F(math.nextafter(y, -math.inf if fy > 0.0 else math.inf))
        assert fn <= 0.0 if fy > 0.0 else fn >= 0.0
    want = scalar_solve(m, z, hh, driver.eval, driver.dfdy)
    c = 1.0 - hh * max(driver.M_y, 0.0)
    bound = (abs(fy) + rounding(y) + abs(F(want)) + rounding(want)) / c
    assert abs(y - want) <= bound


class TestScalarReference:
    @given(
        c0=st.floats(-1.0, 1.0), c1=st.floats(-2.0, 0.5),
        c3=st.floats(-1.0, 0.0), zc=st.floats(-1.0, 1.0),
        sigma=st.floats(0.5, 2.0), N=st.integers(2, 12),
        R0=st.floats(0.5, 5.0), alpha_frac=st.floats(0.05, 1.0),
        kind=st.sampled_from([
            ("explicit_euler", 0.0), ("theta", 0.5), ("implicit_euler", 1.0),
            ("full_projection_pre", 0.0), ("full_projection_post", 0.0),
        ]),
        projected=st.booleans(),
    )
    # an explicit run that the cubic blows up: there the plain sums'
    # rounding reaches 5.2e-12 relative at the root against exact sums
    @example(c0=0.0, c1=0.0, c3=-1.0, zc=0.0078125, sigma=2.0, N=3, R0=1.0,
             alpha_frac=1.0, kind=("explicit_euler", 0.0), projected=False)
    # hh c3 underflows to 0, where the closed-form root divided by zero
    @example(c0=0.0, c1=0.0, c3=-5e-324, zc=0.0, sigma=1.0, N=2, R0=1.0,
             alpha_frac=1.0, kind=("theta", 0.5), projected=False)
    # two solves that each meet the tolerance differ by up to 7.6e-13
    # relative at a level, and over 12 levels by 6.0e-12
    @example(c0=0.4375, c1=0.3125, c3=-0.0625, zc=0.0, sigma=0.5, N=12,
             R0=1.0, alpha_frac=1.0, kind=("theta", 0.5), projected=False)
    @settings(max_examples=120, deadline=None)
    def test_operator_matches_scalar_reference(
        self, c0, c1, c3, zc, sigma, N, R0, alpha_frac, kind, projected
    ):
        driver = fp.poly_driver((c0, c1, 0.0, c3), z_coeff=zc)
        assume(kind[1] * driver.M_y / N < 0.5)
        spec = fp.make_constant_model(T=1.0, x0=0.0, b=0.0, sigma=sigma,
                                      g=fp.quadratic_g(), driver=driver)
        top = 1.0 if driver.m == 1 else 1.0 / (2 * (driver.m - 1))
        trunc = fp.TruncationConfig(R0=R0, alpha=alpha_frac * top)
        cfg = fp.SchemeConfig(
            kind=kind[0], theta=kind[1] if kind[0] == "theta" else None,
            truncation=trunc if kind[0].startswith("full_") else None)
        grid = fp.SpatialGrid(x0=0.0, eta=0.05, M=80) if projected else None
        lattice = build(spec, N, grid)

        run = fp.run_backward(cfg, lattice, spec)
        if kind[1] == 0.0:
            # no root-solve: the reference is the operator's arithmetic,
            # over the whole run
            ref = scalar_reference(cfg, lattice, spec)
            assert run.finite == (ref is not None)
            if ref is None:
                return
            for levels, ref_levels in ((run.y, ref[0]), (run.z, ref[1])):
                for got, want in zip(levels, ref_levels):
                    assert np.array_equal(got, want)
            return
        # the Newton kinds: two solves that each meet their tolerance
        # differ, and over a run the difference compounds, so each level
        # is fed the operator's own level i + 1.  Then z is the
        # operator's arithmetic, bitwise, and y the root of that level's
        # m and z to within the stopping rules
        hh = kind[1] * lattice.time_grid.h
        for i in range(N - 1, -1, -1):
            ms, zs = scalar_level(cfg, lattice, spec, i, run.y[i + 1].tolist())
            assert ([float_key(v) for v in zs]
                    == [float_key(v) for v in run.z[i].tolist()])
            for m, z, y in zip(ms, zs, run.y[i].tolist()):
                if not (math.isfinite(m) and math.isfinite(z)):
                    assert math.isnan(y)
                    continue
                assert_solve_accepts(y, m, z, hh, driver, (c0, c1, 0.0, c3),
                                     zc)
