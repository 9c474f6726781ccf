import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fptree as fp
from fptree.grids import ConfigurationError, check_alpha

from conftest import branch_moment, branch_weight_values, scalar_truncate

HARD = fp.TruncationConfig(R0=2.0, alpha=0.249)


class TestTimeGrid:
    def test_h_and_times(self):
        tg = fp.TimeGrid(T=1.0, N=4)
        assert tg.h == 0.25
        assert tg.times == (0.0, 0.25, 0.5, 0.75, 1.0)

    def test_bad_n(self):
        with pytest.raises(ConfigurationError):
            fp.TimeGrid(T=1.0, N=0)


class TestTruncationRadius:
    def test_documented_values(self):
        assert fp.truncation_radius(
            fp.TruncationConfig(R0=10.0, alpha=0.25), 0.01
        ) == pytest.approx(31.622776601683796, abs=1e-12)
        assert fp.truncation_radius(
            fp.TruncationConfig(R0=5.0, alpha=0.1), 0.1
        ) == pytest.approx(6.294627058970836, abs=1e-12)

    def test_overflowing_power_gives_inf(self):
        # 0.1 ** -400 overflows: R is inf and the truncation the identity
        cfg = fp.TruncationConfig(R0=10.0, alpha=400.0)
        assert fp.truncation_radius(cfg, 0.1) == math.inf
        ys = np.array([-math.inf, -1e300, -0.0, 2.5, math.inf, math.nan])
        assert fp.truncate(cfg, 0.1, ys).tobytes() == ys.tobytes()

    def test_default_alpha(self):
        assert fp.default_alpha(3) == pytest.approx(0.249)
        assert fp.default_alpha(2) == pytest.approx(0.499)
        assert fp.default_alpha(1) == 1.0

    def test_check_alpha(self):
        check_alpha(fp.TruncationConfig(R0=1.0, alpha=0.2), m=3)
        with pytest.raises(ConfigurationError):
            check_alpha(fp.TruncationConfig(R0=1.0, alpha=0.3), m=3)


def T(cfg, h, *ys):
    """The library truncation on a float64 array of ys."""
    return fp.truncate(cfg, h, np.array(ys, dtype=np.float64))


class TestTruncate:
    @given(
        y=st.floats(-1e6, 1e6, allow_nan=False),
        yp=st.floats(-1e6, 1e6, allow_nan=False),
        h=st.sampled_from([0.2, 0.05, 1 / 120]),
    )
    @settings(max_examples=400, deadline=None)
    def test_one_lipschitz_and_bounded(self, y, yp, h):
        ty, typ = T(HARD, h, y, yp)
        assert abs(ty - typ) <= abs(y - yp) + 1e-12 * max(abs(y), abs(yp), 1)
        assert abs(ty) <= abs(y)
        # the array form is the scalar reference, bit for bit
        assert [ty, typ] == [scalar_truncate(HARD, h, y),
                             scalar_truncate(HARD, h, yp)]

    @given(
        h=st.sampled_from([0.2, 0.05, 1 / 120]),
        u=st.floats(0, 1, allow_nan=False),
    )
    @settings(max_examples=200, deadline=None)
    def test_identity_inside_and_odd(self, h, u):
        R = fp.truncation_radius(HARD, h)
        y = u * R
        assert T(HARD, h, y)[0] == y
        far = R * (1.0 + 3.0 * u)
        t_far = T(HARD, h, far)[0]
        assert T(HARD, h, -far)[0] == -t_far
        assert T(HARD, h, t_far)[0] == t_far

    def test_hard_clamps_to_radius(self):
        R = fp.truncation_radius(HARD, 0.05)
        assert T(HARD, 0.05, R * 10, -R * 10).tolist() == [R, -R]

    def test_nonfinite(self):
        R = fp.truncation_radius(HARD, 0.05)
        got = T(HARD, 0.05, math.nan, math.inf, -math.inf)
        assert math.isnan(got[0]) and got[1:].tolist() == [R, -R]
        ys = [math.nan, math.inf, -math.inf]
        assert np.array_equal(
            T(HARD, 0.05, *ys),
            [scalar_truncate(HARD, 0.05, y) for y in ys], equal_nan=True)


# nan payloads of both signs, quiet and signalling, by their bits
NAN_PAYLOADS = np.array([0x7FF8000000000001, 0xFFF8000000000123,
                         0x7FF0000000000456, 0xFFF4000000000789],
                        dtype=np.uint64).view(np.float64)


def where_truncate(cfg, h, y):
    """The selection form of T: the reference for the library's clamp."""
    R = fp.truncation_radius(cfg, h)
    return np.where((np.abs(y) <= R) | np.isnan(y), y, np.copysign(R, y))


class TestTruncateBitwise:
    @given(
        R0=st.floats(1e-3, 1e3),
        alpha=st.floats(0.01, 1.0),
        h=st.sampled_from([1.0, 0.2, 0.05, 1 / 120]),
        ys=st.lists(st.floats(allow_nan=True, allow_subnormal=True),
                    max_size=40),
    )
    @settings(max_examples=300, deadline=None)
    def test_clamp_is_the_selection(self, R0, alpha, h, ys):
        # every float, +-inf, +-0.0, the nan payloads and the floats at
        # and next to +-R, at array lengths across the SIMD widths
        cfg = fp.TruncationConfig(R0=R0, alpha=alpha)
        R = fp.truncation_radius(cfg, h)
        edge = [R, -R, math.nextafter(R, math.inf),
                math.nextafter(R, 0.0), -math.nextafter(R, math.inf),
                math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324]
        y = np.concatenate((np.array(ys + edge, dtype=np.float64),
                            NAN_PAYLOADS))
        for part in (y, y[:1], y[-3:], y[-7:], y[-8:], y[-9:], y[-17:]):
            got = fp.truncate(cfg, h, part)
            assert got.tobytes() == where_truncate(cfg, h, part).tobytes()


class TestIncrementWeights:
    def test_increment_radius_formula(self):
        h = 0.03
        assert fp.increment_radius(h) == pytest.approx(
            math.sqrt(2 * h) * math.log(1 / h), abs=1e-15
        )

    def test_trinomial_points_and_weights(self):
        assert fp.increments(0.03) == (-0.3, 0.0, 0.3)
        assert fp.WEIGHTS == (1 / 6, 2 / 3, 1 / 6)
        assert math.fsum(fp.WEIGHTS) == 1.0

    def test_moments_match_gaussian_exactly(self):
        for h in (0.2, 0.05, 1 / 120):
            for k in range(6):
                assert fp.moment_exact(h, k) == fp.gaussian_moment_exact(h, k)

    def test_sixth_moment_differs(self):
        h = 0.05
        got = fp.moment_exact(h, 6)
        want = fp.gaussian_moment_exact(h, 6)
        assert got != want
        assert got == 9 * Fraction(h) ** 3
        assert want == 15 * Fraction(h) ** 3

    def test_weight_values_example(self):
        H, lam = fp.weight_values(0.03)
        assert H == (-10.0, 0.0, 10.0)
        assert lam == 1.0

    def test_lambda_exactly_one_when_clamp_inactive(self):
        for h in (0.29, 0.1, 1 / 120):
            assert math.sqrt(3 * h) <= fp.increment_radius(h)
            H, lam = fp.weight_values(h)
            assert lam == 1.0
            assert math.fsum(w * g for w, g in zip(fp.WEIGHTS, H)) == 0.0

    def test_raw_equals_truncated_when_inactive(self):
        h = 0.1
        H, _ = fp.weight_values(h)
        assert H == tuple(p / h for p in fp.increments(h))

    def test_raw_fallback_at_large_h(self):
        # the radius sqrt(2h) ln(1/h) is 0 at h = 1 and negative beyond
        for h in (1.0, 2.0):
            H, _ = fp.weight_values(h)
            assert H == tuple(p / h for p in fp.increments(h))

    def test_clamp_active_shrinks_lambda(self):
        # beyond h ~ 0.2929 the increment radius clamps sqrt(3h)
        h = 0.4
        assert fp.increment_radius(h) < math.sqrt(3 * h)
        H, lam = fp.weight_values(h)
        assert 0.0 < lam < 1.0


def assert_closed_forms_match_branch_sums(h):
    H, lam = fp.weight_values(h)
    want_H, want_lam = branch_weight_values(h)
    # bitwise, so a zero of the wrong sign fails too
    assert np.array(H).tobytes() == np.array(want_H).tobytes()
    assert lam == want_lam
    g = math.sqrt(3.0 * h)
    assert np.array(fp.increments(h)).tobytes() == np.array(
        (-g, 0.0, g)).tobytes()
    for k in range(8):
        assert fp.moment_exact(h, k) == branch_moment(h, k), k


class TestClosedFormsMatchBranchSums:
    """weight_values, increments and moment_exact against the per-branch
    Fraction sums of conftest, on both sides of the clamp threshold
    h ~ 0.2938 where sqrt(3h) = sqrt(2h) ln(1/h)."""

    @given(h=st.floats(0.0, 3.0, exclude_min=True))
    @example(h=0.29)
    @example(h=0.2938)
    @example(h=0.2939)
    @example(h=0.295)
    @example(h=1.0)
    @example(h=2.0)
    @example(h=5e-324)
    @settings(max_examples=500, deadline=None)
    def test_any_h(self, h):
        assert_closed_forms_match_branch_sums(h)

    @pytest.mark.parametrize("N", [1, 2, 3, 4, 5, 7, 10, 15, 25, 120, 320,
                                   1000, 4999])
    def test_one_over_n(self, N):
        assert_closed_forms_match_branch_sums(1.0 / N)


class TestSpatialGrid:
    def test_points(self):
        g = fp.SpatialGrid(x0=0.0, eta=0.1, M=10)
        assert g.point(0) == 0.0
        assert g.point(3) == pytest.approx(0.3)

    def test_documented_projections(self):
        g = fp.SpatialGrid(x0=0.0, eta=0.1, M=10)
        assert fp.grid_project(g, 0.349) == pytest.approx(0.3)
        assert fp.grid_project(g, 0.35) == pytest.approx(0.3)
        k, sat = fp.grid_project_index(g, 5.0)
        assert (g.point(k), sat) == (pytest.approx(1.0), True)
        k, sat = fp.grid_project_index(g, -5.0)
        assert (g.point(k), sat) == (pytest.approx(-1.0), True)

    def test_exact_ties_go_to_lower_coordinate(self):
        g = fp.SpatialGrid(x0=0.0, eta=0.5, M=4)
        assert fp.grid_project(g, 0.25) == 0.0
        assert fp.grid_project(g, -0.25) == -0.5
        assert fp.grid_project(g, 0.75) == 0.5

    @given(x=st.floats(-3, 3, allow_nan=False))
    @settings(max_examples=200, deadline=None)
    def test_idempotent(self, x):
        g = fp.SpatialGrid(x0=0.0, eta=0.1, M=40)
        once = fp.grid_project(g, x)
        assert fp.grid_project(g, once) == once

    @given(x=st.floats(-0.99, 0.99, allow_nan=False))
    @settings(max_examples=200, deadline=None)
    def test_within_half_mesh_inside_hull(self, x):
        g = fp.SpatialGrid(x0=0.0, eta=0.1, M=10)
        got = fp.grid_project(g, x)
        assert abs(got - x) <= 0.05 + 1e-12

    @given(xs=st.lists(st.floats(-1e3, 1e3, allow_nan=False), min_size=1,
                       max_size=20),
           x0=st.floats(-2.0, 2.0), eta=st.floats(1e-3, 1.0),
           M=st.integers(0, 500))
    @settings(max_examples=200, deadline=None)
    def test_array_matches_scalar_ceil(self, xs, x0, eta, M):
        g = fp.SpatialGrid(x0=x0, eta=eta, M=M)
        k, sat = fp.grid_project_index(g, np.array(xs).reshape(-1, 1))
        assert k.dtype == np.int64 and k.shape == sat.shape == (len(xs), 1)
        for x, kk, ss in zip(xs, k.ravel().tolist(), sat.ravel().tolist()):
            want = math.ceil((x - x0) / eta - 0.5)
            assert (kk, ss) == (min(max(want, -M), M), abs(want) > M)

    def test_huge_finite_saturates_on_its_side(self):
        g = fp.SpatialGrid(x0=0.5, eta=1e-3, M=7)
        # (x - x0)/eta overflows to +-inf, beyond int64 either way
        k, sat = fp.grid_project_index(g, np.array([1e308, -1e308, 1e20]))
        assert k.tolist() == [7, -7, 7] and sat.all()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_raises(self, bad):
        g = fp.SpatialGrid(x0=0.0, eta=0.1, M=10)
        with pytest.raises(ConfigurationError, match="non-finite"):
            fp.grid_project_index(g, np.array([0.0, bad]))

    @pytest.mark.parametrize("kw", [dict(eta=math.inf), dict(eta=0.0),
                                    dict(x0=math.nan)])
    def test_degenerate_grid_rejected(self, kw):
        with pytest.raises(ConfigurationError):
            fp.SpatialGrid(**{"x0": 0.0, "eta": 0.1, "M": 10, **kw})

    def test_mesh_beyond_exact_float_indices_rejected(self):
        # above 2**52 the float indices are not all integers, and at
        # M = 10**300 the int64 cast of a clipped index wraps
        fp.SpatialGrid(x0=0.0, eta=1e-3, M=2 ** 52)
        with pytest.raises(ConfigurationError, match="2\\*\\*52"):
            fp.SpatialGrid(x0=0.0, eta=1e-300, M=10 ** 300)
