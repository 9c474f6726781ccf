import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fptree as fp
from fptree.model import ModelError, _horner, _implicit_root
from fptree.schemes import SchemeError

from conftest import float_bits, float_key


# zeros, infinities, nan and the extreme subnormals and normals
SPECIAL = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
           2.2250738585072014e-308, 1.0, -1.0, 1e308]


def plain_horner(cs, y):
    """sum_k cs[k] y^k with every multiply and add: the reference for
    model._horner, which skips the adds of zero coefficients."""
    acc = cs[-1]
    for c in cs[-2::-1]:
        acc = acc * y + c
    return acc


class TestPolyDriver:
    def test_cubic_decay_constants(self):
        d = fp.poly_driver((0.0, 0.0, 0.0, -1.0))
        assert d.M_y == 0.0
        assert d.L_y == 1.5
        assert d.m == 3
        assert d.L_z == 0.0
        assert d.f00 == 0.0

    def test_cubic_with_linear_term(self):
        d = fp.poly_driver((0.0, -1.0, 0.0, -1.0))
        assert d.M_y == -1.0
        assert d.L_y == 1.5
        assert d.m == 3

    def test_linear(self):
        d = fp.poly_driver((0.0, -1.0))
        assert d.M_y == -1.0
        assert d.L_y == 1.0
        assert d.m == 1

    def test_constant_driver(self):
        d = fp.poly_driver((2.5,))
        assert d.eval(7.0, 3.0) == 2.5
        assert d.M_y == 0.0
        assert d.m == 1
        assert d.f00 == 2.5

    def test_z_coefficient(self):
        d = fp.poly_driver((0.0, -1.0), z_coeff=0.75)
        assert d.L_z == 0.75
        assert d.eval(1.0, 2.0) == -1.0 + 1.5

    @pytest.mark.parametrize("coeffs", [(0.0, -1.0), (0.0, -1.0, 0.0, -1.0),
                                        (2.5,), (-0.0, 1e308, 0.0, -1.0)])
    def test_zero_z_coefficient_ignores_z(self, coeffs):
        # f is p(y) bitwise, at every special y and at z = 0, +-inf and
        # nan, where p(y) + 0 * z would give nan for the non-finite z
        d, p = fp.poly_driver(coeffs), _horner(coeffs)
        y = np.array(SPECIAL)
        with np.errstate(all="ignore"):
            for z in (0.0, math.inf, -math.inf, math.nan):
                # a constant p returns a float for an array y
                assert np.asarray(d.eval(y, z)).tobytes() == \
                    np.asarray(p(y)).tobytes()
                for v in SPECIAL:
                    assert float_bits(d.eval(v, z)) == float_bits(p(v))

    @pytest.mark.parametrize("zc", [0.5, -1e-300, math.inf])
    def test_nonzero_z_coefficient_adds_zc_z(self, zc):
        # f is p(y) + zc * z bitwise, at every pair of special values
        coeffs = (0.0, -1.0, 0.0, -1.0)
        d, p = fp.poly_driver(coeffs, z_coeff=zc), _horner(coeffs)
        y, z = np.meshgrid(SPECIAL, SPECIAL)
        with np.errstate(all="ignore"):
            assert d.eval(y, z).tobytes() == (p(y) + zc * z).tobytes()

    @pytest.mark.parametrize("rest", [(-1.0,), (2.0,), (0.0, 0.0, -1.0),
                                      (-1.0, 0.0, -1.0), (-1.0, -0.0, -1.0)])
    @pytest.mark.parametrize("c0", [0.0, -0.0, 0.5, -1.25])
    def test_zero_z_coefficient_root_keeps_the_fold(self, c0, rest):
        # with zc = 0 the root folds c0 where it folded c0 + 0 * z, so the
        # old root at z is the root of the driver whose constant is
        # c0 + 0 * z.  That constant differs from c0 only in the sign of
        # a zero: the bits agree at every finite z and m but one,
        # c0 = m = -0.0 at a z of positive sign, where the root is now
        # -0.0 and was +0.0
        root = _implicit_root((c0,) + rest, 0.0)
        finite = [v for v in SPECIAL if math.isfinite(v)] + [-1e308, 3.5]
        m = np.array(finite)
        for z in finite:
            old = _implicit_root((c0 + 0.0 * z,) + rest, 0.0)
            for hh in (0.1, 1e-3):
                with np.errstate(all="ignore"):
                    got, want = root(m, z, hh), old(m, z, hh)
                moved = (float_bits(c0) == float_bits(-0.0)
                         and math.copysign(1.0, z) > 0.0)
                if moved:
                    keep = m.view(np.int64) != np.float64(-0.0).view(np.int64)
                    assert np.array_equal(got, want, equal_nan=True)
                    got, want = got[keep], want[keep]
                assert [float_key(v) for v in got] == \
                    [float_key(v) for v in want]

    @pytest.mark.parametrize("zc", [0.0, -0.0, 0.75])
    @pytest.mark.parametrize("c0", [0.0, -0.0, 0.5])
    @pytest.mark.parametrize("rest", [(-1.0,), (1.5,), (0.0, 0.0, -1.0),
                                      (-1.0, -0.0, -1.0), (0.5, 2.0, -0.5)])
    def test_root_is_the_plain_formula(self, c0, rest, zc):
        # the root computes its constants once per hh as 0-d arrays, takes
        # |Q|/2 as |Q/2| and skips adds of zeros whose sign it loses: the
        # bits of the formula written out in Python floats, at every
        # special m and z, -0.0 included, with hh changing between calls
        c1, c2, c3 = (rest + (0.0, 0.0))[:3]

        def plain(m, z, hh):
            fold = m + hh * (c0 + zc * z if zc else c0)
            if not c3:
                return fold / (1.0 - hh * c1)
            a, B = -hh * c3, c2 / c3
            C = np.float64(1.0 - hh * c1) / a
            P = C - B * B / 3.0
            nq = fold / a - B * (2.0 * B * B - 9.0 * C) / 27.0
            k = P * math.sqrt(P / 27.0) if P > 0.0 else math.nan
            s = np.hypot(0.5 * nq, k)
            u = np.cbrt(0.5 * np.abs(nq) + s)
            v = P / 3.0 / u
            return nq / (u * (u + v) + v * v) - B / 3.0

        root = _implicit_root((c0,) + rest, zc)
        m, z = (np.array(v).ravel() for v in np.meshgrid(SPECIAL, SPECIAL))
        with np.errstate(all="ignore"):
            for hh in (0.1, 1e-3, 0.1, 5e-324, 0.25):
                got, want = root(m, z, hh), plain(m, z, hh)
                assert got.tobytes() == want.tobytes()
                # a float m too, where hh c3 underflows to 0 as well
                for v, w in zip(SPECIAL, SPECIAL[::-1]):
                    assert float_bits(root(v, w, hh)) == \
                        float_bits(plain(np.float64(v), w, hh))

    def test_root_of_an_underflowing_cubic_is_nan(self):
        # hh c3 = 0.25 * -5e-324 underflows to 0: no start, no error
        root = fp.poly_driver((0.0, 0.0, 0.0, -5e-324)).root
        with np.errstate(all="ignore"):
            y0 = root(np.array([2.0, 0.5]), np.array([0.0, 1.0]), 0.25)
        assert np.isnan(y0).all()

    def test_rejects_unbounded_above(self):
        # p(y) = y^2 has p' unbounded above: no finite M_y exists
        with pytest.raises(ModelError):
            fp.poly_driver((0.0, 0.0, 1.0))

    def test_even_negative_leading_rejected(self):
        # p(y) = -y^2 has p' = -2y, still unbounded above
        with pytest.raises(ModelError):
            fp.poly_driver((0.0, 0.0, -1.0))

    def test_derivative_is_required(self):
        with pytest.raises(TypeError, match="dfdy"):
            fp.DriverSpec(eval=lambda y, z: -y, M_y=-1.0, L_y=1.0, m=1,
                          L_z=0.0, f00=0.0)

    def test_declared_my_override(self):
        d = fp.poly_driver((0.0, -1.0))._replace(M_y=-0.5)
        assert d.M_y == -0.5
        assert d.eval(1.0, 0.0) == -1.0

    @given(
        coeffs=st.lists(
            st.floats(-3, 3, allow_nan=False), min_size=1, max_size=6
        ),
        y=st.floats(-10, 10, allow_nan=False),
    )
    @settings(max_examples=200, deadline=None)
    def test_horner_matches_numpy(self, coeffs, y):
        ours = _horner(tuple(coeffs))(y)
        ref = float(np.polynomial.polynomial.polyval(y, coeffs))
        assert ours == pytest.approx(ref, rel=1e-12, abs=1e-12)

    def test_horner_array_matches_scalar(self):
        p = _horner((0.5, -1.0, 0.0, -2.0))
        ys = np.array([-2.0, -0.5, 0.0, 1.0, 3.0])
        assert [float(v) for v in p(ys)] == [p(float(y)) for y in ys]

    @pytest.mark.parametrize("coeffs", [(0.0, 0.0, 0.0, -1.0), (0.0, -1.0)])
    def test_driver_array_matches_scalar_at_infinity(self, coeffs):
        # -y^3 and -y: arrays and floats agree elementwise, inf included
        d = fp.poly_driver(coeffs)
        ys = [math.inf, -math.inf, 1e200, 2.0]
        with np.errstate(over="ignore"):
            got = d.eval(np.array(ys), 0.0)
        np.testing.assert_array_equal(got, [d.eval(y, 0.0) for y in ys])

    def test_horner_scalar_infinity(self):
        # -y^3 at y=inf must give -inf, not nan
        assert _horner((0.0, 0.0, 0.0, -1.0))(math.inf) == -math.inf
        assert math.isnan(_horner((0.0, 1.0))(math.nan))

    @given(
        coeffs=st.lists(st.one_of(st.sampled_from(SPECIAL), st.floats()),
                        min_size=1, max_size=7),
        c0=st.sampled_from([0.0, -0.0, 1.0, math.nan]),
        ys=st.lists(st.floats(), max_size=8),
    )
    @settings(max_examples=500, deadline=None)
    def test_horner_is_bitwise_plain_horner(self, coeffs, c0, ys):
        # skipping the add of a zero coefficient changes no bit: at +-0,
        # +-inf, nan and subnormal y and coefficients, with a +-0.0
        # constant term, on arrays and on Python floats
        cs = [c0] + coeffs
        p = _horner(cs)
        y = np.array(ys + SPECIAL)
        with np.errstate(all="ignore"):
            assert p(y).tobytes() == plain_horner(cs, y).tobytes()
        # Python floats: CPython's adds pick either nan of nan + nan
        for v in ys + SPECIAL:
            assert float_key(p(v)) == float_key(plain_horner(cs, v))

    def test_horner_keeps_its_adds_before_a_negative_zero_constant(self):
        # -y^2 + c0 at y = 0.0: the plain Horner's + 0.0 turns -1 * 0.0
        # into +0.0, so with c0 = -0.0 the result is +0.0, and a skipped
        # add would give -0.0; with c0 = +0.0 the add is skipped
        for c0 in (-0.0, 0.0):
            p = _horner((c0, 0.0, -1.0))
            assert float_bits(p(0.0)) == float_bits(0.0)
            assert p(np.array([0.0])).tobytes() == float_bits(0.0)


class TestTerminalFunctions:
    def test_quadratic(self):
        g = fp.quadratic_g()
        assert g(3.0) == 9.0
        assert list(g(np.array([-2.0, 2.0]))) == [4.0, 4.0]

    def test_clamp(self):
        g = fp.lipschitz_clamp_g(-7.0, 7.0)
        assert g(100.0) == 7.0
        assert g(-100.0) == -7.0
        assert g(3.0) == 3.0

    def test_clamp_slope(self):
        g = fp.lipschitz_clamp_g(-1.0, 1.0, slope=2.0)
        assert g(0.25) == 0.5
        assert g(10.0) == 1.0

    def test_clamp_bad_bounds(self):
        with pytest.raises(ModelError):
            fp.lipschitz_clamp_g(1.0, -1.0)

    def test_constant(self):
        g = fp.constant_g(4.0)
        assert g(123.0) == 4.0


class TestModelSpecs:
    def test_experiment1_fields(self):
        m = fp.experiment1_model()
        assert m.T == 1.0 and m.x0 == 0.0
        assert m.sigma_const == 1.5 and m.b_const == 0.0
        assert m.has_constant_coefficients
        assert m.g(2.0) == 4.0
        assert m.driver.eval(2.0, 0.0) == -8.0

    def test_experiment2_fields(self):
        m = fp.experiment2_model()
        assert m.sigma_const == 2.5
        assert m.g(100.0) == 7.0
        assert m.driver.eval(1.0, 0.0) == -2.0
        assert m.driver.M_y == -1.0

    def test_linear_model(self):
        m = fp.linear_model()
        assert m.driver.eval(3.0, 0.0) == -3.0
        assert m.driver.m == 1


class TestRecords:
    """Records are immutable named tuples, and no copy skips their checks."""

    @pytest.mark.parametrize("copy, error", [
        (lambda: fp.TimeGrid(T=1.0, N=10)._replace(N=0),
         fp.ConfigurationError),
        (lambda: fp.TruncationConfig(R0=10.0, alpha=0.25)._replace(alpha=0.0),
         fp.ConfigurationError),
        (lambda: fp.SpatialGrid(x0=0.0, eta=0.1, M=4)._replace(eta=math.inf),
         fp.ConfigurationError),
        (lambda: fp.poly_driver((0.0, -1.0))._replace(L_z=-1.0), ModelError),
        (lambda: fp.lipschitz_clamp_g(-1.0, 1.0)._replace(lo=2.0), ModelError),
        (lambda: fp.linear_model()._replace(T=0.0), ModelError),
        (lambda: fp.SchemeConfig(kind="implicit_euler")._replace(theta=0.5),
         SchemeError),
    ], ids=["TimeGrid", "TruncationConfig", "SpatialGrid", "DriverSpec",
            "ClampG", "ModelSpec", "SchemeConfig"])
    def test_replace_runs_the_checks(self, copy, error):
        with pytest.raises(error):
            copy()

    def test_fields_are_read_only(self):
        tg = fp.TimeGrid(T=1.0, N=10)
        with pytest.raises(AttributeError):
            tg.N = 5
        with pytest.raises(AttributeError):
            tg.extra = 1
        with pytest.raises(AttributeError):
            fp.quadratic_g().lipschitz = 1.0

    def test_reprs_and_class_attributes(self):
        assert repr(fp.TimeGrid(T=1.0, N=10)) == "TimeGrid(T=1.0, N=10)"
        assert repr(fp.TruncationConfig(R0=2.0, alpha=0.25)) == (
            "TruncationConfig(R0=2.0, alpha=0.25)")
        assert repr(fp.quadratic_g()) == "QuadraticG()"
        assert fp.quadratic_g() == fp.quadratic_g()
        g = fp.constant_g(4.0)
        assert repr(g) == "ConstantG(c=4.0)"
        assert g._fields == ("c",) and g.lipschitz == 0.0


class TestValidateModel:
    @pytest.mark.parametrize(
        "maker",
        [fp.experiment1_model, fp.experiment2_model, fp.linear_model],
    )
    def test_presets_pass(self, maker):
        report = fp.validate_model(maker())
        failed = [c.name for c in report.checks if not c.passed]
        assert failed == []

    def test_wrong_declared_my_caught(self):
        # true M_y for -y^3 is 0; declaring -2 must fail the
        # monotonicity probe near the origin
        bad = fp.poly_driver((0.0, 0.0, 0.0, -1.0))._replace(M_y=-2.0)
        m = fp.make_constant_model(
            T=1.0, x0=0.0, b=0.0, sigma=1.5, g=fp.quadratic_g(), driver=bad
        )
        report = fp.validate_model(m)
        failing = {c.name for c in report.checks if not c.passed}
        assert "mon" in failing

    def test_wrong_lz_caught(self):
        d = fp.poly_driver((0.0, -1.0), z_coeff=1.0)
        lying = d._replace(L_z=0.1)
        m = fp.make_constant_model(
            T=1.0, x0=0.0, b=0.0, sigma=1.5, g=fp.quadratic_g(), driver=lying
        )
        report = fp.validate_model(m)
        failing = {c.name for c in report.checks if not c.passed}
        assert "reg_z" in failing


class WrongLipschitzG:
    """clamp(x, -7, 7), whose slope 1 its declared constant understates."""

    lipschitz = 0.5

    def __call__(self, x):
        return np.clip(x, -7.0, 7.0)


def _model(g, driver):
    return fp.make_constant_model(T=1.0, x0=0.0, b=0.0, sigma=1.5, g=g,
                                  driver=driver)


REPORT_MODELS = {
    "experiment1": fp.experiment1_model,
    "experiment2": fp.experiment2_model,
    "linear": fp.linear_model,
    "lying_my": lambda: _model(fp.quadratic_g(), fp.poly_driver(
        (0.0, 0.0, 0.0, -1.0))._replace(M_y=-2.0)),
    "lying_lz": lambda: _model(fp.quadratic_g(), fp.poly_driver(
        (0.0, -1.0), z_coeff=1.0)._replace(L_z=0.1)),
    "lying_f00": lambda: _model(fp.quadratic_g(), fp.poly_driver(
        (5.0, -1.0))._replace(f00=0.0)),
    "wrong_lipschitz_g": lambda: _model(
        WrongLipschitzG(), fp.poly_driver((0.0, -1.0))),
    "clamp_deg5": lambda: _model(
        fp.lipschitz_clamp_g(-1.0, 1.0, 2.0),
        fp.poly_driver((0.0, -1.0, 0.0, 0.0, 0.0, -1.0))),
    "const_g": lambda: _model(
        fp.constant_g(4.0), fp.poly_driver((0.0, 0.0, 0.0, -1.0))),
    # every constant of the growth bounds nonzero; the worst growth
    # residual falls on the y f bound here and on the |f| bound next
    "young_bound": lambda: _model(fp.quadratic_g(), fp.poly_driver(
        (1.5, -0.5, 0.0, -1.0), z_coeff=0.75)),
    "abs_bound": lambda: _model(fp.quadratic_g(), fp.poly_driver(
        (-2.51, -0.77, 0.0, -1.0), z_coeff=1.7)),
}

# (name, passed, float.hex(worst), witness) of every check; a change to
# a bound's formula, or to the order of its additions, moves a bit
PINNED_REPORTS = {
    "young_bound": [
        ("mon", True, "-0x1.13a499f3d9351p-30",
         (0.1576991748152068, 0.1577052825674491, -17.055835313203715)),
        ("reg_y", True, "-0x1.14fad53921dadp-23",
         (23.581388185994, 23.581388058014465, -9.530769328739552)),
        ("reg_z", True, "-0x1.0f54be826d695p-30",
         (40.325750367134106, 20.254740630673496, 20.37521237776332)),
        ("lipschitz_g", True, "0x1.8d09288332d1ep+6", ()),
        ("growth", True, "-0x1.40a8dc7e99cc3p-1",
         (0.4890470994723728, 0.19765411584558024)),
        ("coefficients_finite", True, "0x0.0p+0", ()),
    ],
    "abs_bound": [
        ("mon", True, "-0x1.13a499f3e77f5p-30",
         (0.1576991748152068, 0.1577052825674491, -17.055835313203715)),
        ("reg_y", True, "-0x1.958daa7243b5ap-24",
         (23.581388185994, 23.581388058014465, -9.530769328739552)),
        ("reg_z", True, "-0x1.0f80be826d695p-30",
         (42.29788833990824, -27.589482850476088, -27.048874761749175)),
        ("lipschitz_g", True, "0x1.8d09288332d1ep+6", ()),
        ("growth", True, "-0x1.50ed63e3f3affp+0",
         (0.35542434961826075, -15.48934269808342)),
        ("coefficients_finite", True, "0x0.0p+0", ()),
    ],
    "experiment1": [
        ("mon", True, "-0x1.13a499f3de12cp-30",
         (0.1576991748152068, 0.1577052825674491, -17.055835313203715)),
        ("reg_y", True, "-0x1.9e65d53921dadp-23",
         (23.581388185994, 23.581388058014465, -9.530769328739552)),
        ("reg_z", True, "-0x1.12e0be826d695p-30",
         (-11.87285383664305, -31.556987041465746, -39.683125931427156)),
        ("lipschitz_g", True, "0x1.8d09288332d1ep+6", ()),
        ("growth", True, "-0x1.ec8b07516fa23p-18",
         (0.0027089499781141058, -28.035997394181322)),
        ("coefficients_finite", True, "0x0.0p+0", ()),
    ],
    "experiment2": [
        ("mon", True, "-0x1.13a499f3de02cp-30",
         (0.1576991748152068, 0.1577052825674491, -17.055835313203715)),
        ("reg_y", True, "-0x1.171faa7243b5ap-24",
         (23.581388185994, 23.581388058014465, -9.530769328739552)),
        ("reg_z", True, "-0x1.12e0be826d695p-30",
         (-11.87285383664305, -31.556987041465746, -39.683125931427156)),
        ("lipschitz_g", True, "0x0.0p+0",
         (-6.855684529787354, -1.0245498192086977)),
        ("growth", True, "-0x1.ec8b07516fa23p-18",
         (0.0027089499781141058, -28.035997394181322)),
        ("coefficients_finite", True, "0x0.0p+0", ()),
    ],
    "linear": [
        ("mon", True, "-0x1.12e0be826d695p-30",
         (-21.065429951300985, -20.90125382799357, -13.9008855660542)),
        ("reg_y", True, "-0x1.13e85f3e826d7p-22",
         (23.581388185994, 23.581388058014465, -9.530769328739552)),
        ("reg_z", True, "-0x1.12e0be826d695p-30",
         (-11.87285383664305, -31.556987041465746, -39.683125931427156)),
        ("lipschitz_g", True, "0x1.8d09288332d1ep+6", ()),
        ("growth", True, "-0x1.ec8a1a792e299p-18",
         (0.0027089499781141058, -28.035997394181322)),
        ("coefficients_finite", True, "0x0.0p+0", ()),
    ],
    "lying_my": [
        ("mon", False, "0x1.5b98f44e57b39p+1",
         (1.2853656985498674, -0.6055420526536182, -49.60837021210409)),
        ("reg_y", True, "-0x1.9e65d53921dadp-23",
         (23.581388185994, 23.581388058014465, -9.530769328739552)),
        ("reg_z", True, "-0x1.12e0be826d695p-30",
         (-11.87285383664305, -31.556987041465746, -39.683125931427156)),
        ("lipschitz_g", True, "0x1.8d09288332d1ep+6", ()),
        ("growth", False, "0x1.fffee1053ad11p-3",
         (-0.7081397491901953, 2.942688001985516)),
        ("coefficients_finite", True, "0x0.0p+0", ()),
    ],
    "lying_lz": [
        ("mon", True, "-0x1.12e0be625da95p-30",
         (49.265828144598345, 49.26484967850987, -23.18276793039331)),
        ("reg_y", True, "-0x1.13e85f7e826d7p-22",
         (23.581388185994, 23.581388058014465, -9.530769328739552)),
        ("reg_z", False, "0x1.64902977b2977p+6",
         (-12.401926936036034, 49.623030914335686, -49.42228374802653)),
        ("lipschitz_g", True, "0x1.8d09288332d1ep+6", ()),
        ("growth", False, "0x1.302c96ee976cap+9",
         (23.845924735678636, 49.87922169339072)),
        ("coefficients_finite", True, "0x0.0p+0", ()),
    ],
    "lying_f00": [
        ("mon", True, "-0x1.12e0be721de95p-30",
         (-27.921114481088694, -27.920118955522693, 2.0862310607540735)),
        ("reg_y", True, "-0x1.13e85f3e826d7p-22",
         (23.581388185994, 23.581388058014465, -9.530769328739552)),
        ("reg_z", True, "-0x1.12e0be826d695p-30",
         (-11.87285383664305, -31.556987041465746, -39.683125931427156)),
        ("lipschitz_g", True, "0x1.8d09288332d1ep+6", ()),
        ("growth", False, "0x1.8fffbf8b31783p+2",
         (2.5039200221726787, 42.93976116882732)),
        ("coefficients_finite", True, "0x0.0p+0", ()),
    ],
    "wrong_lipschitz_g": [
        ("mon", True, "-0x1.12e0be826d695p-30",
         (-21.065429951300985, -20.90125382799357, -13.9008855660542)),
        ("reg_y", True, "-0x1.13e85f3e826d7p-22",
         (23.581388185994, 23.581388058014465, -9.530769328739552)),
        ("reg_z", True, "-0x1.12e0be826d695p-30",
         (-11.87285383664305, -31.556987041465746, -39.683125931427156)),
        ("lipschitz_g", False, "0x1.0000000000000p-1",
         (-6.855684529787354, -1.0245498192086977)),
        ("growth", True, "-0x1.ec8a1a792e299p-18",
         (0.0027089499781141058, -28.035997394181322)),
        ("coefficients_finite", True, "0x0.0p+0", ()),
    ],
    "clamp_deg5": [
        ("mon", True, "-0x1.12e0c493fb095p-30",
         (0.0027089499781141058, 0.0035363219298742477, -28.035997394181322)),
        ("reg_y", True, "-0x1.9d34627f04dadp-23",
         (23.581388185994, 23.581388058014465, -9.530769328739552)),
        ("reg_z", True, "-0x1.12e0be826d695p-30",
         (-11.87285383664305, -31.556987041465746, -39.683125931427156)),
        ("lipschitz_g", True, "-0x1.7d52ba31bf230p-3",
         (-0.5745169993133459, 0.2259107384361414)),
        ("growth", True, "-0x1.ec8a1a79a0117p-18",
         (0.0027089499781141058, -28.035997394181322)),
        ("coefficients_finite", True, "0x0.0p+0", ()),
    ],
    "const_g": [
        ("mon", True, "-0x1.13a499f3de12cp-30",
         (0.1576991748152068, 0.1577052825674491, -17.055835313203715)),
        ("reg_y", True, "-0x1.9e65d53921dadp-23",
         (23.581388185994, 23.581388058014465, -9.530769328739552)),
        ("reg_z", True, "-0x1.12e0be826d695p-30",
         (-11.87285383664305, -31.556987041465746, -39.683125931427156)),
        ("lipschitz_g", True, "0x0.0p+0",
         (-11.87285383664305, -22.336061091023176)),
        ("growth", True, "-0x1.ec8b07516fa23p-18",
         (0.0027089499781141058, -28.035997394181322)),
        ("coefficients_finite", True, "0x0.0p+0", ()),
    ],
}


@pytest.mark.parametrize("name", sorted(REPORT_MODELS))
def test_full_report_pinned(name):
    report = fp.validate_model(REPORT_MODELS[name]())
    assert [(c.name, c.passed, float.hex(c.worst), c.witness)
            for c in report.checks] == PINNED_REPORTS[name]
