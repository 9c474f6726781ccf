import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fptree as fp
from fptree.model import ModelError, with_declared_my
from fptree.model import _horner


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
        d = with_declared_my(fp.poly_driver((0.0, -1.0)), -0.5)
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


class TestGrowthConstants:
    def test_documented_example(self):
        d = fp.poly_driver((2.0, -1.0), z_coeff=3.0)
        # f(y, z) = 2 - y + 3z: f00=2, L_y=1, L_z=3, M_y=-1
        gc = fp.growth_constants(d, nu=0.5)
        assert gc.K == 3.0
        assert gc.K_y == 2.0
        assert gc.K_z == 3.0
        assert gc.M == 4.0
        assert gc.My_hat == -0.5
        assert gc.M_z == 9.0

    def test_nu_must_be_positive(self):
        d = fp.poly_driver((0.0, -1.0))
        with pytest.raises(ModelError):
            fp.growth_constants(d, nu=0.0)


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
        bad = with_declared_my(fp.poly_driver((0.0, 0.0, 0.0, -1.0)), -2.0)
        m = fp.make_constant_model(
            T=1.0, x0=0.0, b=0.0, sigma=1.5, g=fp.quadratic_g(), driver=bad
        )
        report = fp.validate_model(m)
        failing = {c.name for c in report.checks if not c.passed}
        assert "mon" in failing

    def test_wrong_lz_caught(self):
        from dataclasses import replace

        d = fp.poly_driver((0.0, -1.0), z_coeff=1.0)
        lying = replace(d, L_z=0.1)
        m = fp.make_constant_model(
            T=1.0, x0=0.0, b=0.0, sigma=1.5, g=fp.quadratic_g(), driver=lying
        )
        report = fp.validate_model(m)
        failing = {c.name for c in report.checks if not c.passed}
        assert "reg_z" in failing
