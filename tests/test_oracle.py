import math

import numpy as np
import pytest

import fptree as fp
from fptree.oracle import (
    FdSolverError, OracleError, _gaussian_expectation_of_g,
)


class TestLinearSolution:
    def test_closed_form_value(self):
        y_of_t, y0 = fp.linear_solution(-1.0, fp.linear_model())
        assert y0 == pytest.approx(2.25 * math.exp(-1.0), rel=1e-14)
        assert y_of_t(0.0) == y0
        # at t = T the value is E[g(X_T) | X_T] evaluated at the mean
        assert y_of_t(1.0) == pytest.approx(0.0, abs=1e-14)

    def test_decay_profile(self):
        y_of_t, _ = fp.linear_solution(-1.0, fp.linear_model())
        # e^{-(T-t)} * sigma^2 (T-t) at x0=0
        t = 0.4
        want = math.exp(-0.6) * 2.25 * 0.6
        assert y_of_t(t) == pytest.approx(want, rel=1e-12)


class TestGaussianExpectation:
    def test_quadratic(self):
        got = _gaussian_expectation_of_g(fp.quadratic_g(), mean=0.5, var=2.0)
        assert got == pytest.approx(0.25 + 2.0, rel=1e-14)

    def test_constant(self):
        got = _gaussian_expectation_of_g(fp.constant_g(3.0), mean=1.0, var=5.0)
        assert got == 3.0

    def test_clamp_matches_quadrature(self):
        g = fp.lipschitz_clamp_g(-7.0, 7.0)
        mean, var = 0.3, 6.25
        got = _gaussian_expectation_of_g(g, mean=mean, var=var)
        xs = np.linspace(mean - 12 * math.sqrt(var), mean + 12 * math.sqrt(var), 400001)
        pdf = np.exp(-((xs - mean) ** 2) / (2 * var)) / math.sqrt(2 * math.pi * var)
        want = float(np.trapezoid(np.clip(xs, -7.0, 7.0) * pdf, xs))
        assert got == pytest.approx(want, abs=1e-10)


class TestFdSolve:
    def test_zero_driver_heat_value(self):
        m = fp.make_constant_model(
            T=1.0, x0=0.0, b=0.0, sigma=1.5,
            g=fp.quadratic_g(), driver=fp.poly_driver((0.0,)),
        )
        v = fp.fd_solve(m, dx=0.02).value_at(0.0, 0.0)
        assert abs(v - 2.25) / 2.25 <= 1e-3

    def test_linear_driver_value(self):
        v = fp.fd_solve(fp.linear_model(), dx=0.02).value_at(0.0, 0.0)
        want = 2.25 * math.exp(-1.0)
        assert abs(v - want) / want <= 1e-3

    def test_rejects_degenerate_sigma(self):
        m = fp.make_constant_model(
            T=1.0, x0=0.0, b=0.0, sigma=0.0,
            g=fp.quadratic_g(), driver=fp.poly_driver((0.0,)),
        )
        with pytest.raises(OracleError):
            fp.fd_solve(m)

    @pytest.mark.parametrize("sigma, snapshots", [(30.0, 1), (1.5, 2 ** 20),
                                                  (1e200, 1)])
    def test_oversized_march_raises_before_it_starts(self, sigma, snapshots):
        # 4.5 million steps at sigma = 30; a step count rounded up to a
        # million snapshots; at sigma = 1e200 a grid that could not be
        # allocated and a diffusion bound that underflows to 0
        m = fp.make_constant_model(
            T=1.0, x0=0.0, b=0.0, sigma=sigma,
            g=fp.quadratic_g(), driver=fp.poly_driver((0.0, -1.0)),
        )
        with pytest.raises(FdSolverError, match="point-steps fd_solve allows"):
            fp.fd_solve(m, dx=0.02, snapshots=snapshots)

    def test_snapshots_interpolate_in_time(self):
        pde = fp.fd_solve(fp.linear_model(), dx=0.05, snapshots=4)
        v_mid = pde.value_at(0.5, 0.0)
        want = math.exp(-0.5) * 2.25 * 0.5
        assert v_mid == pytest.approx(want, rel=5e-3)

    def test_value_at_takes_a_float_or_an_array(self):
        pde = fp.fd_solve(fp.linear_model(), dx=0.05, snapshots=4)
        xs = np.array([pde.xs[0], -0.33, 0.0, 0.071, pde.xs[-1]])
        got = pde.value_at(0.25, xs)
        assert isinstance(got, np.ndarray)
        assert got.tolist() == [pde.value_at(0.25, x) for x in xs.tolist()]
        assert isinstance(pde.value_at(0.25, 0.0), float)
        for bad in (np.append(xs, pde.xs[-1] + 0.01), np.array([math.nan])):
            with pytest.raises(OracleError, match="outside the PDE domain"):
                pde.value_at(0.25, bad)
        with pytest.raises(OracleError, match="not one of the stored"):
            pde.value_at(0.3, xs)


class TestProxyReference:
    def test_fields_and_average(self):
        trunc = fp.TruncationConfig(R0=2.0, alpha=0.249)
        proxy = fp.proxy_reference(fp.experiment1_model(), trunc, N=40)
        assert proxy.N == 40
        assert proxy.value == pytest.approx(
            0.5 * (proxy.implicit_y0 + proxy.fp_y0), rel=1e-15
        )

    def test_zero_driver_legs_coincide(self):
        m = fp.make_constant_model(
            T=1.0, x0=0.0, b=0.0, sigma=1.5,
            g=fp.quadratic_g(), driver=fp.poly_driver((0.0,)),
        )
        trunc = fp.TruncationConfig(R0=1000.0, alpha=0.1)
        proxy = fp.proxy_reference(m, trunc, N=24)
        assert proxy.implicit_y0 == pytest.approx(proxy.fp_y0, abs=1e-12)
        assert proxy.value == pytest.approx(2.25, rel=1e-12)

    def test_linear_within_order_h_of_closed_form(self):
        trunc = fp.TruncationConfig(R0=1000.0, alpha=0.1)
        proxy = fp.proxy_reference(fp.linear_model(), trunc, N=120)
        want = 2.25 * math.exp(-1.0)
        assert abs(proxy.value - want) <= 2.0 / 120

    def test_deterministic(self):
        trunc = fp.TruncationConfig(R0=2.0, alpha=0.249)
        a = fp.proxy_reference(fp.experiment1_model(), trunc, N=30)
        b = fp.proxy_reference(fp.experiment1_model(), trunc, N=30)
        assert a == b
