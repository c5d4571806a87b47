"""Bessel evaluation: closed forms, series, asymptotics, zeros."""

import math

import mpmath as mp
import numpy as np
import pytest

from ibflow import bessel_j, bessel_j_ratio, bessel_zeros

from conftest import (J1_AT_1, J1_FIRST_ZERO, bessel_zero_oracle,
                      series_j_oracle)

ALL_ORDERS = [k / 2 for k in range(0, 21)]


class TestSpotValues:
    def test_half_order_at_pi(self):
        # J_{1/2}(x) = sqrt(2/(pi x)) sin x vanishes at pi
        assert abs(bessel_j(0.5, math.pi)) < 1e-12

    def test_order_one_at_zero(self):
        assert bessel_j(1, 0.0) == 0.0
        assert bessel_j(0, 0.0) == 1.0

    def test_three_halves(self):
        # closed form sqrt(2/(pi x)) (sin x / x - cos x)
        x = 2.0
        expected = math.sqrt(2 / (math.pi * x)) * (math.sin(x) / x - math.cos(x))
        assert bessel_j(1.5, x) == pytest.approx(expected, rel=1e-12)
        assert bessel_j(1.5, x) == pytest.approx(0.4912937786871623, rel=1e-12)

    def test_first_zero_of_j1(self):
        zero = bessel_zero_oracle(1, 3.5, 4.0)
        assert zero == pytest.approx(J1_FIRST_ZERO, abs=1e-11)
        assert abs(bessel_j(1, zero)) < 1e-8

    def test_j1_at_one(self):
        assert bessel_j(1, 1.0) == pytest.approx(J1_AT_1, rel=1e-13)


class TestAgainstSeriesOracle:
    @pytest.mark.parametrize("nu", ALL_ORDERS)
    def test_relative_accuracy_on_grid(self, nu):
        """1e-10 relative agreement with the high-precision series.

        Right at the zero crossings value-relative error is
        conditioning-dominated for any fixed-precision evaluation, so
        the scale floors at a few percent of the local oscillation
        amplitude there; absolute agreement at the zeros is checked by
        the zero-location and recurrence tests.
        """
        xs = np.linspace(0.1, 40.0, 173)
        mine = bessel_j(nu, xs)
        for x, got in zip(xs, mine):
            ref = series_j_oracle(nu, x)
            amp = math.sqrt(2.0 / (math.pi * max(x, 1.0)))
            scale = max(abs(ref), 0.03 * amp)
            assert abs(got - ref) / scale < 1e-10, (nu, x)

    def test_branch_seam_continuity(self):
        # Miller's recurrence below x = 20, Hankel's expansion above
        for nu in ALL_ORDERS:
            below = bessel_j(nu, 19.999999999)
            above = bessel_j(nu, 20.000000001)
            assert abs(below - above) < 1e-9
            ratio = bessel_j_ratio(nu, np.array([19.999999999, 20.000000001]))
            assert abs(ratio[0] - ratio[1]) < 1e-9 * 20.0 ** -nu


def _mp_j(nu, x):
    with mp.workdps(30):
        return mp.besselj(nu, x)


class TestAgainstMpmath:
    XS = np.linspace(0.0, 60.0, 601)

    @pytest.mark.parametrize("nu", ALL_ORDERS)
    def test_absolute_accuracy(self, nu):
        mine = bessel_j(nu, self.XS)
        worst = max(abs(got - float(_mp_j(nu, x)))
                    for x, got in zip(self.XS, mine))
        assert worst < 2e-15, nu

    @pytest.mark.parametrize("nu", ALL_ORDERS)
    def test_ratio_relative_accuracy(self, nu):
        # R = J / x^nu, where J is not near a zero
        mine = bessel_j_ratio(nu, self.XS)
        for x, got in zip(self.XS, mine):
            ref = _mp_j(nu, x)
            if x == 0.0:
                expect = 0.5 ** nu / math.gamma(nu + 1.0)
                assert abs(got / expect - 1.0) < 1e-13
            elif abs(ref) > 1e-2 or x < 1.0:
                expect = ref / mp.mpf(float(x)) ** nu
                assert abs(float((got - expect) / expect)) < 1e-13, (nu, x)


class TestRecurrence:
    @pytest.mark.parametrize("nu", [1.0, 1.5, 2.0, 3.5, 5.0, 7.5, 9.0])
    def test_three_term_recurrence(self, nu):
        # J_{nu-1}(x) + J_{nu+1}(x) = (2 nu / x) J_nu(x)
        xs = np.linspace(0.5, 40.0, 317)
        lhs = bessel_j(nu - 1, xs) + bessel_j(nu + 1, xs)
        rhs = (2 * nu / xs) * bessel_j(nu, xs)
        scale = np.maximum.reduce([np.abs(lhs), np.abs(rhs), np.full_like(xs, 1e-3)])
        assert np.max(np.abs(lhs - rhs) / scale) < 1e-9


class TestRatio:
    def test_limit_at_zero(self):
        for nu in (0.0, 0.5, 1.0, 2.5, 8.0):
            expected = 0.5**nu / math.gamma(nu + 1)
            assert bessel_j_ratio(nu, 0.0) == pytest.approx(expected, rel=1e-14)

    def test_matches_direct_quotient(self):
        rng = np.random.default_rng(2)
        for nu in (0.5, 1.0, 2.0, 4.5):
            xs = rng.uniform(0.2, 30.0, size=50)
            direct = bessel_j(nu, xs) / xs**nu
            assert np.allclose(bessel_j_ratio(nu, xs), direct, rtol=1e-12, atol=1e-18)

    def test_no_underflow_for_tiny_arguments(self):
        val = bessel_j_ratio(8.0, 1e-150)
        assert np.isfinite(val) and val > 0


class TestConsecutiveOrders:
    XS = np.array([[0.0, 0.01, 0.7, 5.3], [12.0, 19.99, 20.0, 45.0]])

    @pytest.mark.parametrize("nu", [0.0, 0.5, 1.0, 2.5, 7.0, 8.0])
    def test_rows_are_single_orders_bitwise(self, nu):
        rows = bessel_j_ratio(nu, self.XS, 3)
        assert rows.shape == (3,) + self.XS.shape
        for j in range(3):
            assert np.array_equal(rows[j], bessel_j_ratio(nu + j, self.XS))

    def test_scalar_argument(self):
        rows = bessel_j_ratio(1.5, 2.0, 2)
        assert rows.shape == (2,)
        assert rows[1] == bessel_j_ratio(2.5, 2.0)

    @pytest.mark.parametrize("nu", ALL_ORDERS)
    def test_value_independent_of_batch(self, nu):
        # one Miller start for every x < 20: a neighbour changes nothing
        alone = bessel_j_ratio(nu, np.array([0.01]))
        beside = bessel_j_ratio(nu, np.array([19.99, 0.01, 45.0]))
        assert alone[0] == beside[1]
        assert bessel_j(nu, 0.01) == bessel_j(nu, np.array([0.01, 19.99, 45.0]))[0]

    def test_orders_past_the_cap(self):
        for nu, count in ((9.0, 3), (10.0, 2), (1.0, 0)):
            with pytest.raises(ValueError):
                bessel_j_ratio(nu, 1.0, count)


class TestValidation:
    def test_negative_argument(self):
        with pytest.raises(ValueError):
            bessel_j(1, -0.5)

    def test_unsupported_order(self):
        for nu in (-1.0, 0.3, 10.5, 11.0):
            with pytest.raises(ValueError):
                bessel_j(nu, 1.0)

    def test_huge_argument(self):
        # J straight from Hankel's expansion, not R * x^nu (x^3 overflows)
        val = bessel_j(3, 1e250)
        assert np.isfinite(val) and 0.0 < abs(val) < 1e-125

    def test_vector_in_vector_out(self):
        xs = np.linspace(0, 5, 7)
        out = bessel_j(2, xs)
        assert out.shape == xs.shape
        assert isinstance(bessel_j(2, 1.0), float)


class TestZeros:
    def test_first_j1_zero_only(self):
        zeros = bessel_zeros(1.0, 4.0)
        assert len(zeros) == 1
        assert zeros[0] == pytest.approx(bessel_zero_oracle(1, 3.5, 4.0), abs=1e-10)

    def test_half_order_zeros_are_multiples_of_pi(self):
        zeros = bessel_zeros(0.5, 10.0)
        assert np.allclose(zeros, [math.pi, 2 * math.pi, 3 * math.pi], atol=1e-10)

    def test_no_zero_below_first(self):
        assert len(bessel_zeros(1.0, 1.0)) == 0

    def test_count_matches_spacing(self):
        # zeros of J_0 on (0, 50] are near (k - 1/4) pi: 16 of them
        zeros = bessel_zeros(0.0, 50.0)
        assert len(zeros) == 16
        assert np.all(np.diff(zeros) > 2.9)

    def test_upper_bound_guard(self):
        with pytest.raises(ValueError):
            bessel_zeros(1.0, 201.0)
