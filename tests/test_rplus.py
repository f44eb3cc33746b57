"""Tests for the one-dimensional positive-real geometry."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from codanorm import (
    BadIntervalError,
    NonPositivePartError,
    PositiveValue,
    as_positive,
    interval_measure,
    rp_add,
    rp_coord,
    rp_coord_inv,
    rp_distance,
    rp_inner,
    rp_measure_ratio,
    rp_norm,
    rp_scale,
)

# Strategy over well-conditioned positive values, parameterized by their log
# coordinate so extreme magnitudes stay exactly representable.
logs = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)
scalars = st.floats(min_value=-20.0, max_value=20.0, allow_nan=False)


def pv(log_coord):
    return PositiveValue.from_log(log_coord)


class TestPositiveValue:
    def test_rejects_nonpositive_and_nonfinite(self):
        for bad in (0.0, -1.0, float("nan"), float("inf"), -math.inf):
            with pytest.raises(NonPositivePartError):
                PositiveValue(bad)

    def test_value_log_round_trip(self):
        x = PositiveValue(37.5)
        assert x.log == math.log(37.5)
        assert PositiveValue.from_log(x.log).value == pytest.approx(37.5, rel=1e-15)

    def test_from_log_never_overflows(self):
        # The canonical representation is the log coordinate, so a value whose
        # exponential overflows float64 is still a legal vector.
        huge = PositiveValue.from_log(1000.0)
        assert rp_norm(huge) == 1000.0
        assert rp_distance(huge, rp_scale(2.0, huge)) == 1000.0

    def test_equality_is_log_equality_within_1e12(self):
        x = PositiveValue(2.0)
        assert x == PositiveValue.from_log(x.log + 5e-13)
        assert x != PositiveValue.from_log(x.log + 5e-12)
        assert x != "2.0"

    def test_as_positive_passthrough_and_coercion(self):
        x = PositiveValue(3.0)
        assert as_positive(x) is x
        assert as_positive(3).log == math.log(3.0)


class TestOperations:
    def test_add_is_product(self):
        assert rp_add(2, 3).value == pytest.approx(6.0, rel=1e-15)

    def test_add_neutral_element(self):
        x = PositiveValue(8.25)
        assert rp_add(x, 1) == x

    def test_add_inverse_element(self):
        assert rp_add(5, PositiveValue(1 / 5)) == PositiveValue(1.0)

    def test_scale_is_power(self):
        assert rp_scale(2, 4).value == pytest.approx(16.0, rel=1e-15)
        assert rp_scale(0, 7) == PositiveValue(1.0)
        assert rp_scale(-1, 2).value == pytest.approx(0.5, rel=1e-15)

    def test_inner_product_values(self):
        assert rp_inner(math.e, math.e) == pytest.approx(1.0, rel=1e-15)
        assert rp_inner(1, 123.4) == 0.0
        # ln(e^2)*ln(e^3) = 6, evaluated through exact log coordinates
        assert rp_inner(pv(2.0), pv(3.0)) == pytest.approx(6.0, rel=1e-15)

    def test_norm_is_abs_log(self):
        assert rp_norm(pv(-2.5)) == 2.5

    def test_distance_rain_gauges(self):
        # The pair {5, 10} is relatively far apart while {100, 105} is
        # relatively close, although the absolute gap is the same order.
        assert rp_distance(5, 10) == pytest.approx(math.log(2), abs=1e-12)
        assert rp_distance(100, 105) == pytest.approx(math.log(1.05), abs=1e-12)
        assert rp_distance(5, 10) > rp_distance(100, 105)

    def test_distance_identity(self):
        x = PositiveValue(0.37)
        assert rp_distance(x, x) == 0.0

    def test_coord_pair(self):
        assert rp_coord(1) == 0.0
        assert rp_coord_inv(0.0) == PositiveValue(1.0)
        assert rp_coord(pv(2.5)) == 2.5

    def test_measure_ratio(self):
        assert rp_measure_ratio(1) == 1.0
        assert rp_measure_ratio(2) == 0.5

    def test_measure_ratio_past_the_float_range_is_inf(self):
        # 1/x passes the largest float below x = 1/1.8e308, a subnormal x
        assert rp_measure_ratio(1e-310) == math.inf
        assert rp_measure_ratio(5e-324) == math.inf
        assert rp_measure_ratio(1e-308) == pytest.approx(1e308, rel=1e-12)

    def test_interval_measure_against_quadrature(self):
        # lambda_+(a, b) is the integral of the density ratio 1/x over (a, b).
        val, err = integrate.quad(lambda t: 1.0 / t, 1.0, math.e)
        assert interval_measure(1.0, math.e) == pytest.approx(val, abs=1e-10)
        assert interval_measure(1.0, math.e) == pytest.approx(1.0, abs=1e-12)
        val2, _ = integrate.quad(lambda t: 1.0 / t, 0.3, 7.1)
        assert interval_measure(0.3, 7.1) == pytest.approx(val2, abs=1e-10)

    def test_interval_measure_rejects_bad_interval(self):
        with pytest.raises(BadIntervalError):
            interval_measure(2.0, 2.0)
        with pytest.raises(BadIntervalError):
            interval_measure(3.0, 1.0)
        with pytest.raises(BadIntervalError):
            interval_measure(-1.0, 1.0)


class TestVectorSpaceInvariants:
    @given(logs, logs, logs)
    @settings(max_examples=200)
    def test_translation_invariance(self, lx, ly, lz):
        x, y, z = pv(lx), pv(ly), pv(lz)
        d0 = rp_distance(x, y)
        d1 = rp_distance(rp_add(z, x), rp_add(z, y))
        assert d1 == pytest.approx(d0, rel=1e-12, abs=1e-12)

    @given(scalars, logs, logs)
    @settings(max_examples=200)
    def test_scaling_homogeneity(self, a, lx, ly):
        x, y = pv(lx), pv(ly)
        d1 = rp_distance(rp_scale(a, x), rp_scale(a, y))
        assert d1 == pytest.approx(abs(a) * rp_distance(x, y), rel=1e-12, abs=1e-12)

    @given(logs, logs)
    @settings(max_examples=200)
    def test_coordinate_is_additive_homomorphism(self, lx, ly):
        x, y = pv(lx), pv(ly)
        assert rp_coord(rp_add(x, y)) == pytest.approx(
            rp_coord(x) + rp_coord(y), rel=1e-12, abs=1e-12
        )

    @given(scalars, logs)
    @settings(max_examples=200)
    def test_coordinate_respects_scaling(self, a, lx):
        x = pv(lx)
        assert rp_coord(rp_scale(a, x)) == pytest.approx(
            a * rp_coord(x), rel=1e-12, abs=1e-12
        )

    @given(logs)
    @settings(max_examples=200)
    def test_inner_equals_squared_distance_to_identity(self, lx):
        x = pv(lx)
        assert rp_inner(x, x) == pytest.approx(
            rp_distance(x, 1) ** 2, rel=1e-12, abs=1e-12
        )

    @given(logs, logs, scalars, scalars)
    @settings(max_examples=200)
    def test_inner_bilinearity(self, lx, ly, a, b):
        x, y = pv(lx), pv(ly)
        w = pv(1.0)
        lhs = rp_inner(rp_add(rp_scale(a, x), rp_scale(b, y)), w)
        rhs = a * rp_inner(x, w) + b * rp_inner(y, w)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-9)

    def test_coord_inverse_pair(self):
        for c in np.linspace(-30, 30, 13):
            assert rp_coord(rp_coord_inv(c)) == pytest.approx(c, abs=1e-12)
