"""Oracle tests for the numpy distribution functions of ``codanorm._special`` and
the interval and box probabilities built on its normal mass: against mpmath at 50
digits, and against scipy."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import special, stats

from codanorm import (
    LognormalLaw,
    NormalOnRPlus,
    NormalOnSimplex,
    probability_of_box,
    probability_of_interval,
    with_lebesgue_reference,
)
from codanorm._special import _erfc_half, chdtr, ndtr, ndtri, normal_mass, stdtrit

mpmath.mp.dps = 50


def _ndtr_exact(z):
    return float(mpmath.ncdf(mpmath.mpf(float(z))))


def _chdtr_exact(d, x):
    return float(mpmath.gammainc(mpmath.mpf(d) / 2, 0, mpmath.mpf(float(x)) / 2,
                                 regularized=True))


def _t_quantile_error(nu, p, t):
    """Relative error of ``t`` as the ``p`` quantile of t with ``nu`` degrees of freedom:
    one Newton step at 50 digits, ``(F(t) - p) / (f(t) t)``, exact to second order."""
    nu, t = mpmath.mpf(nu), mpmath.mpf(t)
    cdf = mpmath.betainc(nu / 2, mpmath.mpf(1) / 2, 0, nu / (nu + t * t), regularized=True) / 2
    density = (mpmath.gamma((nu + 1) / 2) / (mpmath.sqrt(nu * mpmath.pi) * mpmath.gamma(nu / 2))
               * (1 + t * t / nu) ** (-(nu + 1) / 2))
    return float(abs((cdf - mpmath.mpf(p)) / (density * t)))


class TestNdtr:
    _Z = np.concatenate([np.linspace(-37.0, 8.3, 700),
                         np.random.default_rng(17).uniform(-37.0, 8.3, 300)])

    def test_matches_mpmath_from_minus_37_to_8_3(self):
        # scipy's worst here is 2.2e-13; the split of z^2 keeps the deep tail to about
        # 1e-15, where exp(-z^2/2) of the rounded square is 2.8e-13 off at z = -37
        exact = np.array([_ndtr_exact(z) for z in self._Z])
        assert np.max(np.abs(ndtr(self._Z) - exact) / exact) <= 2e-14

    def test_matches_scipy(self):
        z = np.random.default_rng(3).normal(0.0, 3.0, 20_000)
        assert ndtr(z) == pytest.approx(special.ndtr(z), rel=3e-13, abs=0)

    def test_special_values_and_shape(self):
        got = ndtr(np.array([[-np.inf, np.inf], [np.nan, 0.0]]))
        assert got.shape == (2, 2)
        assert got[0].tolist() == [0.0, 1.0] and math.isnan(got[1, 0]) and got[1, 1] == 0.5
        assert ndtr(-40.0) == 0.0 and ndtr(9.0) == 1.0


def _ndtri_error(p, x):
    """Relative error of ``x`` as the standard normal ``p`` quantile: one Newton step
    at 50 digits, ``(Phi(x) - p) / (phi(x) x)``, exact to second order."""
    x = mpmath.mpf(float(x))
    return float(abs((mpmath.ncdf(x) - mpmath.mpf(float(p))) / (mpmath.npdf(x) * x)))


class TestNdtri:
    # lower tail to 1e-300, the centre, the upper tail to 1 - 2**-53, and the ends
    # of AS241's three rational forms (|p - 1/2| = 0.425, and r = 5 at p = exp(-25))
    _P = np.concatenate([10.0 ** -np.random.default_rng(21).uniform(0.0, 300.0, 400),
                         np.random.default_rng(22).uniform(0.0, 1.0, 300),
                         1.0 - 2.0 ** -np.random.default_rng(23).uniform(1.0, 53.0, 200),
                         [1e-300, 0.075, 0.925, math.exp(-25.0), 1.0 - 2.0**-53]])

    def test_matches_mpmath_from_1e_300_to_1_less_2_to_the_53(self):
        errors = [_ndtri_error(p, x) for p, x in zip(self._P, ndtri(self._P))]
        assert max(errors) <= 2e-15

    def test_matches_scipy(self):
        p = np.random.default_rng(5).uniform(0.0, 1.0, 20_000)
        assert ndtri(p) == pytest.approx(special.ndtri(p), rel=2e-15, abs=0)

    def test_ends_and_centre(self):
        assert ndtri(np.array([0.0, 0.5, 1.0])).tolist() == [-math.inf, 0.0, math.inf]
        assert ndtri(5e-324) == pytest.approx(-38.4674056, abs=1e-7)


class TestChdtr:
    @pytest.mark.parametrize("d", range(1, 26))
    def test_matches_mpmath(self, d):
        x = np.concatenate([np.geomspace(1e-10, 1.0, 25), np.linspace(0.05, 4.0 * d + 40.0, 60)])
        exact = np.array([_chdtr_exact(d, v) for v in x])
        got = chdtr(d, x)
        assert np.max(np.abs(got - exact)) <= 1e-14
        lower = exact < 0.5
        assert np.max(np.abs(got[lower] - exact[lower]) / exact[lower]) <= 1e-13

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 7, 24])
    def test_matches_scipy(self, d):
        x = np.random.default_rng(d).chisquare(d, 20_000)
        assert chdtr(d, x) == pytest.approx(stats.chi2.cdf(x, d), rel=0, abs=1e-14)

    @pytest.mark.parametrize("d", [1, 2, 3, 6])
    def test_ends_of_the_range(self, d):
        got = chdtr(d, np.array([-1.0, 0.0, np.inf, 1e308, np.nan]))
        assert got[:4].tolist() == [0.0, 0.0, 1.0, 1.0] and math.isnan(got[4])


_T_PROBABILITIES = [1e-300, 1e-200, 1e-100, 1e-40, 1e-17, 1e-8, 1e-3, 0.025, 0.1, 0.3, 0.49,
                    0.4995]


class TestStdtrit:
    @pytest.mark.parametrize("nu", [1, 2, 3, 10, 299, 1000, 30_000, 200_000, 1_000_000, 10_000_000])
    def test_matches_mpmath(self, nu):
        errors = [_t_quantile_error(nu, p, stdtrit(nu, p)) for p in _T_PROBABILITIES]
        assert max(errors) <= 1e-13

    @pytest.mark.parametrize("nu", [3, 10, 299, 1000])
    def test_matches_scipy(self, nu):
        # moderate tails only: older scipy inverts the t distribution with cdflib
        p = np.array([1e-8, 1e-3, 0.025, 0.1, 0.3, 0.4995])
        got = [stdtrit(nu, q) for q in p]
        assert got == pytest.approx(stats.t.ppf(p, nu), rel=1e-12)

    @pytest.mark.parametrize("nu", [1, 2, 3, 1_000_000])
    def test_minus_infinity_at_zero(self, nu):
        # the limit p -> 0; a tiny alpha / 2 rounds to 0.0, where log(0) or 1 / 0 was taken
        assert stdtrit(nu, 0.0) == -math.inf

    def test_past_the_float_range_at_one_degree_of_freedom(self):
        # -1 / (pi p) passes the largest float below p = 1 / (pi * 1.8e308)
        assert stdtrit(1, 5e-310) == -math.inf
        assert stdtrit(1, 1.8e-309) == pytest.approx(-1.0 / (math.pi * 1.8e-309), rel=1e-15)



class TestStdtritSwitches:
    """Each quantile within 1e-13 of mpmath on both sides of every switch of ``stdtrit``:
    the tail from the remainder series below ``p = 0.05`` and from the centre mass above
    it, the target ``ln(1/2 - p)`` from ``p = 1/4``, and Cornish-Fisher from
    ``nu = 250 (w^2 + 4)``, ``w`` the normal quantile."""

    @given(st.floats(math.log(3.0), math.log(4e5)), st.floats(math.log(1e-300), math.log(0.4999)))
    @settings(max_examples=300, deadline=None)
    def test_log_uniform_sweep(self, ln_nu, ln_p):
        nu, p = round(math.exp(ln_nu)), math.exp(ln_p)
        assert _t_quantile_error(nu, p, stdtrit(nu, p)) <= 1e-13

    @pytest.mark.parametrize("nu", [3, 4, 5, 17, 120, 999, 1675, 1676])
    @pytest.mark.parametrize("p", [0.05 - 1e-7, 0.05 + 1e-7, 0.25 - 1e-7, 0.25 + 1e-7])
    def test_either_side_of_the_residual_switches(self, nu, p):
        assert _t_quantile_error(nu, p, stdtrit(nu, p)) <= 1e-13

    @pytest.mark.parametrize("p", [1e-300, 1e-120, 1e-30, 1e-9, 1e-3, 0.05, 0.2, 0.4999])
    @pytest.mark.parametrize("step", [-1, 0, 1])
    def test_either_side_of_cornish_fisher(self, p, step):
        w = -float(ndtri(p))
        nu = math.ceil(250.0 * (w * w + 4.0)) + step  # step -1 is the last Newton nu
        assert _t_quantile_error(nu, p, stdtrit(nu, p)) <= 1e-13

def _mass_exact(lo, hi):
    """``P(lo < Z < hi)`` at 50 digits for exact (mpf) ``lo < hi``, from the upper
    tails when ``lo >= 0`` so that neither term rounds to 1."""
    if lo >= 0:
        return mpmath.ncdf(-lo) - mpmath.ncdf(-hi)
    return mpmath.ncdf(hi) - mpmath.ncdf(lo)


def _assert_mass_close(got, exact):
    # relative to the mass, or to the smallest normal float where the mass is subnormal
    assert abs(got - exact) <= 1e-12 * max(exact, np.finfo(float).tiny), (got, float(exact))


@st.composite
def standard_intervals(draw):
    """``(lo, hi)`` of a standard normal coordinate: bounds out to +-37, widths from
    1e-15 to 10, some straddling 0 and some with an infinite end."""
    width = 10.0 ** draw(st.floats(-15.0, 1.0))
    if draw(st.booleans()):
        lo = draw(st.floats(-37.0, 37.0))
    else:  # straddling 0
        lo = -width * draw(st.floats(0.0, 1.0))
    hi = lo + width
    end = draw(st.sampled_from(["finite", "finite", "lower", "upper"]))
    lo, hi = (-math.inf if end == "lower" else lo), (math.inf if end == "upper" else hi)
    assume(lo < hi)  # 37 + 1e-15 rounds to 37
    return lo, hi


# intervals of NormalOnRPlus(0, 1) whose mass the difference of two erfc values got
# 1.1e-10, 5.9e-8, 4.1e-5 and 1.6e-3 off
_NARROW_LINE_INTERVALS = [(2.0, 2.0 * (1.0 + 1e-6)), (0.5, 0.5 * (1.0 + 1e-9)),
                          (1.0, 1.0 + 2.0**-40), (3.0, 3.0 * (1.0 + 1e-14))]


class TestNormalMass:
    @given(standard_intervals())
    @settings(max_examples=400, deadline=None)
    def test_matches_mpmath(self, interval):
        lo, hi = interval
        exact = _mass_exact(mpmath.mpf(lo), mpmath.mpf(hi))
        _assert_mass_close(normal_mass(lo, hi, float(mpmath.mpf(hi) - mpmath.mpf(lo))), exact)

    @given(standard_intervals())
    @settings(max_examples=200, deadline=None)
    def test_wide_intervals_take_the_erfc_difference(self, interval):
        lo, hi = interval
        width = hi - lo
        assume(width * max(1.0, abs(lo), abs(hi)) > 1.0)
        want = (0.5 * (_erfc_half(lo) - _erfc_half(hi)) if lo > 0.0
                else 0.5 * (_erfc_half(-hi) - _erfc_half(-lo)))
        assert normal_mass(lo, hi, width) == want

    @given(st.floats(2.0, 37.5), st.floats(-1.0, 1.5), st.booleans(), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_tails_hold_a_few_eps(self, lo, log_width, open_end, lower_tail):
        # a rounded z / sqrt 2 cost about z**2 eps relative: 1.2e-13 at z = 30
        hi = math.inf if open_end else lo + 10.0 ** log_width
        assume(hi > lo and (hi - lo) * hi > 1.0)  # the erfc difference, not the Legendre rule
        exact = _mass_exact(mpmath.mpf(lo), mpmath.mpf(hi))
        got = (normal_mass(-hi, -lo, hi - lo) if lower_tail else normal_mass(lo, hi, hi - lo))
        assert abs(got - exact) <= 8.0 * 2.0**-52 * exact, (got, float(exact))

    def test_tail_mass_at_minus_8_to_the_last_bit(self):
        # Phi(-8) = 6.2209605742717841235e-16; the plain erfc difference read ...819e-16
        law = NormalOnSimplex([0.0, 0.0], [[1.0, 0.3], [0.3, 1.0]])
        got = probability_of_box(law, [-np.inf, -np.inf], [np.inf, -8.0])
        assert abs(got - 6.2209605742717841e-16) <= math.ulp(6.2209605742717841e-16)

    @given(standard_intervals(), st.sampled_from([NormalOnRPlus, LognormalLaw]))
    @settings(max_examples=300, deadline=None)
    def test_probability_of_interval_matches_mpmath(self, interval, law_class):
        lo, hi = interval
        assume(lo > -math.inf)
        a = math.exp(lo)
        b = math.inf if hi == math.inf else a * math.exp(hi - lo)
        assume(b > a > 0.0)
        exact = _mass_exact(mpmath.log(a), mpmath.log(b) if b < math.inf else mpmath.inf)
        _assert_mass_close(probability_of_interval(law_class(0.0, 1.0), a, b), exact)

    @given(standard_intervals(), st.sampled_from([-2.0, 0.0, 3.0]),
           st.sampled_from([0.25, 1.0, 4.0]))
    @settings(max_examples=300, deadline=None)
    def test_probability_of_box_at_d_1_matches_mpmath(self, interval, mu, sigma2):
        lo, hi = interval
        lower, upper = mu + math.sqrt(sigma2) * lo, mu + math.sqrt(sigma2) * hi
        assume(lower < upper)
        s = mpmath.sqrt(sigma2)
        exact = _mass_exact((mpmath.mpf(lower) - mu) / s, (mpmath.mpf(upper) - mu) / s)
        law = NormalOnSimplex([mu], [[sigma2]])
        got = probability_of_box(law, [lower], [upper])
        assert type(got) is float  # not a numpy scalar from the bound arrays
        _assert_mass_close(got, exact)
        assert probability_of_box(with_lebesgue_reference(law), [lower], [upper]) == got

    @pytest.mark.parametrize("a, b", _NARROW_LINE_INTERVALS)
    def test_narrow_intervals_keep_their_relative_accuracy(self, a, b):
        exact = _mass_exact(mpmath.log(a), mpmath.log(b))
        for law in (NormalOnRPlus(0.0, 1.0), LognormalLaw(0.0, 1.0)):
            assert abs(probability_of_interval(law, a, b) - exact) <= 1e-12 * exact

    def test_narrow_box_keeps_its_relative_accuracy(self):
        # the difference of two erfc values got this box 5.3e-8 off
        lower, upper = 0.1, 0.1 + 1e-9
        exact = _mass_exact(mpmath.mpf(lower), mpmath.mpf(upper))
        got = probability_of_box(NormalOnSimplex([0.0], [[1.0]]), [lower], [upper])
        assert abs(got - exact) <= 1e-12 * exact

