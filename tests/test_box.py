"""Oracle tests for the box probabilities of ``codanorm._box``: against scipy at
d = 2 and from d = 3, against closed forms in the tails, Sheppard's orthant
forms and 60-digit references at d = 2, and of the lattice's parts (the
component-by-component generator, the variable ordering)."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import stats

from codanorm import NormalOnSimplex, probability_of_box, with_lebesgue_reference
from codanorm import _box
from codanorm._box import normal_box
from codanorm._special import normal_mass
from codanorm.errors import QuadratureUnstableError


def _random_law(rng, d):
    """A centre, an SPD covariance of mixed scales and correlations, and a box around
    the centre with some infinite ends."""
    a = rng.standard_normal((d, d)) * 10.0 ** rng.uniform(-1.0, 1.0, d)
    sigma = a @ a.T + 0.1 * np.diag(np.diag(a @ a.T))
    sd = np.sqrt(np.diag(sigma))
    mu = rng.normal(0.0, 1.0, d)
    lower, upper = mu - rng.uniform(0.2, 2.0, d) * sd, mu + rng.uniform(0.2, 2.0, d) * sd
    lower[rng.random(d) < 0.2], upper[rng.random(d) < 0.2] = -np.inf, np.inf
    return mu, sigma, lower, upper


@st.composite
def bivariate_boxes(draw):
    """A law of correlation up to +-0.999 and scales from 1e-3 to 1e3, and a box with
    bounds to 6 sds from the centre, widths from 1e-2 to 8 sds, and infinite ends."""
    rho = draw(st.floats(-0.999, 0.999))
    scales = [10.0 ** draw(st.floats(-3.0, 3.0)) for _ in range(2)]
    mu = np.array([draw(st.floats(-3.0, 3.0)) for _ in range(2)])
    lower, upper = [], []
    for m, s in zip(mu, scales):
        lo = m + s * draw(st.floats(-6.0, 6.0))
        hi = lo + s * draw(st.floats(1e-2, 8.0))
        end = draw(st.sampled_from(["finite", "finite", "lower", "upper", "both"]))
        lower.append(-math.inf if end in ("lower", "both") else lo)
        upper.append(math.inf if end in ("upper", "both") else hi)
    sigma = np.array([[scales[0] ** 2, rho * scales[0] * scales[1]],
                      [rho * scales[0] * scales[1], scales[1] ** 2]])
    return mu, sigma, np.array(lower), np.array(upper)


class TestNormalBox:
    @given(bivariate_boxes())
    @settings(max_examples=300, deadline=None)
    def test_bivariate_matches_scipy(self, case):
        mu, sigma, lower, upper = case
        assume(np.all(lower < upper))
        law = NormalOnSimplex(mu, sigma)
        # allow_singular: scipy's eigenvalue check refuses some valid laws of mixed scales
        want = stats.multivariate_normal(law.mu, law.sigma, allow_singular=True).cdf(
            upper, lower_limit=lower)
        got = probability_of_box(law, lower, upper)
        assert abs(got - want) <= 1e-14
        assert probability_of_box(with_lebesgue_reference(law), lower, upper) == got

    @pytest.mark.parametrize("seed", range(16))
    def test_lattice_matches_scipy_within_both_errors(self, seed):
        from scipy.stats._qmvnt import _qauto, _qmvn

        rng = np.random.default_rng(400 + seed)
        d = 3 + seed % 4
        mu, sigma, lower, upper = _random_law(rng, d)
        law = NormalOnSimplex(mu, sigma)
        est = normal_box(law.sigma, lower - law.mu, upper - law.mu, 20_413)
        want, want_error, _ = _qauto(_qmvn, law.sigma, lower - law.mu, upper - law.mu,
                                     np.random.default_rng(seed), error=1e-5,
                                     limit=1_000_000 * d, n_batches=10)
        assert est.method == "genz-lattice" and est.error <= 1e-5 and est.rounds >= 1
        assert abs(est.value - want) <= 1e-5 + want_error
        assert probability_of_box(law, lower, upper) == min(1.0, max(0.0, est.value))

    def test_upper_tail_box_at_d_2(self):
        law = NormalOnSimplex([0.0, 0.0], np.eye(2))
        got = probability_of_box(law, [6.0, 6.0], [np.inf, np.inf])
        assert got == pytest.approx(normal_mass(6.0, math.inf, math.inf) ** 2, rel=1e-6, abs=0)
        assert got == pytest.approx(9.73355e-19, rel=1e-6, abs=0)

    def test_upper_tail_box_at_d_3_keeps_its_digits(self):
        # Phi(8) is 1 - 6e-16, so a mass taken as Phi(inf) - Phi(8) would be 7 % off
        law = NormalOnSimplex(np.zeros(3), np.eye(3))
        got = probability_of_box(law, [8.0] * 3, [np.inf] * 3)
        assert got == pytest.approx(normal_mass(8.0, math.inf, math.inf) ** 3, rel=1e-12, abs=0)

    def test_near_singular_law_and_far_boxes(self):
        # a conditional sd below 1e-10 leaves the variable a point given the others
        sigma = np.array([[1.0, 1.0 - 1e-12, 0.2], [1.0 - 1e-12, 1.0, 0.2], [0.2, 0.2, 1.0]])
        est = normal_box(sigma, np.array([-1.0, -0.5, -1.0]), np.ones(3), 1)
        want = stats.multivariate_normal(np.zeros(3), sigma, allow_singular=True).cdf(
            np.ones(3), lower_limit=[-1.0, -0.5, -1.0])
        assert abs(est.value - want) <= 1e-5 + est.error
        law = NormalOnSimplex(np.zeros(3), np.eye(3) + 0.5)
        assert probability_of_box(law, [40.0] * 3, [np.inf] * 3) == 0.0
        assert probability_of_box(law, [-np.inf] * 3, [np.inf] * 3) == 1.0

    def test_past_the_point_limit_raises(self, monkeypatch):
        monkeypatch.setattr(_box, "_BOX_TOLERANCE", 1e-12)
        monkeypatch.setattr(_box, "_BOX_POINTS_PER_DIM", 10_000)
        law = NormalOnSimplex(np.zeros(3), np.eye(3) + 0.5)
        with pytest.raises(QuadratureUnstableError):
            probability_of_box(law, -np.ones(3), np.ones(3))

    def test_bivariate_estimate(self):
        # two first pieces: the bound 1 / sqrt 2 of the second coordinate turns its mass
        # at x = 2, and of the graded ends 2 -+ 2.65 * 2**k only -0.65 lies in [-1, 0.5];
        # three 12-node rules a piece, no halving, and _tolerance added to the error
        est = normal_box(np.array([[1.0, 0.5], [0.5, 2.0]]), np.array([-1.0, -np.inf]),
                         np.array([0.5, 1.0]), 1)
        assert (est.method, est.points, est.rounds) == ("conditional-legendre", 72, 2)
        assert _box._tolerance(est.value) <= est.error <= 2.0 * _box._tolerance(est.value)

    @pytest.mark.parametrize("dim, n", [(4, 101), (6, 421), (3, 563)])
    def test_cbc_components_minimize_the_worst_case_error(self, dim, n):
        # each component, given those before it, minimizes the kernel sum over the lattice
        gen, k, prod = _box._cbc_generator(dim, n), np.arange(n), np.ones(n)
        def b2(z):
            x = k * z % n / n
            return x * x - x + 1.0 / 6.0
        assert gen[0] == 1
        for s in range(1, dim):
            prod = prod * (1.0 + 0.8 ** max(s - 2, 0) * b2(gen[s - 1]))
            sums = np.array([prod @ b2(z) for z in range(1, (n - 1) // 2 + 1)])
            assert prod @ b2(gen[s]) <= sums.min() + 1e-12

    def test_permuted_cholesky_matches_scipy(self):
        from scipy.stats._qmvnt import _permuted_cholesky

        rng = np.random.default_rng(31)
        for d in (3, 4, 5, 6, 7):
            mu, sigma, lower, upper = _random_law(rng, d)
            want = _permuted_cholesky(sigma, lower - mu, upper - mu)
            got = _box._permuted_cholesky(sigma, lower - mu, upper - mu)
            assert np.allclose(np.tril(got[0]), want[0], rtol=0, atol=1e-12)
            assert np.allclose(got[1], want[1], rtol=1e-12)
            assert np.allclose(got[2], want[2], rtol=1e-12)


def _correlated(rho):
    return np.array([[1.0, rho], [rho, 1.0]])


# |rho| anywhere in (0.99, 1 - 2**-52], sign either way, or within 0.99 of 0
_RHOS = st.one_of(st.floats(-0.99, 0.99),
                  st.builds(lambda k, sign: sign * (1.0 - 2.0 ** -k), st.floats(6.7, 52.0),
                            st.sampled_from([-1.0, 1.0])))


@st.composite
def tail_boxes(draw):
    """A correlation from ``_RHOS`` and a box in standard units with bounds in +-8, widths
    from 1e-2 to 6 and some infinite ends, as ``(rho, lower, upper)``."""
    rho = draw(_RHOS)
    lower, upper = [], []
    for _ in range(2):
        lo = draw(st.floats(-8.0, 8.0))
        hi = lo + 10.0 ** draw(st.floats(-2.0, math.log10(6.0)))
        end = draw(st.sampled_from(["finite", "finite", "lower", "upper"]))
        lower.append(-math.inf if end == "lower" else lo)
        upper.append(math.inf if end == "upper" else hi)
    return rho, np.array(lower), np.array(upper)


# Boxes whose digits the four-corner bivariate method lost to cancellation (a mirror
# pair, a tail box, a box of probability 3.27e-43 that it returned as 0.0, and a d = 1
# event written at d = 2, which it gave 7 % off), as (rho, lower, upper, P), P by 60-digit
# mpmath, the same to all 30 digits shown in both orientations (x and y exchanged):
#
#   from mpmath import mp, mpf, inf
#   mp.dps = 60
#   def ref(r, l1, h1, l2, h2):  # the mass of Y given X, integrated over X
#       r = mpf(r)
#       s = mp.sqrt((1 - r) * (1 + r))
#       def mass(lo, hi):  # P(lo < Z < hi), from the upper tails when lo > 0
#           if lo > 0:
#               return (mp.erfc(lo / mp.sqrt(2)) - mp.erfc(hi / mp.sqrt(2))) / 2
#           return (mp.erfc(-hi / mp.sqrt(2)) - mp.erfc(-lo / mp.sqrt(2))) / 2
#       a, b = max(mpf(l1), -40), min(mpf(h1), 40)
#       ends = ({a + (b - a) * mpf(2) ** -j for j in range(40)}
#               | {b - (b - a) * mpf(2) ** -j for j in range(40)})
#       for y in (l2, h2):  # graded about each turn y / r of the mass
#           if mp.isfinite(y):
#               ends |= {y / r + k * s / abs(r) * mpf(2) ** j
#                        for k in (-1, 1) for j in range(-4, 12)}
#       ends = sorted(e for e in ends if a <= e <= b)
#       return mp.quad(lambda x: mp.npdf(x) * mass((l2 - r * x) / s, (h2 - r * x) / s),
#                      ends, method="gauss-legendre")
#   x, y = ref(r, l1, h1, l2, h2), ref(r, l2, h2, l1, h1)
#
# References must resolve the integrand's scale: mp.quad at 40 digits with breakpoints at
# the integers gives 3.269489e-43 for the fourth box, 1.6e-5 off.
_CANCELLING_BOXES = [
    (-0.5, [6.0, 6.0], [7.0, 7.0], 6.71320939419820667128792813136e-35),
    (0.5, [6.0, -7.0], [7.0, -6.0], 6.71320939419820667128792813136e-35),
    (0.5, [-7.0, -7.0], [-6.0, -6.0], 3.82822474577363881363417133516e-13),
    (0.9, [-math.inf, 3.0], [-3.0, math.inf], 3.26943601688393172602012774956e-43),
    (0.3, [-math.inf, -math.inf], [math.inf, -8.0], 6.22096057427178412351599517259e-16),
]


def _bound(p):
    """What a d = 2 box must hold: 1e-13 relative, or 16 eps |ln P| where that is larger."""
    return max(1e-13, 16.0 * 2.0 ** -52 * abs(math.log(p))) * p


class TestConditionalBox:
    @given(_RHOS)
    @settings(max_examples=200, deadline=None)
    def test_sheppard_orthants(self, rho):
        # P(X < 0 < Y) = acos(rho) / 2 pi and P(X > 0, Y > 0) = 1/4 + asin(rho) / 2 pi,
        # the latter written acos(-rho) / 2 pi, which keeps its digits near rho = -1
        law = NormalOnSimplex([0.0, 0.0], _correlated(rho))
        apart = probability_of_box(law, [-np.inf, 0.0], [0.0, np.inf])
        assert apart == pytest.approx(math.acos(rho) / (2.0 * math.pi), rel=1e-13, abs=0)
        above = probability_of_box(law, [0.0, 0.0], [np.inf, np.inf])
        assert above == pytest.approx(math.acos(-rho) / (2.0 * math.pi), rel=1e-13, abs=0)

    @given(tail_boxes(), st.integers(0, 1))
    @settings(max_examples=200, deadline=None)
    def test_mirrored_boxes_agree(self, box, k):
        # the image of the box under X_k -> -X_k, under the correlation -rho
        rho, lower, upper = box
        flip = np.where(np.arange(2) == k, -1.0, 1.0)
        p = normal_box(_correlated(rho), lower, upper, 1).value
        q = normal_box(_correlated(-rho), np.minimum(flip * lower, flip * upper),
                       np.maximum(flip * lower, flip * upper), 1).value
        assert q == pytest.approx(p, rel=1e-13, abs=1e-300)

    @pytest.mark.parametrize("rho", [0.3, -0.999999, 1.0 - 2.0 ** -52])
    @pytest.mark.parametrize("side", [0, 1])
    @pytest.mark.parametrize("lo, hi", [(-math.inf, -8.0), (-0.5, 1.25), (3.0, 3.0 + 1e-9),
                                        (37.0, math.inf)])
    def test_a_side_that_is_the_line_is_the_d_1_box(self, rho, side, lo, hi):
        scale = 2.5
        sigma = _correlated(rho) * np.outer([1.0, scale], [1.0, scale])
        lower, upper = np.full(2, -np.inf), np.full(2, np.inf)
        lower[1 - side], upper[1 - side] = lo, hi
        sd = math.sqrt(sigma[1 - side, 1 - side])
        want = normal_mass(lo / sd, hi / sd, (hi - lo) / sd)
        assert normal_box(sigma, lower, upper, 1).value == want
        law_1 = NormalOnSimplex([0.0], [[sigma[1 - side, 1 - side]]])
        law_2 = NormalOnSimplex([0.0, 0.0], sigma)
        assert probability_of_box(law_2, lower, upper) == probability_of_box(law_1, [lo], [hi])

    @pytest.mark.parametrize("rho, lower, upper, want", _CANCELLING_BOXES)
    def test_boxes_that_four_corners_cancelled(self, rho, lower, upper, want):
        est = normal_box(_correlated(rho), np.array(lower), np.array(upper), 1)
        assert abs(est.value - want) <= _bound(want)
        assert abs(est.value - want) <= est.error

    def test_a_correlation_that_rounds_to_1(self):
        # a valid law whose sigma_12 / (sd_1 sd_2) rounds to 1: here Y / sd_2 is X / sd_1
        # to within s = 1.5e-8, so a box is the d = 1 box of the two sides' overlap
        sigma = np.array([[0.07268608093786182, 0.24447345104598045],
                          [0.24447345104598045, 0.8222656593278913]])
        sd = np.sqrt(np.diag(sigma))
        assert sigma[0, 1] / (sd[0] * sd[1]) == 1.0
        law = NormalOnSimplex([0.0, 0.0], sigma)
        got = probability_of_box(law, [-1.0, -1.0], [1.0, 2.0])
        assert abs(got - normal_mass(-1.0 / sd[1], 2.0 / sd[1], 3.0 / sd[1])) <= 1e-7
        assert 0.0 <= probability_of_box(law, [-np.inf, 0.0], [0.0, np.inf]) <= 1e-8

    def test_first_pieces_stop_64_turn_widths_out(self):
        # near |rho| = 1 a bound's term turns within s / |r| of x = y / r, and 64 s / |r|
        # out it is 0 or 1 to the bit: the first pieces end there (69 of them when they ran
        # on to the interval's ends).  The reference is the script above's, both orientations
        rho, want = 1.0 - 1e-10, 0.624655260005155037633210569628
        est = normal_box(_correlated(rho), np.array([-1.0, -0.5]), np.array([2.0, 1.5]), 1)
        assert abs(est.value - want) <= _bound(want)
        assert est.rounds <= 30
        mirror = normal_box(_correlated(rho), np.array([-2.0, -1.5]), np.array([1.0, 0.5]), 1)
        assert mirror.value == pytest.approx(est.value, rel=1e-13, abs=0)
