"""Oracle tests for the box probabilities of ``codanorm._box``: against scipy at
d = 2 and from d = 3, against closed forms in the tails, and of the lattice's
parts (the component-by-component generator, the variable ordering)."""

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
        est = normal_box(np.array([[1.0, 0.5], [0.5, 2.0]]), np.array([-1.0, -np.inf]),
                         np.array([0.5, 1.0]), 1)
        assert (est.method, est.points, est.error, est.rounds) == ("genz-bivariate", 12, 1e-15, 1)

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
