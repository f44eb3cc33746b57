"""Tests for estimation and the goodness-of-fit battery."""

import math

import numpy as np
import pytest
from scipy import stats

from codanorm import (
    DegenerateVarianceError,
    DimensionMismatchError,
    EmptyDataError,
    InsufficientDataError,
    NormalOnRPlus,
    NormalOnSimplex,
    NumericalError,
    PositiveValue,
    RPlusSample,
    SeededStream,
    SimplexSample,
    SingularCovarianceError,
    center_of,
    ci_mean_nrp,
    closure,
    default_basis,
    fit_nrp,
    fit_nsd,
    geometric_mean,
    gof_battery,
    ilr_inv,
    naive_lognormal_mean,
    nsd_transform,
    random_basis,
    sample_nrp,
    sample_nsd,
    uniform,
)
from codanorm.inference import _CRITICAL_1PCT, _edf_statistics
from codanorm.laws import nsd_logpdf_coords
from codanorm.simplex import closure_rows, ilr_rows


def slow_edf_statistics(u):
    """Textbook evaluation of A2, W2 and U2 with explicit loops, kept as an
    independent oracle for the vectorized implementation."""
    z = sorted(float(v) for v in u)
    n = len(z)
    a2 = 0.0
    for i, zi in enumerate(z, start=1):
        a2 += (2 * i - 1) * (math.log(zi) + math.log(1.0 - z[n - i]))
    a2 = -n - a2 / n
    w2 = sum((zi - (2 * i - 1) / (2 * n)) ** 2 for i, zi in enumerate(z, start=1))
    w2 += 1.0 / (12 * n)
    zbar = sum(z) / n
    u2 = w2 - n * (zbar - 0.5) ** 2
    return a2, w2, u2


class TestRPlusSamples:
    def test_from_values_and_logs(self):
        s = RPlusSample([1.0, 10.0, 100.0])
        assert np.allclose(s.logs, [0.0, math.log(10), math.log(100)], atol=1e-15)
        s2 = RPlusSample.from_logs(s.logs)
        assert np.allclose(s2.logs, s.logs, atol=0)
        assert [v.value for v in s.values()] == pytest.approx([1.0, 10.0, 100.0])

    def test_empty_rejected(self):
        with pytest.raises(EmptyDataError):
            RPlusSample([])

    def test_nonpositive_rejected(self):
        from codanorm import NonPositivePartError

        with pytest.raises(NonPositivePartError):
            RPlusSample([1.0, 0.0, 2.0])


class TestFitNrp:
    def test_example_decades(self):
        law = fit_nrp(RPlusSample([1.0, 10.0, 100.0]))
        assert law.mu == pytest.approx(math.log(10.0), abs=1e-14)
        assert law.sigma2 == pytest.approx(math.log(10.0) ** 2, rel=1e-14)
        from codanorm import nrp_moments

        assert nrp_moments(law).mean.value == pytest.approx(10.0, rel=1e-14)

    def test_constant_sample_flags_degenerate_variance(self):
        with pytest.raises(DegenerateVarianceError):
            fit_nrp(RPlusSample([3.0, 3.0, 3.0, 3.0]))

    def test_single_observation_insufficient(self):
        with pytest.raises(InsufficientDataError):
            fit_nrp(RPlusSample([5.0]))

    def test_consistency(self):
        truth = NormalOnRPlus(2.0, 0.5)
        sample = sample_nrp(truth, 10_000, SeededStream(8, 0))
        law = fit_nrp(sample)
        assert abs(law.mu - 2.0) < 3 * math.sqrt(0.5 / 10_000)

    def test_geometric_mean_is_fitted_mean_bitwise(self, rng):
        values = np.exp(rng.normal(1.0, 1.2, size=37))
        sample = RPlusSample(values)
        gm = geometric_mean(sample)
        law = fit_nrp(sample)
        from codanorm import nrp_moments

        assert gm.value == nrp_moments(law).mean.value  # identical floats


class TestCiMeanNrp:
    def test_matches_classical_t_interval_on_logs(self, rng):
        values = np.exp(rng.normal(0.4, 0.9, size=23))
        sample = RPlusSample(values)
        lo, hi = ci_mean_nrp(sample, alpha=0.10)
        logs = np.log(values)
        ybar = logs.mean()
        v = logs.std(ddof=1)
        t = stats.t.ppf(0.95, df=22)
        assert lo.value == pytest.approx(math.exp(ybar - t * v / math.sqrt(23)), rel=1e-12)
        assert hi.value == pytest.approx(math.exp(ybar + t * v / math.sqrt(23)), rel=1e-12)

    def test_brackets_fitted_mean(self, rng):
        values = np.exp(rng.normal(0.0, 1.0, size=12))
        sample = RPlusSample(values)
        lo, hi = ci_mean_nrp(sample, alpha=0.05)
        gm = geometric_mean(sample).value
        assert lo.value < gm < hi.value

    def test_alpha_near_one_collapses(self, rng):
        values = np.exp(rng.normal(0.0, 1.0, size=12))
        sample = RPlusSample(values)
        lo, hi = ci_mean_nrp(sample, alpha=0.999)
        assert hi.value / lo.value < 1.01

    def test_degenerate_variance(self):
        with pytest.raises(DegenerateVarianceError):
            ci_mean_nrp(RPlusSample([2.0, 2.0, 2.0]), alpha=0.10)

    @pytest.mark.parametrize("alpha", [1e-17, 1e-300])
    def test_tiny_alpha_keeps_finite_endpoints(self, rng, alpha):
        # 1 - alpha/2 rounds to 1.0 here, whose t quantile is infinite
        sample = RPlusSample(np.exp(rng.normal(0.0, 1.0, size=300)))
        lo, hi = ci_mean_nrp(sample, alpha)
        gm = geometric_mean(sample).value
        assert 0.0 < lo.value < gm < hi.value < math.inf
        half = stats.t.isf(alpha / 2.0, df=299) * float(sample.logs.std(ddof=1)) / math.sqrt(300)
        assert math.log(hi.value / gm) == pytest.approx(half, rel=1e-12)

    @pytest.mark.parametrize("values, alpha", [([1.0, 2.0], 1e-309),
                                               ([1e-300, 1e300], 1e-306)])
    def test_interval_past_the_float_range_is_a_numerical_error(self, values, alpha):
        # stdtrit(1, p) is inf below p ~ 1.8e-309; at 1e-306 the quantile is
        # finite but its product with the log spread is not
        with pytest.raises(NumericalError, match="alpha.*n=2"):
            ci_mean_nrp(RPlusSample(values), alpha)

    def test_quick_coverage(self):
        # a small-scale version of the full coverage criterion
        truth = NormalOnRPlus(1.0, 0.25)
        reps, n = 1000, 30
        gen = np.random.default_rng(2024)
        logs = gen.normal(1.0, 0.5, size=(reps, n))
        ybar = logs.mean(axis=1)
        v = logs.std(axis=1, ddof=1)
        t = stats.t.ppf(0.95, df=n - 1)
        half = t * v / math.sqrt(n)
        hits = np.mean((ybar - half <= 1.0) & (1.0 <= ybar + half))
        assert 0.87 < hits < 0.93
        # and the library interval is exactly this one, exponentiated
        sample = RPlusSample.from_logs(logs[0])
        lo, hi = ci_mean_nrp(sample, alpha=0.10)
        assert math.log(lo.value) == pytest.approx(ybar[0] - half[0], rel=1e-12)


class TestNaiveLognormalMean:
    def test_formula(self, rng):
        values = np.exp(rng.normal(0.0, 1.0, size=40))
        logs = np.log(values)
        expected = math.exp(logs.mean() + logs.var(ddof=1) / 2.0)
        assert naive_lognormal_mean(RPlusSample(values)) == pytest.approx(
            expected, rel=1e-12
        )

    def test_strictly_exceeds_geometric_mean(self, rng):
        for _ in range(20):
            values = np.exp(rng.normal(0.0, 0.8, size=15))
            s = RPlusSample(values)
            assert naive_lognormal_mean(s) > geometric_mean(s).value

    def test_large_sample_limit(self):
        truth = NormalOnRPlus(0.0, 1.0)
        sample = sample_nrp(truth, 100_000, SeededStream(99, 0))
        assert naive_lognormal_mean(sample) == pytest.approx(math.exp(0.5), rel=0.02)


class TestSimplexSamples:
    def test_from_rows_closes(self):
        s = SimplexSample.from_rows([[1, 2, 3], [2, 2, 2]])
        assert np.allclose(s.rows.sum(axis=1), 1.0, atol=1e-12)
        assert s.n == 2 and s.D == 3

    def test_heterogeneous_rejected(self):
        with pytest.raises(DimensionMismatchError):
            SimplexSample([closure([1, 2, 3]), closure([1, 2, 3, 4])])

    def test_center_matches_center_of(self):
        comps = [closure([1, 2, 3]), closure([5, 1, 1]), closure([2, 2, 9])]
        s = SimplexSample(comps)
        assert s.center() == center_of(comps)

    def test_with_basis_changes_coords_not_rows(self, rng):
        s = SimplexSample.from_rows(np.exp(rng.uniform(-2, 2, size=(9, 4))))
        b2 = random_basis(4, rng)
        s2 = s.with_basis(b2)
        assert np.array_equal(s.rows, s2.rows)
        M = b2.matrix.T @ s.basis.matrix
        assert np.allclose(s2.coords, s.coords @ M.T, atol=1e-12)


class TestFitNsd:
    def test_matches_direct_mean_and_covariance(self, rng):
        rows = closure_rows(np.exp(rng.normal(0, 1, size=(40, 3))))
        s = SimplexSample.from_rows(rows)
        law = fit_nsd(s)
        coords = ilr_rows(rows)
        assert np.allclose(law.mu, coords.mean(axis=0), atol=1e-13)
        assert np.allclose(law.sigma, np.cov(coords, rowvar=False, ddof=1), atol=1e-13)

    def test_fitted_center_is_sample_center(self, rng):
        rows = closure_rows(np.exp(rng.normal(0, 1, size=(25, 4))))
        s = SimplexSample.from_rows(rows)
        law = fit_nsd(s)
        from codanorm import nsd_moments

        assert nsd_moments(law).center == s.center()

    def test_repeated_composition_singular(self):
        comp = closure([0.5, 0.3, 0.2])
        with pytest.raises(SingularCovarianceError):
            fit_nsd(SimplexSample([comp] * 10))

    def test_too_few_rows(self):
        with pytest.raises(InsufficientDataError):
            fit_nsd(SimplexSample.from_rows([[1, 2, 3], [3, 2, 1]]))

    def test_basis_equivariance(self, rng):
        rows = closure_rows(np.exp(rng.normal(0, 1, size=(30, 4))))
        b1 = default_basis(4)
        b2 = random_basis(4, rng)
        law1 = fit_nsd(SimplexSample.from_rows(rows, basis=b1))
        law2 = fit_nsd(SimplexSample.from_rows(rows, basis=b2))
        M = b2.matrix.T @ b1.matrix
        assert np.allclose(law2.mu, M @ law1.mu, atol=1e-10)
        assert np.allclose(law2.sigma, M @ law1.sigma @ M.T, atol=1e-10)
        from codanorm import nsd_moments

        # and the center composition does not depend on the basis at all
        c1 = nsd_moments(law1).center
        c2 = nsd_moments(law2).center
        from codanorm import ait_distance

        assert ait_distance(c1, c2) < 1e-10

    def test_transform_equivariance(self, rng):
        # fitting perturbed/powered data equals transporting the fitted law
        rows = closure_rows(np.exp(rng.normal(0, 0.7, size=(20, 3))))
        s = SimplexSample.from_rows(rows)
        law = fit_nsd(s)
        a = closure([0.5, 0.2, 0.3])
        b = math.sqrt(3.0)
        # a (+) (b (.) x) applied rowwise
        moved_rows = closure_rows(a.parts[None, :] * rows ** b)
        law_direct = fit_nsd(SimplexSample.from_rows(moved_rows))
        law_transport = nsd_transform(law, a, b)
        assert np.allclose(law_direct.mu, law_transport.mu, atol=1e-10)
        assert np.allclose(law_direct.sigma, law_transport.sigma, atol=1e-10)


class TestEdfStatistics:
    def test_against_slow_oracle(self, rng):
        for n in (10, 37, 200):
            u = rng.uniform(0.001, 0.999, size=n)
            fast = _edf_statistics(u)
            slow = slow_edf_statistics(u)
            assert fast == pytest.approx(slow, rel=1e-10)

    def test_critical_value_table(self):
        # 1% points of the modified statistics, from the published tables:
        # estimated-parameter normality and fully specified null
        assert _CRITICAL_1PCT[("estimated", "anderson_darling")] == 1.035
        assert _CRITICAL_1PCT[("estimated", "cramer_von_mises")] == 0.178
        assert _CRITICAL_1PCT[("estimated", "watson")] == 0.163
        assert _CRITICAL_1PCT[("specified", "anderson_darling")] == 3.857
        assert _CRITICAL_1PCT[("specified", "cramer_von_mises")] == 0.743
        assert _CRITICAL_1PCT[("specified", "watson")] == 0.267


class TestWhitening:
    """Simplex log densities and the GOF radius whiten coordinates with the
    law's inverse Cholesky factor; the references here solve with the
    covariance itself, on laws whose eigenvalues span 1e-8 to 1."""

    @pytest.mark.parametrize("d", [2, 4, 7])
    def test_logpdf_and_radius_match_a_covariance_solve(self, d):
        gen = np.random.default_rng(40 + d)
        q, _ = np.linalg.qr(gen.standard_normal((d, d)))
        law = NormalOnSimplex(gen.uniform(-0.5, 0.5, d), (q * np.logspace(-8, 0, d)) @ q.T)
        s = sample_nsd(law, 400, SeededStream(d, 0))
        r = s.coords - law.mu
        m = np.sum(r * np.linalg.solve(law.sigma, r.T).T, axis=1)
        ref = -0.5 * (d * math.log(2.0 * math.pi) + np.linalg.slogdet(law.sigma)[1] + m)
        # factoring sigma moves a squared distance by up to about (d + 1) eps cond(sigma)
        # relative, on both sides: 1e-9 is out of reach at cond 1e8 (measured gaps 2e-9
        # to 3e-8).  On a log density, an absolute error is the density's relative error.
        tol = 2 * (d + 1) * np.finfo(float).eps * np.linalg.cond(law.sigma)
        assert nsd_logpdf_coords(law, s.coords) == pytest.approx(ref, rel=tol, abs=tol)

        n = s.n
        a2, w2, u2 = slow_edf_statistics(stats.chi2.cdf(m, df=d))
        expected = [
            a2,
            (w2 - 0.4 / n + 0.6 / n**2) * (1.0 + 1.0 / n),
            (u2 - 0.1 / n + 0.1 / n**2) * (1.0 + 0.8 / n),
        ]
        got = [e.statistic for e in gof_battery(s, law).layer("radius")]
        assert got == pytest.approx(expected, rel=tol)


class TestGofBattery:
    def _sample_and_fit(self, n=200, seed=31):
        law = NormalOnSimplex([0.2, -0.4], [[0.8, 0.3], [0.3, 1.1]])
        s = sample_nsd(law, n, SeededStream(seed, 0))
        return s, fit_nsd(s)

    def test_twelve_entries_for_three_parts(self):
        s, fitted = self._sample_and_fit()
        report = gof_battery(s, fitted)
        assert len(report) == 12
        assert len(report.layer("marginal")) == 6
        assert len(report.layer("angle")) == 3
        assert len(report.layer("radius")) == 3

    def test_entry_names(self):
        s, fitted = self._sample_and_fit()
        names = [e.name for e in gof_battery(s, fitted)]
        assert "marginal[coord1]:anderson_darling" in names
        assert "angle[coord1-coord2]:watson" in names
        assert "radius[all]:cramer_von_mises" in names

    def test_well_specified_sample_mostly_passes(self):
        s, fitted = self._sample_and_fit(n=500, seed=77)
        report = gof_battery(s, fitted)
        assert len(report.rejections_at_1pct()) <= 1

    def test_needs_eight_observations(self):
        rows = closure_rows(np.exp(np.random.default_rng(3).normal(0, 1, (7, 3))))
        s = SimplexSample.from_rows(rows)
        law = NormalOnSimplex([0.0, 0.0], np.eye(2))
        with pytest.raises(InsufficientDataError):
            gof_battery(s, law)

    def test_gross_misfit_is_rejected(self):
        # data from a bimodal mixture in coordinates should fail loudly
        gen = np.random.default_rng(11)
        comp = np.concatenate(
            [gen.normal(-2.0, 0.2, size=(250, 2)), gen.normal(2.0, 0.2, size=(250, 2))]
        )
        from codanorm.simplex import ilr_inv_rows

        s = SimplexSample.from_rows(ilr_inv_rows(comp))
        report = gof_battery(s, fit_nsd(s))
        assert len(report.rejections_at_1pct()) >= 3

    def test_radius_layer_is_basis_invariant(self, rng):
        rows = closure_rows(np.exp(rng.normal(0, 1, size=(60, 3))))
        s1 = SimplexSample.from_rows(rows)
        s2 = SimplexSample.from_rows(rows, basis=random_basis(3, rng))
        r1 = gof_battery(s1, fit_nsd(s1)).layer("radius")
        r2 = gof_battery(s2, fit_nsd(s2)).layer("radius")
        for e1, e2 in zip(r1, r2):
            assert e1.statistic == pytest.approx(e2.statistic, abs=1e-10)

    @pytest.mark.slow
    def test_null_rejection_rate(self):
        # draw from a law, fit, test: rejections should be rare (the marginal
        # layer is calibrated near 1%, the other layers use conservative
        # fully-specified critical values with estimated parameters)
        law = NormalOnSimplex([0.0, 0.0], [[1.0, 0.4], [0.4, 1.0]])
        reps = 150
        marginal_rejections = 0
        other_rejections = 0
        for r in range(reps):
            s = sample_nsd(law, 500, SeededStream(1000, r))
            report = gof_battery(s, fit_nsd(s))
            marginal_rejections += sum(
                1 for e in report.layer("marginal") if not e.passed_at_1pct
            )
            other_rejections += sum(
                1
                for e in report.layer("angle") + report.layer("radius")
                if not e.passed_at_1pct
            )
        marginal_rate = marginal_rejections / (reps * 6)
        other_rate = other_rejections / (reps * 6)
        assert 0.0 <= marginal_rate < 0.03
        assert other_rate < 0.02
