"""Tests for estimation and the goodness-of-fit battery."""

import functools
import math
import os
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from codanorm import (
    AlnLaw,
    DegenerateVarianceError,
    DimensionMismatchError,
    EmptyDataError,
    InsufficientDataError,
    NonPositivePartError,
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
    with_lebesgue_reference,
)
from codanorm import inference
from codanorm._special import chdtr, ndtr
from codanorm.inference import (
    _CRITICAL_1PCT,
    _THREAD_ROWS,
    _coordinates,
    _edf_statistics,
    _modified_statistics,
    _running_total,
)
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


def per_layer_edf_statistics(u):
    """The EDF statistics of one layer, weights built and values clipped on every
    call: the bit-for-bit oracle of ``_edf_statistics``."""
    u = np.sort(np.asarray(u, dtype=float))
    u = np.clip(u, 1e-15, 1.0 - 1e-15)
    n = u.size
    i = np.arange(1, n + 1)
    a2 = -n - np.mean((2.0 * i - 1.0) * (np.log(u) + np.log1p(-u[::-1])))
    w2 = float(np.sum((u - (2.0 * i - 1.0) / (2.0 * n)) ** 2) + 1.0 / (12.0 * n))
    u2 = w2 - n * (float(u.mean()) - 0.5) ** 2
    return float(a2), w2, float(u2)


def per_layer_battery(sample, fitted):
    """The battery's statistics in order, each layer's transforms gathered as
    columns of the ``(n, d)`` coordinates: the bit-for-bit oracle of ``gof_battery``."""
    coords = sample.with_basis(fitted.basis).coords
    n, d = coords.shape
    mu, sigma = fitted.mu, fitted.sigma
    u = ndtr((coords - mu) / np.sqrt(np.diag(sigma)))
    layers = [("estimated", u[:, j]) for j in range(d)]
    j, k = np.triu_indices(d, 1)
    a, b, c = sigma[j, j], sigma[j, k], sigma[k, k]
    x, y = coords[:, j] - mu[j], coords[:, k] - mu[k]
    theta = np.arctan2((y - (b / a) * x) / np.sqrt(c - b * b / a), x / np.sqrt(a))
    layers += [("specified", u) for u in (theta.T + math.pi) / (2.0 * math.pi)]
    z = (coords - mu) @ fitted._chol_inv.T
    r2 = functools.reduce(np.add, [c * c for c in z.T])
    layers.append(("specified", chdtr(d, r2)))
    return [stat for case, u in layers
            for stat in _modified_statistics(per_layer_edf_statistics(u), case, n).values()]


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


# argument checks of the line's samples and estimators, one call each
_REJECTED = {
    "from_logs([])": (lambda: RPlusSample.from_logs([]), EmptyDataError),
    "from_logs(2-d)": (lambda: RPlusSample.from_logs([[0.0, 1.0]]), EmptyDataError),
    "from_logs(nan)": (lambda: RPlusSample.from_logs([0.0, math.nan]), NonPositivePartError),
    "from_logs(inf)": (lambda: RPlusSample.from_logs([-math.inf, 0.0]), NonPositivePartError),
    "ci_mean_nrp(alpha=0)": (lambda: ci_mean_nrp(RPlusSample([1.0, 2.0]), 0.0),
                             NonPositivePartError),
    "ci_mean_nrp(alpha=1)": (lambda: ci_mean_nrp(RPlusSample([1.0, 2.0]), 1.0),
                             NonPositivePartError),
    "ci_mean_nrp(alpha=nan)": (lambda: ci_mean_nrp(RPlusSample([1.0, 2.0]), math.nan),
                               NonPositivePartError),
    "ci_mean_nrp(one value)": (lambda: ci_mean_nrp(RPlusSample([2.0]), 0.05),
                               InsufficientDataError),
    "naive_lognormal_mean(one value)": (lambda: naive_lognormal_mean(RPlusSample([2.0])),
                                        InsufficientDataError),
}


@pytest.mark.parametrize("case", sorted(_REJECTED))
def test_argument_checks_raise(case):
    call, error = _REJECTED[case]
    with pytest.raises(error):
        call()


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


class TestOneLawAcrossSpaces:
    """Independent normal laws on R+, one a part, closed into a composition: the closed
    sample's coordinates, fit and battery are those of the logs ``L`` read through the
    contrast matrix ``U``, and both labels of the fitted law give the same battery.  An
    identity of the arithmetic, not a statistical test, so the tolerances are rounding.

    With ``e = 2^-52`` and ``s = 1 + max|L|``: each clr entry of ``exp(L)`` is within
    ``(D + 2) e s`` of the centred logs (the ``log`` of the ``exp``, a row mean of ``D``
    terms, a subtraction), and a column of ``U`` has ``sum |U| <= sqrt D``, so a
    coordinate and ``L U`` in floats differ by at most ``sqrt(D) (4D + 2) e s <= 4 D^2 e s``.
    A coordinate is at most ``c = 2 sqrt(D) s``; a mean of ``n`` of them adds ``n e c`` on
    either side, and a covariance ``2 c`` times the centred values' error plus ``(n + D^2)
    e c^2`` of rounding on either side."""

    @pytest.mark.parametrize("D", [2, 3, 4, 5, 6])
    def test_closed_logs_are_one_simplex_law(self, D):
        n, rng = 200, np.random.default_rng(D)
        laws = [NormalOnRPlus(m, s2)
                for m, s2 in zip(rng.uniform(-3, 3, D), rng.uniform(0.2, 4, D))]
        logs = np.column_stack([sample_nrp(law, n, SeededStream(35, i)).logs
                                for i, law in enumerate(laws)])
        sample = SimplexSample.from_rows(np.exp(logs))
        U, e, s = sample.basis.matrix, 2.0 ** -52, 1.0 + np.max(np.abs(logs))
        c = 2.0 * math.sqrt(D) * s
        coord_tol = 4 * D * D * e * s
        assert np.max(np.abs(sample.coords - logs @ U)) <= coord_tol
        law = fit_nsd(sample)
        mean_tol = coord_tol + 2 * n * e * c
        assert np.max(np.abs(law.mu - U.T @ logs.mean(axis=0))) <= mean_tol
        cov_tol = 3 * c * (coord_tol + mean_tol) + 3 * (n + D * D) * e * c * c
        assert np.max(np.abs(law.sigma - U.T @ np.cov(logs, rowvar=False) @ U)) <= cov_tol
        nsd, aln = ([entry.statistic for entry in gof_battery(sample, label)]
                    for label in (law, AlnLaw(law.mu, law.sigma, law.basis)))
        assert nsd == aln and len(nsd) == 3 * (D + (D - 1) * (D - 2) // 2)


class TestFitNsdTotal:
    """The coordinate total is summed left to right through one scratch block, with the
    bits of ``np.cumsum(..., axis=1)[:, -1]`` and without its ``(d, n)`` temporary."""

    @pytest.mark.parametrize("d, n", [(2, 1), (2, 4095), (3, 4096), (3, 4097), (7, 200_003)])
    @pytest.mark.parametrize("block", [1, 3, 4096])
    def test_running_total_has_the_cumsum_bits(self, d, n, block):
        rng = np.random.default_rng(d * n + block)
        values = rng.normal(size=(d, n)) * 10.0 ** rng.integers(-8, 8, size=(d, n))
        want = np.cumsum(values, axis=1)[:, -1]
        assert _running_total(values, block).tobytes() == want.tobytes()

    @pytest.mark.parametrize("D, n", [(3, 1000), (5, 16_385), (8, 200_003)])
    def test_fitted_mean_has_the_cumsum_bits(self, D, n):
        law = NormalOnSimplex(np.linspace(-1.0, 1.0, D - 1), np.eye(D - 1) + 0.4)
        s = sample_nsd(law, n, SeededStream(D, n))
        centred = _coordinates(s._clr, s.basis.matrix)
        assert fit_nsd(s).mu.tobytes() == (np.cumsum(centred, axis=1)[:, -1] / n).tobytes()

    def test_total_holds_no_coordinate_sized_temporary(self):
        values = np.random.default_rng(1).normal(size=(7, 200_003))
        tracemalloc.start()
        try:
            _running_total(values)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < values.nbytes / 20  # one (7, 4096) block: 0.23 MB against 11.2 MB


class TestEqualData:
    """Equal observations are refused by comparing the data, before any arithmetic: no
    rounded spread of about 1e-32 is left to fit."""

    @given(st.integers(2, 40), st.floats(1.0, 9.99), st.integers(-300, 299))
    @settings(max_examples=200, deadline=None)
    def test_a_constant_column_is_refused(self, n, significand, exponent):
        sample = RPlusSample([significand * 10.0**exponent] * n)
        with pytest.raises(DegenerateVarianceError, match="all observations are identical"):
            fit_nrp(sample)
        with pytest.raises(DegenerateVarianceError):
            ci_mean_nrp(sample, 0.05)

    @given(st.integers(2, 4), st.integers(2, 40), st.data())
    @settings(max_examples=200, deadline=None)
    def test_equal_part_rows_are_refused(self, D, n, data):
        # parts down to 1e-300 of their total, as in the CLI's fuzzed part files
        row = [data.draw(st.floats(1.0, 9.99)) * 10.0 ** data.draw(st.integers(-300, 0))
               for _ in range(D)]
        sample = SimplexSample.from_rows([row] * n)
        if n < D:
            with pytest.raises(InsufficientDataError):
                fit_nsd(sample)
        else:
            with pytest.raises(SingularCovarianceError, match="all observations are identical"):
                fit_nsd(sample)


class TestEdfStatistics:
    def test_against_slow_oracle(self, rng):
        for n in (10, 37, 200):
            u = rng.uniform(0.001, 0.999, size=n)
            weights = 2.0 * np.arange(1, n + 1) - 1.0
            fast = _edf_statistics(u.copy(), weights)
            slow = slow_edf_statistics(u)
            assert fast == pytest.approx(slow, rel=1e-10)

    def test_a_stack_has_the_bits_of_its_rows(self, rng):
        stack = rng.uniform(0.0, 1.0, size=(4, 1000))
        stack[1, :3] = [0.0, 1e-300, 1e-16]  # clipped below
        stack[2, -2:] = [1.0, 1.0 - 2.0**-53]  # clipped above
        weights = 2.0 * np.arange(1, 1001) - 1.0
        rows = [_edf_statistics(row.copy(), weights) for row in stack]
        assert rows == [per_layer_edf_statistics(row) for row in stack]

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

    @pytest.mark.parametrize("n", [200, 2 * 16_384 + 5])
    def test_both_labels_give_one_battery(self, n):
        # the natural and the Lebesgue label name one probability law
        s, fitted = self._sample_and_fit(n=n)
        got = [(e.name, e.statistic, e.critical_1pct) for e in gof_battery(s, fitted)]
        aln = gof_battery(s, with_lebesgue_reference(fitted))
        assert [(e.name, e.statistic, e.critical_1pct) for e in aln] == got

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

    @pytest.mark.parametrize("seed", [3, 4])
    def test_sample_is_read_in_the_basis_of_the_law(self, rng, seed):
        # a law fitted in another basis: its coordinates, not the sample's, are tested
        s, _ = self._sample_and_fit(n=400, seed=seed)
        B = random_basis(3, rng)
        fitted = fit_nsd(s.with_basis(B))
        got = gof_battery(s, fitted)
        want = gof_battery(s.with_basis(B), fitted)
        assert [(e.name, e.statistic, e.critical_1pct) for e in got] == \
            [(e.name, e.statistic, e.critical_1pct) for e in want]
        assert len(got.rejections_at_1pct()) <= 1

    @pytest.mark.parametrize("n", [8, 16_385, 2 * 16_384 + 5, 100_000])
    @pytest.mark.parametrize("D", [2, 3, 5, 8])
    @pytest.mark.parametrize("basis", ["default", "random"])
    def test_statistics_have_the_per_layer_bits(self, n, D, basis):
        gen = np.random.default_rng(n + D)
        a = gen.normal(size=(D - 1, D - 1))
        law = NormalOnSimplex(gen.normal(size=D - 1), a @ a.T + 0.2 * np.eye(D - 1))
        s = sample_nsd(law, n, SeededStream(D, 1))
        if basis == "random":
            s = s.with_basis(random_basis(D, gen))
        fitted = fit_nsd(s)
        assert [e.statistic for e in gof_battery(s, fitted)] == per_layer_battery(s, fitted)

    def test_a_battery_never_holds_all_its_layers(self):
        # D = 8: 7 marginals, 21 pair angles and the radius, 29 layers of n values
        s = sample_nsd(NormalOnSimplex(np.zeros(7), np.eye(7) + 0.3), 50_000, SeededStream(8, 3))
        fitted = fit_nsd(s)
        tracemalloc.start()
        try:
            gof_battery(s, fitted)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 29 * s.n * 8  # measured: 6.2 MB against the layers' 11.6 MB

    def test_saturated_transforms_have_the_per_layer_bits(self):
        # coordinates 40 standard deviations out: ndtr and chdtr reach 0 and 1, which
        # the statistics clip
        s = sample_nsd(NormalOnSimplex([0.1, -0.2, 0.3], np.eye(3)), 16_385, SeededStream(5, 2))
        fitted = NormalOnSimplex(s.coords.mean(axis=0) + 40.0, np.eye(3))
        assert ndtr(s.coords - fitted.mu).max() < 1e-15
        assert [e.statistic for e in gof_battery(s, fitted)] == per_layer_battery(s, fitted)

    def test_law_on_other_parts_is_rejected(self):
        s, _ = self._sample_and_fit()
        with pytest.raises(DimensionMismatchError, match="basis is for 4 parts"):
            gof_battery(s, NormalOnSimplex(np.zeros(3), np.eye(3)))

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


def _on_cpus(monkeypatch, count):
    """Make the process look as if it may run on ``count`` CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


class _CountedThread(threading.Thread):
    started = 0

    def start(self):
        type(self).started += 1
        super().start()


class TestThreadedBattery:
    """From ``_THREAD_ROWS`` rows, on two CPUs or more, a second thread sorts and scores
    each layer while the calling thread forms the next; on one CPU, or below that row
    count, the battery runs inline.  Both give every statistic the same bits."""

    @staticmethod
    def _law_sample(D, n):
        gen = np.random.default_rng(D + n)
        a = gen.normal(size=(D - 1, D - 1))
        law = NormalOnSimplex(gen.normal(size=D - 1), a @ a.T + 0.2 * np.eye(D - 1))
        return sample_nsd(law, n, SeededStream(D, 4))

    @staticmethod
    def _statistics(sample, fitted):
        return [e.statistic for e in gof_battery(sample, fitted)]

    @pytest.mark.parametrize("n", [_THREAD_ROWS - 1, _THREAD_ROWS, 2 * 16_384 + 1])
    @pytest.mark.parametrize("D", [2, 3, 5, 8])
    def test_threaded_and_inline_statistics_have_the_same_bits(self, monkeypatch, D, n):
        s = self._law_sample(D, n)
        fitted = fit_nsd(s)
        # coordinates 40 standard deviations out: every marginal layer takes the clip
        far = NormalOnSimplex(fitted.mu + 40.0, fitted.sigma)
        _on_cpus(monkeypatch, 1)
        inline = [self._statistics(s, law) for law in (fitted, far)]
        _on_cpus(monkeypatch, 2)
        monkeypatch.setattr(inference, "_THREAD_ROWS", 8)  # every n takes the thread
        monkeypatch.setattr(threading, "Thread", _CountedThread)
        _CountedThread.started = 0
        assert [self._statistics(s, law) for law in (fitted, far)] == inline
        assert _CountedThread.started == 2

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_the_thread_starts_from_its_row_count_on_two_cpus(self, monkeypatch, cpus):
        _on_cpus(monkeypatch, cpus)
        monkeypatch.setattr(threading, "Thread", _CountedThread)
        for n in (_THREAD_ROWS - 1, _THREAD_ROWS):
            s = self._law_sample(3, n)
            _CountedThread.started = 0
            gof_battery(s, fit_nsd(s))
            assert _CountedThread.started == (n >= _THREAD_ROWS and cpus > 1), n

    def test_a_worker_exception_reaches_the_caller(self, monkeypatch):
        s = self._law_sample(5, 2_000)
        fitted = fit_nsd(s)
        calls = []

        def failing(z, weights, scratch=None):
            calls.append(threading.current_thread())
            if len(calls) == 3:
                raise FloatingPointError("third layer")
            return _edf_statistics(z, weights, scratch)

        _on_cpus(monkeypatch, 2)
        monkeypatch.setattr(inference, "_THREAD_ROWS", 8)
        monkeypatch.setattr(inference, "_edf_statistics", failing)
        before = threading.active_count()
        with pytest.raises(FloatingPointError, match="third layer"):
            gof_battery(s, fitted)
        assert threading.active_count() == before
        assert threading.main_thread() not in calls and len(calls) == 3

    def test_an_exception_forming_a_layer_joins_the_worker(self, monkeypatch):
        s = self._law_sample(5, 2_000)
        fitted = fit_nsd(s)

        def failing(d, x):
            raise FloatingPointError("radius layer")

        _on_cpus(monkeypatch, 2)
        monkeypatch.setattr(inference, "_THREAD_ROWS", 8)
        monkeypatch.setattr(inference, "chdtr", failing)
        before = threading.active_count()
        with pytest.raises(FloatingPointError, match="radius layer"):
            gof_battery(s, fitted)
        assert threading.active_count() == before

    def test_no_thread_outlives_a_call(self, monkeypatch):
        # a later fork inherits no thread of the battery
        _on_cpus(monkeypatch, 2)
        s = self._law_sample(3, _THREAD_ROWS)
        fitted = fit_nsd(s)
        before = threading.active_count()
        gof_battery(s, fitted)
        assert threading.active_count() == before

    def test_concurrent_batteries_each_keep_their_bits(self, monkeypatch):
        # four callers on two CPUs, each battery with its own second thread, the
        # interpreter switching threads every 10 us: a layer handed to the wrong thread or
        # a statistic lost or reordered changes a caller's list
        samples = [self._law_sample(D, 3_000) for D in (2, 3, 5, 8)]
        fits = [fit_nsd(s) for s in samples]
        _on_cpus(monkeypatch, 1)
        want = [self._statistics(s, f) for s, f in zip(samples, fits)]
        _on_cpus(monkeypatch, 2)
        monkeypatch.setattr(inference, "_THREAD_ROWS", 8)
        got = [[] for _ in samples]

        def caller(i):
            for _ in range(5):
                got[i].append(self._statistics(samples[i], fits[i]))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            callers = [threading.Thread(target=caller, args=(i,)) for i in range(len(samples))]
            for t in callers:
                t.start()
            for t in callers:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in callers)
        assert got == [[w] * 5 for w in want]

    def test_scoring_a_layer_allocates_no_array_of_n(self, rng):
        # the second thread allocates nothing of size n, so no heap of its own grows
        n = 100_000
        weights = 2.0 * np.arange(1, n + 1) - 1.0
        scratch = (np.empty(n), np.empty(n))
        u = rng.uniform(0.0, 1.0, size=n)
        u[:2] = [0.0, 1.0]  # clipped in place
        tracemalloc.start()
        try:
            _edf_statistics(u, weights, scratch)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n  # measured: 2.7 kB, against 800 kB for one array of n

    def test_scratch_arrays_give_the_bits_of_fresh_ones(self, rng):
        n = 1_000
        weights = 2.0 * np.arange(1, n + 1) - 1.0
        scratch = (np.full(n, np.nan), np.full(n, np.nan))
        for _ in range(3):  # reused, as a battery reuses them from layer to layer
            u = rng.uniform(0.0, 1.0, size=n)
            assert _edf_statistics(u.copy(), weights, scratch) == _edf_statistics(u, weights)
