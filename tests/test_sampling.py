"""Tests for seeded sampling and the Monte-Carlo averager."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codanorm import (
    AlnLaw,
    InsufficientDataError,
    LognormalLaw,
    NormalOnRPlus,
    NormalOnSimplex,
    NumericalError,
    SeededStream,
    SimplexSample,
    ait_distance,
    fit_nrp,
    fit_nsd,
    mc_expectation,
    nsd_moments,
    random_basis,
    sample_aln,
    sample_lognormal,
    sample_nrp,
    sample_nsd,
    uniform,
)
from codanorm.simplex import ilr_inv_rows


class TestSeededStream:
    def test_rejects_negative_ids(self):
        from codanorm import ValidationError

        with pytest.raises(ValidationError):
            SeededStream(-1)
        with pytest.raises(ValidationError):
            SeededStream(1, -2)

    def test_generator_restarts(self):
        s = SeededStream(123, 4)
        a = s.generator().standard_normal(5)
        b = s.generator().standard_normal(5)
        assert np.array_equal(a, b)

    def test_child_streams_differ(self):
        s = SeededStream(123)
        a = s.child(1).generator().standard_normal(5)
        b = s.child(2).generator().standard_normal(5)
        assert not np.array_equal(a, b)


class TestScalarSampling:
    def test_determinism(self):
        law = NormalOnRPlus(1.0, 4.0)
        s1 = sample_nrp(law, 100, SeededStream(5, 7))
        s2 = sample_nrp(law, 100, SeededStream(5, 7))
        assert np.array_equal(s1.logs, s2.logs)

    def test_lognormal_alias_identical_draws(self):
        nrp = NormalOnRPlus(0.3, 1.2)
        logn = LognormalLaw(0.3, 1.2)
        a = sample_nrp(nrp, 50, SeededStream(9, 0))
        b = sample_lognormal(logn, 50, SeededStream(9, 0))
        assert np.array_equal(a.logs, b.logs)

    def test_near_degenerate_law_clusters_at_mean(self):
        law = NormalOnRPlus(2.0, 1e-12)
        s = sample_nrp(law, 100, SeededStream(1, 0))
        vals = np.exp(s.logs)
        assert np.all(np.abs(vals - math.exp(2.0)) < 1e-4)

    def test_median_recovery(self):
        law = NormalOnRPlus(1.0, 4.0)
        s = sample_nrp(law, 100_000, SeededStream(17, 0))
        med = np.median(np.exp(s.logs))
        # se of the sample median of a continuous law:
        # 1/(2 sqrt(n) f(median)), with f the usual density at the median
        f_med = math.exp(-1.0) / (math.exp(1.0) * 2.0 * math.sqrt(2 * math.pi))
        se = 1.0 / (2.0 * math.sqrt(100_000) * f_med)
        assert abs(med - math.e) < 3 * se

    def test_parameter_recovery(self):
        law = NormalOnRPlus(-0.7, 0.36)
        s = sample_nrp(law, 40_000, SeededStream(23, 0))
        fitted = fit_nrp(s)
        assert abs(fitted.mu - -0.7) < 3 * math.sqrt(0.36 / 40_000)
        assert abs(fitted.sigma2 - 0.36) < 3 * 0.36 * math.sqrt(2.0 / 39_999)

    def test_stream_independence(self):
        law = NormalOnRPlus(0.0, 1.0)
        a = sample_nrp(law, 100_000, SeededStream(3, 0)).logs
        b = sample_nrp(law, 100_000, SeededStream(3, 1)).logs
        corr = np.corrcoef(a, b)[0, 1]
        assert abs(corr) < 0.01


class TestSimplexSampling:
    def test_determinism_and_aln_alias(self):
        nsd = NormalOnSimplex([0.2, -0.1], [[1.0, 0.3], [0.3, 0.8]])
        aln = AlnLaw([0.2, -0.1], [[1.0, 0.3], [0.3, 0.8]])
        s1 = sample_nsd(nsd, 64, SeededStream(4, 2))
        s2 = sample_aln(aln, 64, SeededStream(4, 2))
        assert np.array_equal(s1.rows, s2.rows)

    def test_draws_are_valid_compositions(self):
        law = NormalOnSimplex([0.0, 0.0, 0.0], np.eye(3) * 2.0)
        s = sample_nsd(law, 500, SeededStream(10, 0))
        assert np.all(s.rows > 0)
        assert np.allclose(s.rows.sum(axis=1), 1.0, atol=1e-12)

    def test_concentrated_law_clusters_at_center(self):
        law = NormalOnSimplex([0.0, 0.0], np.eye(2) * 1e-10)
        s = sample_nsd(law, 50, SeededStream(2, 0))
        for comp in s.compositions():
            assert ait_distance(comp, uniform(3)) < 1e-4

    def test_parameter_recovery(self):
        mu = np.array([0.5, -0.3])
        sigma = np.array([[0.9, 0.4], [0.4, 1.3]])
        law = NormalOnSimplex(mu, sigma)
        s = sample_nsd(law, 100_000, SeededStream(21, 0))
        fitted = fit_nsd(s)
        se_mu = np.sqrt(np.diag(sigma) / 100_000)
        assert np.all(np.abs(fitted.mu - mu) < 3 * se_mu)
        # variance entries: se ~ sigma_jj * sqrt(2/(n-1))
        se_var = np.diag(sigma) * math.sqrt(2.0 / 99_999)
        assert np.all(np.abs(np.diag(fitted.sigma) - np.diag(sigma)) < 3 * se_var)

    @given(
        D=st.integers(min_value=2, max_value=6),
        seed=st.integers(0, 2**32 - 1),
        signs=st.lists(st.sampled_from([-1.0, 1.0]), min_size=5, max_size=5),
    )
    @settings(max_examples=10, deadline=None)
    def test_parameter_recovery_far_from_the_centre(self, D, seed, signs):
        # one stream and one sigma: the standardized errors of the fitted mean
        # do not depend on mu or the basis, so the 3 SE check is not left to chance
        rng = np.random.default_rng(seed)
        mu = np.array(signs[:D - 1]) * rng.uniform(790.0, 810.0, D - 1)
        law = NormalOnSimplex(mu, 0.5 * np.eye(D - 1), random_basis(D, rng))
        fitted = fit_nsd(sample_nsd(law, 20_000, SeededStream(31, 0)))
        assert np.all(np.abs(fitted.mu - mu) < 3 * math.sqrt(0.5 / 20_000))

    @pytest.mark.parametrize("kappa", [1.0, 100.0])
    def test_rows_are_the_kernel_rows(self, kappa):
        # the sample holds ilr_inv_rows' closed rows as they are, not re-closed
        law = NormalOnSimplex([0.4, -0.2, 0.1], [[1.0, 0.3, 0.0], [0.3, 0.8, 0.1],
                                                 [0.0, 0.1, 0.5]])
        stream = SeededStream(7, 3)
        s = sample_nsd(law, 100_000, stream, kappa=kappa)
        coords = law.mu + stream.generator().standard_normal((100_000, 3)) @ law._chol.T
        assert np.array_equal(s.rows, ilr_inv_rows(coords, law.basis, kappa))

    def test_kappa_carries_through(self):
        law = NormalOnSimplex([0.0, 0.0], np.eye(2))
        s = sample_nsd(law, 10, SeededStream(0, 0), kappa=100.0)
        assert s.kappa == 100.0
        # rows live on the declared closure scale, like Composition.parts
        assert np.allclose(s.rows.sum(axis=1), 100.0, atol=1e-10)
        assert np.allclose(
            [c.parts.sum() for c in s.compositions()], 100.0, atol=1e-10
        )
        # the coordinates are scale-free: same draws at kappa=1 have the same
        s1 = sample_nsd(law, 10, SeededStream(0, 0), kappa=1.0)
        assert np.allclose(s1.coords, s.coords, atol=1e-12)


class TestSampleBlocks:
    """``sample_nsd`` runs its two products a block of rows at a time into whole arrays;
    every clr row has the bits of the whole-array products of the same stream."""

    @staticmethod
    def _law(d, label, basis):
        gen = np.random.default_rng(d)
        a = gen.normal(size=(d, d))
        args = (gen.normal(0.0, 1.0, d), a @ a.T / d + 0.3 * np.eye(d))
        if basis == "random":
            args += (random_basis(d + 1, gen),)
        return (NormalOnSimplex if label == "nsd" else AlnLaw)(*args)

    @staticmethod
    def _whole_array_clr(law, n, stream):
        z = stream.generator().standard_normal((n, law.dim))
        coords = law._chol @ z.T
        coords += law.mu[:, None]
        return coords.T @ law.basis.matrix.T

    @pytest.mark.parametrize("n", [1, 16_384, 16_385, 16_386, 32_769, 100_000])
    @pytest.mark.parametrize("d", range(1, 8))
    @pytest.mark.parametrize("label", ["nsd", "aln"])
    @pytest.mark.parametrize("basis", ["default", "random"])
    def test_rows_have_the_bits_of_whole_array_products(self, n, d, label, basis):
        law = self._law(d, label, basis)
        stream = SeededStream(d, n)
        s = (sample_nsd if label == "nsd" else sample_aln)(law, n, stream)
        want = self._whole_array_clr(law, n, stream)
        assert s._clr.shape == want.shape and s._clr.tobytes() == want.tobytes()

    def test_vectorized_mc_keeps_its_estimate_bits(self):
        law = self._law(4, "nsd", "default")
        stream = SeededStream(12, 5)
        est = mc_expectation(lambda rows: rows[:, 0] * rows[:, 4], law, 100_000, stream,
                             vectorized=True)
        rows = SimplexSample._from_clr(self._whole_array_clr(law, 100_000, stream), 1.0,
                                       law.basis).rows
        vals = rows[:, 0] * rows[:, 4]
        assert (est.estimate, est.standard_error) == \
            (float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(100_000)))


class TestMcExpectation:
    def test_constant_function(self):
        law = NormalOnRPlus(0.0, 1.0)
        est = mc_expectation(lambda x: 1.0, law, 200, SeededStream(1, 0))
        assert est.estimate == 1.0
        assert est.standard_error == 0.0
        assert est.n == 200

    def test_metric_variance_of_simplex_law(self):
        # E d_a(X, center)^2 = trace(Sigma) = 2 for the round law
        law = NormalOnSimplex([0.0, 0.0], np.eye(2))
        center = nsd_moments(law).center
        est = mc_expectation(
            lambda c: ait_distance(c, center) ** 2, law, 20_000, SeededStream(6, 0)
        )
        assert abs(est.estimate - 2.0) < 3 * est.standard_error

    def test_vectorized_and_scalar_agree(self):
        law = NormalOnRPlus(0.5, 0.8)
        f_scalar = lambda v: v.log ** 2
        f_vec = lambda arr: np.log(arr) ** 2
        a = mc_expectation(f_scalar, law, 500, SeededStream(8, 3))
        b = mc_expectation(f_vec, law, 500, SeededStream(8, 3), vectorized=True)
        assert a.estimate == pytest.approx(b.estimate, rel=1e-12)

    def test_simplex_vectorized_first_part(self):
        law = NormalOnSimplex([0.0, 0.0], np.eye(2))
        est = mc_expectation(
            lambda rows: rows[:, 0], law, 50_000, SeededStream(12, 0), vectorized=True
        )
        # by symmetry the first-part mean is exactly 1/3
        assert abs(est.estimate - 1 / 3) < 3 * est.standard_error

    @pytest.mark.parametrize("mu", [800.0, -800.0])
    def test_far_line_law_refuses_values_outside_the_float_range(self, mu):
        # every exp(log) passes the largest float at mu = 800 and falls below the
        # smallest normal float at mu = -800, where it was inf or 0.0 with a numpy warning
        law = NormalOnRPlus(mu, 1.0)
        with pytest.raises(NumericalError, match="200 of 200 draws lie outside the float range"):
            mc_expectation(np.log, law, 200, SeededStream(1), vectorized=True)
        # one at a time, each value keeps its log
        est = mc_expectation(lambda v: v.log, law, 200, SeededStream(1))
        assert abs(est.estimate - mu) < 0.3

    def test_line_values_below_the_smallest_normal_float_are_counted(self):
        law = NormalOnRPlus(-706.0, 1.0)
        with pytest.raises(NumericalError, match="2 of 200 draws lie outside the float range"):
            mc_expectation(np.log, law, 200, SeededStream(1), vectorized=True)

    def test_far_simplex_law_keeps_parts_below_the_float_range_as_zero(self):
        law = NormalOnSimplex([800.0, 0.0], 0.1 * np.eye(2))
        parts = [mc_expectation(lambda rows, k=k: rows[:, k], law, 200, SeededStream(1),
                                vectorized=True).estimate for k in range(3)]
        assert parts[:2] == [1.0, 0.0] and 0.0 < parts[2] < 1e-200

    def test_needs_hundred_draws(self):
        law = NormalOnRPlus(0.0, 1.0)
        with pytest.raises(InsufficientDataError):
            mc_expectation(lambda x: 1.0, law, 99, SeededStream(1, 0))

    def test_bad_output_shape_rejected(self):
        from codanorm import ValidationError

        law = NormalOnRPlus(0.0, 1.0)
        with pytest.raises(ValidationError):
            mc_expectation(
                lambda arr: arr.reshape(-1, 1), law, 100, SeededStream(1, 0),
                vectorized=True,
            )
