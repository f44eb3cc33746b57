"""Tests for the four probability laws and the measure bridges between them.

The scalar reference values are frozen from closed forms evaluated
independently; integrals are cross-checked against adaptive quadrature and
Monte Carlo oracles computed inside the tests.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats
from scipy.special import logsumexp, ndtr

from codanorm import (
    AlnLaw,
    BadIntervalError,
    Composition,
    DegenerateScaleError,
    DimensionMismatchError,
    LognormalLaw,
    NormalOnRPlus,
    NormalOnSimplex,
    NotSPDError,
    PermutationMap,
    PositiveValue,
    QuadratureUnstableError,
    SeededStream,
    SelectionMatrix,
    aln_classical_mean,
    aln_pdf,
    closure,
    coordinate_density_grid,
    default_basis,
    gof_battery,
    ilr,
    ilr_inv,
    lognormal_moments,
    lognormal_naive_interval,
    lognormal_pdf,
    mc_expectation,
    nrp_interval,
    nrp_moments,
    nrp_pdf,
    nrp_transform,
    nsd_moments,
    nsd_pdf,
    nsd_permute,
    nsd_subcomposition,
    nsd_transform,
    perturb,
    power,
    probability_of_box,
    probability_of_interval,
    random_basis,
    rp_add,
    rp_distance,
    rp_measure_ratio,
    sample_aln,
    sample_lognormal,
    sample_nrp,
    sample_nsd,
    sd_measure_ratio,
    ternary_density_grid,
    uniform,
    with_lebesgue_reference,
    with_natural_reference,
)
from codanorm.laws import (
    _line_logpdf,
    _simplex_logpdf,
    aln_pdf_rows,
    nsd_logpdf_coords,
    nsd_pdf_rows,
)
from codanorm.simplex import ilr_inv_rows

INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


class TestScalarLawConstruction:
    def test_requires_positive_variance(self):
        for bad in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(DegenerateScaleError):
                NormalOnRPlus(0.0, bad)
            with pytest.raises(DegenerateScaleError):
                LognormalLaw(0.0, bad)

    def test_sigma_accessor(self):
        assert NormalOnRPlus(0.0, 4.0).sigma == 2.0


class TestNrpDensity:
    def test_value_at_mode(self):
        law = NormalOnRPlus(0.0, 1.0)
        assert nrp_pdf(law, 1.0) == pytest.approx(INV_SQRT_2PI, abs=1e-15)

    def test_value_one_sigma_out(self):
        law = NormalOnRPlus(0.0, 1.0)
        assert nrp_pdf(law, math.e) == pytest.approx(
            INV_SQRT_2PI * math.exp(-0.5), abs=1e-15
        )

    def test_perturbation_invariance(self):
        # moving both the law and the point by a leaves the density unchanged
        law = NormalOnRPlus(0.4, 2.3)
        for a, x in ((2.0, 1.5), (0.01, 9.0), (250.0, 0.2)):
            shifted = nrp_transform(law, a, 1.0)
            assert nrp_pdf(shifted, rp_add(a, x)) == pytest.approx(
                nrp_pdf(law, x), abs=1e-12
            )

    def test_normalizes_over_natural_measure(self):
        # integrate f(e^t) dt over the coordinate line
        law = NormalOnRPlus(1.3, 0.7)
        val, _ = integrate.quad(
            lambda t: nrp_pdf(law, PositiveValue.from_log(t)), -np.inf, np.inf
        )
        assert val == pytest.approx(1.0, abs=1e-8)

    def test_isodensity_symmetry_in_coordinates(self):
        law = NormalOnRPlus(0.8, 1.9)
        for t in (0.1, 0.5, 2.0, 5.0):
            lo = PositiveValue.from_log(0.8 - t)
            hi = PositiveValue.from_log(0.8 + t)
            assert nrp_pdf(law, lo) == pytest.approx(nrp_pdf(law, hi), rel=1e-12)


class TestLognormalDensity:
    def test_zero_outside_support(self):
        law = LognormalLaw(0.0, 1.0)
        assert lognormal_pdf(law, -2.0) == 0.0
        assert lognormal_pdf(law, 0.0) == 0.0

    def test_value_at_one(self):
        assert lognormal_pdf(LognormalLaw(0.0, 1.0), 1.0) == pytest.approx(
            INV_SQRT_2PI, abs=1e-15
        )

    def test_is_nrp_times_measure_ratio(self):
        nrp = NormalOnRPlus(0.5, 2.0)
        logn = LognormalLaw(0.5, 2.0)
        for x in (0.05, 0.8, 3.0, 40.0):
            assert lognormal_pdf(logn, x) == pytest.approx(
                nrp_pdf(nrp, x) * rp_measure_ratio(x), rel=1e-12
            )

    def test_normalizes_over_lebesgue(self):
        law = LognormalLaw(-0.3, 1.6)
        val, _ = integrate.quad(lambda x: lognormal_pdf(law, x), 0, np.inf)
        assert val == pytest.approx(1.0, abs=1e-8)

    def test_density_past_the_float_range_is_inf(self):
        # ln f = -ln(2 pi)/2 + 712 at the median: past ln(1.8e308) = 709.78
        assert lognormal_pdf(LognormalLaw(-712.0, 1.0), math.exp(-712.0)) == math.inf
        assert lognormal_pdf(LognormalLaw(-700.0, 1.0), math.exp(-700.0)) == pytest.approx(
            INV_SQRT_2PI * math.exp(700.0), rel=1e-12
        )


class TestScalarMoments:
    def test_nrp_center_coincidence(self):
        m = nrp_moments(NormalOnRPlus(2.0, 5.0))
        assert m.mean == PositiveValue(math.exp(2.0))
        assert m.median == m.mean
        assert m.mode == m.mean
        assert m.metric_variance == 5.0

    def test_nrp_standard(self):
        m = nrp_moments(NormalOnRPlus(0.0, 1.0))
        assert m.mean.value == pytest.approx(1.0, rel=1e-15)
        assert m.metric_variance == 1.0

    def test_lognormal_moments_against_quadrature(self):
        law = LognormalLaw(0.0, 1.0)
        m = lognormal_moments(law)
        mean_quad, _ = integrate.quad(
            lambda x: x * lognormal_pdf(law, x), 0, np.inf
        )
        assert m.mean == pytest.approx(mean_quad, rel=1e-9)
        assert m.mean == pytest.approx(math.exp(0.5), rel=1e-14)
        assert m.median == pytest.approx(1.0, rel=1e-14)
        assert m.mode == pytest.approx(math.exp(-1.0), rel=1e-14)
        var_quad, _ = integrate.quad(
            lambda x: (x - mean_quad) ** 2 * lognormal_pdf(law, x), 0, np.inf
        )
        assert m.variance == pytest.approx(var_quad, rel=1e-7)

    def test_mode_median_mean_strictly_ordered(self):
        for mu, s2 in ((0.0, 1.0), (2.0, 0.25), (-1.0, 3.0)):
            m = lognormal_moments(LognormalLaw(mu, s2))
            assert m.mode < m.median < m.mean


class TestIntervals:
    def test_nrp_interval_standard(self):
        lo, hi = nrp_interval(NormalOnRPlus(0.0, 1.0), 1.0)
        assert lo == PositiveValue(math.exp(-1.0))
        assert hi == PositiveValue(math.e)

    def test_interval_width_in_natural_metric(self):
        law = NormalOnRPlus(1.7, 2.25)
        for k in (0.5, 1.0, 2.0):
            lo, hi = nrp_interval(law, k)
            assert rp_distance(lo, hi) == pytest.approx(2 * k * 1.5, abs=1e-12)

    def test_interval_endpoints_isodense(self):
        law = NormalOnRPlus(1.7, 2.25)
        lo, hi = nrp_interval(law, 1.3)
        assert nrp_pdf(law, lo) == pytest.approx(nrp_pdf(law, hi), rel=1e-12)

    def test_naive_interval_quoted_values(self):
        ni = lognormal_naive_interval(LognormalLaw(0.0, 1.0), 1.0)
        assert ni.lower == pytest.approx(-0.512, abs=1e-3)
        assert ni.upper == pytest.approx(3.810, abs=1e-3)
        assert not ni.lower_in_support
        assert ni.upper_in_support

    def test_naive_interval_full_precision(self):
        ni = lognormal_naive_interval(LognormalLaw(0.0, 1.0), 1.0)
        mean = math.exp(0.5)
        sd = math.sqrt((math.e - 1) * math.e)
        assert ni.lower == pytest.approx(mean - sd, rel=1e-14)
        assert ni.upper == pytest.approx(mean + sd, rel=1e-14)


class TestProbabilityOfInterval:
    def test_standard_interval(self):
        law = NormalOnRPlus(0.0, 1.0)
        want = stats.norm.cdf(1) - stats.norm.cdf(-1)
        assert probability_of_interval(law, math.exp(-1), math.e) == pytest.approx(
            want, abs=1e-14
        )

    def test_total_mass(self):
        law = LognormalLaw(2.0, 0.5)
        assert probability_of_interval(law, 1e-300, np.inf) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_same_probability_law(self, rng):
        # the two scalar laws assign identical probability to every interval
        for _ in range(25):
            mu = rng.uniform(-2, 2)
            s2 = rng.uniform(0.1, 4.0)
            q = np.sort(rng.uniform(-3, 3, size=2))
            a, b = np.exp(mu + math.sqrt(s2) * q)
            p_nrp = probability_of_interval(NormalOnRPlus(mu, s2), a, b)
            p_log = probability_of_interval(LognormalLaw(mu, s2), a, b)
            assert abs(p_nrp - p_log) < 1e-12

    def test_upper_tail_keeps_relative_accuracy(self):
        # 1 - cdf cancels to 0 here; the true mass is about 1.3e-117
        z = math.log(1e10)
        want = 0.5 * math.erfc(z / math.sqrt(2.0))
        p_nrp = probability_of_interval(NormalOnRPlus(0.0, 1.0), 1e10, np.inf)
        p_log = probability_of_interval(LognormalLaw(0.0, 1.0), 1e10, np.inf)
        assert p_nrp == pytest.approx(want, rel=1e-6, abs=0.0)
        assert p_nrp == p_log

    def test_bad_interval(self):
        law = NormalOnRPlus(0.0, 1.0)
        with pytest.raises(BadIntervalError):
            probability_of_interval(law, 2.0, 1.0)
        with pytest.raises(BadIntervalError):
            probability_of_interval(law, -1.0, 1.0)


class TestNrpTransform:
    def test_parameter_transport(self):
        law = NormalOnRPlus(1.5, 0.8)
        out = nrp_transform(law, a=2.0, b=3.0)
        assert out.mu == math.log(2.0) + 3.0 * 1.5
        assert out.sigma2 == 9.0 * 0.8

    def test_preserves_law_class(self):
        out = nrp_transform(LognormalLaw(0.0, 1.0), a=1.0, b=2.0)
        assert isinstance(out, LognormalLaw)

    def test_degenerate_scale(self):
        with pytest.raises(DegenerateScaleError):
            nrp_transform(NormalOnRPlus(0.0, 1.0), a=1.0, b=0.0)


class TestSimplexLawConstruction:
    def test_requires_spd(self):
        with pytest.raises(NotSPDError):
            NormalOnSimplex([0.0, 0.0], [[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(NotSPDError):
            NormalOnSimplex([0.0, 0.0], np.zeros((2, 2)))

    def test_dimension_consistency(self):
        with pytest.raises(DimensionMismatchError):
            NormalOnSimplex([0.0, 0.0, 0.0], np.eye(2))
        with pytest.raises(DimensionMismatchError):
            NormalOnSimplex([0.0], np.eye(1), basis=default_basis(3))

    def test_reference_measure_round_trip(self):
        law = NormalOnSimplex([0.1, -0.2], [[1.0, 0.3], [0.3, 2.0]])
        twin = with_lebesgue_reference(law)
        assert isinstance(twin, AlnLaw)
        back = with_natural_reference(twin)
        assert isinstance(back, NormalOnSimplex)
        assert np.array_equal(back.mu, law.mu)
        assert np.array_equal(back.sigma, law.sigma)


class TestSimplexDensities:
    def test_nsd_value_at_center(self):
        law = NormalOnSimplex([0.0, 0.0], np.eye(2))
        assert nsd_pdf(law, uniform(3)) == pytest.approx(1.0 / (2 * math.pi), abs=1e-15)

    def test_aln_value_at_center(self):
        law = AlnLaw([0.0, 0.0], np.eye(2))
        want = 27.0 / (2 * math.pi * math.sqrt(3.0))
        assert aln_pdf(law, uniform(3)) == pytest.approx(want, rel=1e-14)

    def test_aln_nsd_ratio_is_measure_ratio(self, rng):
        nsd = NormalOnSimplex([0.3, -0.5], [[0.8, 0.2], [0.2, 1.1]])
        aln = with_lebesgue_reference(nsd)
        for _ in range(20):
            x = closure(np.exp(rng.uniform(-4, 4, 3)))
            assert aln_pdf(aln, x) / nsd_pdf(nsd, x) == pytest.approx(
                sd_measure_ratio(x), rel=1e-12
            )

    def test_nsd_perturbation_invariance(self, rng):
        law = NormalOnSimplex([0.4, -0.1], [[1.0, -0.3], [-0.3, 0.7]])
        for _ in range(10):
            a = closure(np.exp(rng.uniform(-3, 3, 3)))
            x = closure(np.exp(rng.uniform(-3, 3, 3)))
            moved = nsd_transform(law, a, 1.0)
            assert nsd_pdf(moved, perturb(a, x)) == pytest.approx(
                nsd_pdf(law, x), rel=1e-12
            )

    def test_aln_density_where_a_part_reads_as_zero(self):
        # the Lebesgue factor comes from the clr image, not from the parts
        x = ilr_inv([530.0, 0.0])
        assert x.parts[1] == 0.0
        clr = 530.0 / math.sqrt(2.0) * np.array([1.0, -1.0, 0.0])
        top = clr.max()
        log_parts = clr - top - math.log(np.exp(clr - top).sum())
        want = -math.log(2.0 * math.pi) - 0.5 * 30.0**2 - 0.5 * math.log(3.0) - log_parts.sum()
        got = math.log(aln_pdf(AlnLaw([500.0, 0.0], np.eye(2)), x))
        assert got == pytest.approx(want, rel=1e-9)
        assert got == pytest.approx(671.912598875, rel=1e-11)

    def test_aln_is_not_perturbation_invariant(self):
        # witness: unlike the natural-measure density, the Lebesgue density
        # changes when both the law and the point are perturbed
        law = AlnLaw([0.0, 0.0], np.eye(2))
        a = closure([0.7, 0.2, 0.1])
        x = uniform(3)
        moved = nsd_transform(law, a, 1.0)
        assert abs(aln_pdf(moved, perturb(a, x)) - aln_pdf(law, x)) > 1e-3

    def test_mode_at_ilr_inv_mu(self):
        mu = np.array([0.7, -0.4])
        law = NormalOnSimplex(mu, [[0.5, 0.1], [0.1, 0.9]])
        mode = ilr_inv(mu)
        fmode = nsd_pdf(law, mode)
        rng = np.random.default_rng(5)
        for _ in range(50):
            other = ilr_inv(mu + rng.normal(0, 0.5, 2))
            assert nsd_pdf(law, other) <= fmode + 1e-15

    def test_nsd_normalizes_on_coordinate_grid(self):
        # tensor Gauss-Legendre over a wide truncated coordinate box
        law = NormalOnSimplex([0.2, -0.3], [[1.0, 0.4], [0.4, 2.0]])
        nodes, weights = np.polynomial.legendre.leggauss(120)
        half = 9.0
        t = half * nodes
        w = half * weights
        X, Y = np.meshgrid(t, t, indexing="ij")
        pts = np.column_stack([X.ravel() + 0.2, Y.ravel() - 0.3])
        vals = np.exp(nsd_logpdf_coords(law, pts)).reshape(120, 120)
        total = w @ vals @ w
        assert total == pytest.approx(1.0, rel=1e-4)

    def test_aln_normalizes_against_lebesgue(self):
        # MC over the flat (uniform Dirichlet) law, whose density against
        # Lebesgue measure of the free parts is (D-1)! = 2 for D=3, so
        # integral(aln) = E_flat[aln] / 2
        rng = np.random.default_rng(42)
        rows = rng.dirichlet([1.0, 1.0, 1.0], size=200_000)
        law = AlnLaw([0.1, -0.2], [[0.7, 0.2], [0.2, 1.2]])
        from codanorm.laws import aln_pdf_rows

        weights = aln_pdf_rows(law, rows) / 2.0
        est = weights.mean()
        se = weights.std(ddof=1) / math.sqrt(len(weights))
        assert abs(est - 1.0) < 3 * se


# hypothesis strategy: a simplex law's D (2..6), random basis and a coordinate row
# up to +-1e3, where most parts lie below the smallest float and read as 0.0
@st.composite
def far_simplex_points(draw):
    D = draw(st.integers(min_value=2, max_value=6))
    basis = random_basis(D, np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    box = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)
    return basis, np.array(draw(st.lists(box, min_size=D - 1, max_size=D - 1)))


class TestLogDensityKernels:
    """One kernel per space; the Lebesgue tag adds the log measure ratio."""

    # the difference of two kernel values of size (t - mu)**2 / (2 sigma2) carries their
    # rounding, so sigma2 >= 1 (as sigma = I on the simplex) keeps it below the tolerance
    @given(t=st.floats(min_value=-700.0, max_value=700.0),
           mu=st.floats(min_value=-50.0, max_value=50.0),
           sigma2=st.floats(min_value=1.0, max_value=100.0))
    @settings(max_examples=300, deadline=None)
    def test_line_kernels_differ_by_minus_t(self, t, mu, sigma2):
        natural = _line_logpdf(NormalOnRPlus(mu, sigma2), t)
        lebesgue = _line_logpdf(LognormalLaw(mu, sigma2), t)
        assert math.isfinite(natural) and math.isfinite(lebesgue)
        assert abs((lebesgue - natural) - (-t)) <= 1e-12 * max(1.0, abs(t))

    @given(far=far_simplex_points())
    @settings(max_examples=300, deadline=None)
    def test_simplex_kernels_differ_by_the_log_measure_ratio(self, far):
        basis, y = far
        D = basis.D
        clr = basis.matrix @ y
        mu, sigma = np.zeros(D - 1), np.eye(D - 1)
        natural = _simplex_logpdf(NormalOnSimplex(mu, sigma, basis), clr[None])[0]
        lebesgue = _simplex_logpdf(AlnLaw(mu, sigma, basis), clr[None])[0]
        ref = -0.5 * math.log(D) + D * logsumexp(clr)
        assert math.isfinite(natural) and math.isfinite(lebesgue)
        assert abs((lebesgue - natural) - ref) <= 1e-12 * max(1.0, abs(ref))

    def test_kernels_are_finite_where_the_densities_underflow(self):
        x = closure([1e-300, 1.0, 1.0])
        nsd = NormalOnSimplex([0.0, 0.0], np.eye(2))
        aln = with_lebesgue_reference(nsd)
        assert nsd_pdf(nsd, x) == 0.0
        assert aln_pdf(aln, x) == 0.0
        assert nsd_pdf_rows(nsd, x.parts[None])[0] == 0.0
        assert aln_pdf_rows(aln, x.parts[None])[0] == 0.0
        # the clr image of x, whose squared norm is the squared coordinate norm
        clr = math.log(1e-300) * np.array([2.0, -1.0, -1.0]) / 3.0
        natural = _simplex_logpdf(nsd, clr[None])[0]
        lebesgue = _simplex_logpdf(aln, clr[None])[0]
        want = -math.log(2.0 * math.pi) - 0.5 * float(np.sum(clr**2))
        assert natural == pytest.approx(want, rel=1e-12)
        assert lebesgue == pytest.approx(want - 0.5 * math.log(3.0) - math.log(1e-300 / 8.0),
                                         rel=1e-12)
        line = _line_logpdf(NormalOnRPlus(0.0, 1.0), math.log(1e-300))
        assert nrp_pdf(NormalOnRPlus(0.0, 1.0), 1e-300) == 0.0
        assert line == pytest.approx(-0.5 * math.log(1e-300) ** 2 - 0.5 * math.log(2 * math.pi),
                                     rel=1e-12)

    def test_simplex_values_past_the_float_range_are_inf(self):
        # as on the line; ilr_inv([800, 0]) has clr (566, -566, 0), so the ratio is near exp(1697)
        far = ilr_inv([800.0, 0.0])
        assert sd_measure_ratio(far) == math.inf
        assert aln_pdf(AlnLaw([800.0, 0.0], 1e-4 * np.eye(2)), far) == math.inf


class TestSimplexMoments:
    def test_center_and_variance(self):
        mu = np.array([0.3, -0.6])
        law = NormalOnSimplex(mu, [[1.0, 0.0], [0.0, 1.5]])
        m = nsd_moments(law)
        assert m.center == ilr_inv(mu)
        assert m.metric_variance == 2.5

    def test_center_of_origin_law_is_uniform(self):
        m = nsd_moments(NormalOnSimplex([0.0, 0.0], np.eye(2)))
        assert m.center == uniform(3)


class TestSimplexTransforms:
    def test_identity_transform(self):
        law = NormalOnSimplex([0.1, 0.2], [[1.0, 0.1], [0.1, 1.0]])
        out = nsd_transform(law, uniform(3), 1.0)
        assert np.allclose(out.mu, law.mu, atol=1e-15)
        assert np.allclose(out.sigma, law.sigma, atol=1e-15)

    def test_scaling_by_sqrt3_triples_covariance(self):
        law = NormalOnSimplex([0.1, 0.2], [[0.5, -0.2], [-0.2, 0.8]])
        out = nsd_transform(law, uniform(3), math.sqrt(3.0))
        assert np.allclose(out.sigma, 3.0 * law.sigma, atol=1e-12)
        assert np.allclose(out.mu, math.sqrt(3.0) * law.mu, atol=1e-12)

    def test_pure_translation(self):
        law = NormalOnSimplex([0.0, 0.0], np.eye(2))
        a = ilr_inv(np.array([1.0, -1.0]))
        out = nsd_transform(law, a, 1.0)
        assert np.allclose(out.mu, [1.0, -1.0], atol=1e-12)

    def test_degenerate_scale(self):
        law = NormalOnSimplex([0.0, 0.0], np.eye(2))
        with pytest.raises(DegenerateScaleError):
            nsd_transform(law, uniform(3), 0.0)

    def test_permute_identity_and_inverse(self):
        law = NormalOnSimplex([0.4, -0.2], [[0.9, 0.3], [0.3, 1.4]])
        ident = nsd_permute(law, PermutationMap([0, 1, 2]))
        assert np.allclose(ident.mu, law.mu, atol=1e-14)
        assert np.allclose(ident.sigma, law.sigma, atol=1e-14)
        p = PermutationMap([2, 0, 1])
        pinv = PermutationMap([1, 2, 0])
        back = nsd_permute(nsd_permute(law, p), pinv)
        assert np.allclose(back.mu, law.mu, atol=1e-10)
        assert np.allclose(back.sigma, law.sigma, atol=1e-10)

    def test_permute_matches_coordinate_map(self):
        law = NormalOnSimplex([0.4, -0.2], [[0.9, 0.3], [0.3, 1.4]])
        p = PermutationMap([1, 2, 0])
        U = default_basis(3).matrix
        M = U.T @ p.matrix @ U
        out = nsd_permute(law, p)
        assert np.allclose(out.mu, M @ law.mu, atol=1e-12)
        assert np.allclose(out.sigma, M @ law.sigma @ M.T, atol=1e-12)

    def test_subcomposition_matches_coordinate_map(self):
        law = NormalOnSimplex(
            [0.4, -0.2, 0.6], np.array([[0.9, 0.2, 0.1], [0.2, 1.1, -0.3], [0.1, -0.3, 0.8]])
        )
        sel = SelectionMatrix([0, 2], D=4)
        U = default_basis(4).matrix
        Ustar = default_basis(2).matrix
        M = Ustar.T @ sel.matrix @ U
        out = nsd_subcomposition(law, sel)
        assert out.D == 2
        assert np.allclose(out.mu, M @ law.mu, atol=1e-12)
        assert np.allclose(out.sigma, M @ law.sigma @ M.T, atol=1e-12)

    def test_subcomposition_law_matches_sample_subcompositions(self):
        # samples of the big law, restricted to the kept parts, behave like
        # samples of the transported law
        law = NormalOnSimplex([0.2, -0.1, 0.3], np.eye(3) * 0.6)
        sel = SelectionMatrix([1, 2, 3], D=4)
        sub_law = nsd_subcomposition(law, sel)
        sample = sample_aln(with_lebesgue_reference(law), 50_000, SeededStream(7, 0))
        sub_rows = sample.rows[:, sel.indices]
        sub_rows = sub_rows / sub_rows.sum(axis=1, keepdims=True)
        from codanorm.simplex import ilr_rows

        coords = ilr_rows(sub_rows)
        se = coords.std(axis=0, ddof=1) / math.sqrt(len(coords))
        assert np.all(np.abs(coords.mean(axis=0) - sub_law.mu) < 3 * se)


class TestClassicalMean:
    def test_concentrated_law_means_at_center(self):
        law = AlnLaw([0.0, 0.0], 1e-8 * np.eye(2))
        m = aln_classical_mean(law)
        assert np.allclose(m, [1 / 3, 1 / 3, 1 / 3], atol=1e-6)

    def test_symmetric_law_has_equal_components(self):
        m = aln_classical_mean(AlnLaw([0.0, 0.0], np.eye(2)))
        assert np.allclose(m, m[0], atol=1e-9)
        assert m.sum() == pytest.approx(1.0, abs=1e-9)

    def test_matches_monte_carlo(self):
        law = AlnLaw([-1.0, 1.0], np.eye(2))
        m = aln_classical_mean(law)
        rng = np.random.default_rng(321)
        draws = rng.multivariate_normal(law.mu, law.sigma, size=1_000_000)
        parts = ilr_inv_rows(draws)
        se = parts.std(axis=0, ddof=1) / math.sqrt(len(parts))
        assert np.all(np.abs(m - parts.mean(axis=0)) < 3 * se)

    def test_unstable_quadrature_is_an_error(self):
        law = AlnLaw([0.0, 0.0], 4.0 * np.eye(2))
        with pytest.raises(QuadratureUnstableError):
            aln_classical_mean(law, order=2)

    def test_high_dimension_falls_back_to_mc(self):
        law = AlnLaw(np.zeros(5), 0.5 * np.eye(5))
        m = aln_classical_mean(law)
        assert m.shape == (6,)
        assert np.all(m > 0)
        assert m.sum() == pytest.approx(1.0, abs=1e-2)
        # symmetric parameters: all components statistically equal
        assert np.allclose(m, 1 / 6, atol=5e-3)


class TestProbabilityOfBox:
    def test_whole_space(self):
        law = NormalOnSimplex([0.0, 0.0], np.eye(2))
        assert probability_of_box(law, [-np.inf, -np.inf], [np.inf, np.inf]) == 1.0

    def test_empty_box(self):
        law = NormalOnSimplex([0.0, 0.0], np.eye(2))
        assert probability_of_box(law, [1.0, 1.0], [-1.0, -1.0]) == 0.0

    def test_independent_standard_box(self):
        law = NormalOnSimplex([0.0, 0.0], np.eye(2))
        want = (stats.norm.cdf(1) - stats.norm.cdf(-1)) ** 2
        assert probability_of_box(law, [-1.0, -1.0], [1.0, 1.0]) == pytest.approx(
            want, abs=1e-12
        )

    def test_paired_laws_agree(self):
        nsd = NormalOnSimplex([0.3, -0.2], [[1.0, 0.4], [0.4, 0.8]])
        aln = with_lebesgue_reference(nsd)
        p1 = probability_of_box(nsd, [-0.5, -1.0], [1.0, 0.5])
        p2 = probability_of_box(aln, [-0.5, -1.0], [1.0, 0.5])
        assert p1 == p2

    def test_two_part_upper_tail_keeps_relative_accuracy(self):
        want = 0.5 * math.erfc(9.0 / math.sqrt(2.0))
        nsd = NormalOnSimplex([0.0], [[1.0]])
        p_nsd = probability_of_box(nsd, [9.0], [np.inf])
        p_aln = probability_of_box(with_lebesgue_reference(nsd), [9.0], [np.inf])
        assert p_nsd == pytest.approx(want, rel=1e-6, abs=0.0)
        assert p_nsd == p_aln

    @pytest.mark.parametrize("d", [3, 4])
    def test_one_number_per_law_and_box(self, d):
        # the d >= 3 integrator is randomized QMC; its fixed seed makes every
        # call and both labels return the same float
        a = np.random.default_rng(d).standard_normal((d, d))
        nsd = NormalOnSimplex(np.linspace(-0.3, 0.3, d), a @ a.T + d * np.eye(d))
        lower, upper = -np.ones(d), np.linspace(0.5, 1.5, d)
        ps = [probability_of_box(nsd, lower, upper) for _ in range(4)]
        ps.append(probability_of_box(with_lebesgue_reference(nsd), lower, upper))
        assert len(set(ps)) == 1, ps

    def test_independent_standard_box_d3(self):
        law = NormalOnSimplex(np.zeros(3), np.eye(3))
        want = (ndtr(1.0) - ndtr(-1.0)) ** 3
        assert probability_of_box(law, -np.ones(3), np.ones(3)) == pytest.approx(
            want, abs=1e-5
        )

    def test_two_part_simplex_uses_scalar_cdf(self):
        law = NormalOnSimplex([0.5], [[4.0]], basis=default_basis(2))
        want = stats.norm.cdf((1.0 - 0.5) / 2.0) - stats.norm.cdf((-1.0 - 0.5) / 2.0)
        assert probability_of_box(law, [-1.0], [1.0]) == pytest.approx(want, abs=1e-14)


def _tensor_gh_mean(law, order):
    """Tensor Gauss-Hermite mean of the parts, one first-axis node at a time."""
    z, w = np.polynomial.hermite_e.hermegauss(order)
    w = w / w.sum()
    d = law.dim
    grids = np.meshgrid(*([z] * (d - 1)), indexing="ij")
    rest = np.stack(grids, -1).reshape(-1, d - 1) if d > 1 else np.zeros((1, 0))
    w_rest = np.ones(1)
    for _ in range(d - 1):
        w_rest = np.multiply.outer(w_rest, w).ravel()
    total = np.zeros(law.D)
    for z0, w0 in zip(z, w):
        nodes = np.column_stack([np.full(len(rest), z0), rest])
        total += w0 * (w_rest @ ilr_inv_rows(law.mu + nodes @ law._chol.T, law.basis))
    return total


def _benchmark_like_law(rng, d):
    """The coordinate law shape of the benchmark's simplex inputs."""
    a = rng.normal(0.0, 0.4, (d, d))
    return rng.uniform(-0.5, 0.5, d), a @ a.T / d + 0.1 * np.eye(d)


class TestSparseGridClassicalMean:
    @pytest.mark.parametrize(
        "d, s",
        [(d, s) for d in (1, 2, 3) for s in (0.25, 1.0, 4.0)] + [(4, 0.25), (4, 1.0)],
    )
    def test_matches_tensor_gauss_hermite(self, d, s):
        mu, _ = _benchmark_like_law(np.random.default_rng(600 + d), d)
        law = AlnLaw(mu, s * np.eye(d))
        ref40, ref60 = _tensor_gh_mean(law, 40), _tensor_gh_mean(law, 60)
        assert np.max(np.abs(ref60 - ref40)) <= 1e-6  # the reference has settled
        assert np.max(np.abs(aln_classical_mean(law) - ref60)) <= 1e-6

    @pytest.mark.parametrize("d", [5, 7])
    def test_matches_monte_carlo_in_high_dimension(self, d):
        rng = np.random.default_rng(700 + d)
        law = AlnLaw(*_benchmark_like_law(rng, d))
        total, total2, n = np.zeros(law.D), np.zeros(law.D), 4_000_000
        for _ in range(n // 500_000):
            coords = law.mu + rng.standard_normal((500_000, d)) @ law._chol.T
            parts = ilr_inv_rows(coords, law.basis)
            total += parts.sum(axis=0)
            total2 += (parts * parts).sum(axis=0)
        mc = total / n
        se = np.sqrt((total2 / n - mc * mc) / (n - 1))
        assert np.all(np.abs(aln_classical_mean(law) - mc) < 3 * se)

    def test_deterministic_one_result_for_both_labels(self, monkeypatch):
        mu, sigma = _benchmark_like_law(np.random.default_rng(11), 5)
        aln, nsd = AlnLaw(mu, sigma), NormalOnSimplex(mu, sigma)
        state = np.random.get_state()

        def no_rng(*args, **kwargs):
            raise AssertionError("the classical mean must not draw")

        monkeypatch.setattr(np.random, "default_rng", no_rng)
        first = aln_classical_mean(aln)
        for m in (aln_classical_mean(aln), aln_classical_mean(nsd)):
            assert np.array_equal(m, first)
        assert np.array_equal(np.random.get_state()[1], state[1])

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 7])
    def test_a_composition_summing_to_one(self, d):
        law = AlnLaw(*_benchmark_like_law(np.random.default_rng(800 + d), d))
        m = aln_classical_mean(law)
        assert m.shape == (d + 1,)
        assert np.all(m > 0)
        assert abs(m.sum() - 1.0) <= 1e-12

    def test_node_budget_bounds_the_work(self):
        from codanorm.laws import _aln_mean_quadrature

        law = AlnLaw([0.3, -0.2], np.eye(2))
        _, level, nodes, drift = _aln_mean_quadrature(law, 40)
        assert nodes <= 40**4 + 60**4 and drift <= 1e-6 and level > 1
        # a law too wide for the budget of a small order raises
        wide = AlnLaw(np.zeros(3), 4.0 * np.eye(3))
        with pytest.raises(QuadratureUnstableError):
            aln_classical_mean(wide, order=5)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_merged_nodes_give_the_plain_smolyak_sum(self, d):
        # every tensor rule Q_{l_1} x ... x Q_{l_d} of the combination, node for node
        from codanorm.laws import _aln_mean_quadrature

        law = AlnLaw(*_benchmark_like_law(np.random.default_rng(900 + d), d))
        mean, level, nodes, _ = _aln_mean_quadrature(law, 40)
        q, total, plain_nodes = d + level - 1, np.zeros(law.D), 0
        for l in itertools.product(range(1, level + 1), repeat=d):
            if not q - d < sum(l) <= q:
                continue
            rules = [np.polynomial.hermite_e.hermegauss(2 * m - 1) for m in l]
            z = np.stack(np.meshgrid(*(r[0] for r in rules), indexing="ij"), -1).reshape(-1, d)
            w = np.ones(1)
            for r in rules:
                w = np.multiply.outer(w, r[1] / r[1].sum()).ravel()
            coef = (-1) ** (q - sum(l)) * math.comb(d - 1, q - sum(l))
            total += coef * (w @ ilr_inv_rows(law.mu + z @ law._chol.T, law.basis))
            plain_nodes += len(w)
        assert np.max(np.abs(mean - total / total.sum())) <= 1e-13
        assert nodes < plain_nodes or d == 1

    @pytest.mark.parametrize("d, level", [(1, 6), (2, 5), (4, 4), (7, 3)])
    def test_node_count_matches_the_distinct_nodes(self, d, level):
        from codanorm.laws import _layer_blocks

        law = AlnLaw(np.zeros(d), np.eye(d))
        seen = []
        for q in range(d, d + level):
            layer = np.hstack(list(_layer_blocks(law, q, 0, np.eye(d + 3, 1, -d))))
            count = sum(math.comb(d, k) * math.comb(q + d - 1 - 2 * k, 2 * d - 1)
                        for k in range(min(d, (q - d) // 2) + 1))
            assert layer.shape[1] == count
            assert np.all(layer[-2] == q)  # first met in this layer
            seen.append(layer[:d].T)
        nodes = np.round(np.vstack(seen), 12)
        assert len(np.unique(nodes, axis=0)) == len(nodes)

    def test_wide_seven_dimensional_law_settles_within_the_budget(self):
        from codanorm.laws import _aln_mean_quadrature

        mu, _ = _benchmark_like_law(np.random.default_rng(707), 7)
        mean, level, nodes, drift = _aln_mean_quadrature(AlnLaw(mu, 2.0 * np.eye(7)), 40)
        assert nodes <= 40**4 + 60**4 and drift <= 2.5e-7
        assert np.all(mean > 0) and abs(mean.sum() - 1.0) <= 1e-12

    def test_nan_drift_raises(self):
        # the clr overflows at every node: the estimate is NaN from the first level
        law = AlnLaw([1.7e308, 1.7e308], np.eye(2))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(QuadratureUnstableError):
                aln_classical_mean(law)

    def test_law_far_from_the_centre_has_its_mean_at_a_vertex(self):
        # each row is shifted by its largest log before exp, so no part overflows
        mean = aln_classical_mean(AlnLaw([2000.0, 0.0], np.eye(2)))
        assert np.max(np.abs(mean - [1.0, 0.0, 0.0])) <= 1e-12


class TestClassicalMomentOverflow:
    def test_moments_past_the_largest_float_are_inf(self):
        law = LognormalLaw(76.75, 136965.7)
        m = lognormal_moments(law)
        assert m.mean == math.inf and m.variance == math.inf
        assert m.median == pytest.approx(math.exp(76.75), rel=1e-14)
        assert m.mode == 0.0
        ni = lognormal_naive_interval(law, 1.0)
        assert ni.lower == -math.inf and ni.upper == math.inf
        assert not ni.lower_in_support and ni.upper_in_support

    def test_variance_in_logs_when_a_factor_overflows(self):
        # expm1(800) overflows, the variance exp(-400) does not
        m = lognormal_moments(LognormalLaw(-1000.0, 800.0))
        assert math.log(m.variance) == pytest.approx(-400.0, rel=1e-12)
        assert math.log(m.mean) == pytest.approx(-600.0, rel=1e-12)

    @pytest.mark.parametrize(
        "a, s2", [(709.9, 0.04), (710.0, math.log(3.25)), (710.0, math.log(2.0))]
    )
    def test_naive_interval_in_logs_keeps_a_finite_lower_end(self, a, s2):
        # the mean exp(a) overflows; mean - sd = exp(a) (1 - sqrt(expm1(s2)))
        # does not, and keeps its sign
        ni = lognormal_naive_interval(LognormalLaw(a - 0.5 * s2, s2), 1.0)
        factor = 1.0 - math.sqrt(math.expm1(s2))
        assert ni.upper == math.inf
        if factor == 0.0:  # sd equals the mean: the lower end is exactly 0
            assert ni.lower == 0.0
            return
        assert math.copysign(1.0, ni.lower) == math.copysign(1.0, factor)
        assert math.log(abs(ni.lower)) == pytest.approx(a + math.log(abs(factor)), rel=1e-12)


# ---------------------------------------------------------------------------
# label guards
# ---------------------------------------------------------------------------

_RP, _LN = NormalOnRPlus(0.0, 1.0), LognormalLaw(0.0, 1.0)
_NSD, _ALN = NormalOnSimplex(np.zeros(2), np.eye(2)), AlnLaw(np.zeros(2), np.eye(2))
_X = closure([1.0, 2.0, 3.0])
_STREAM = SeededStream(3, 0)

# (call, a law of the wrong label or space, the kind the guard names)
_GUARDED = {
    "nrp_pdf": (lambda law: nrp_pdf(law, 1.0), _LN, "NormalOnRPlus"),
    "nrp_moments": (nrp_moments, _LN, "NormalOnRPlus"),
    "nrp_interval": (lambda law: nrp_interval(law, 1.0), _LN, "NormalOnRPlus"),
    "nrp_interval_simplex": (lambda law: nrp_interval(law, 1.0), _NSD, "NormalOnRPlus"),
    "nrp_transform": (lambda law: nrp_transform(law, 2.0, 1.0), _NSD, "a law on the positive line"),
    "lognormal_pdf": (lambda law: lognormal_pdf(law, 1.0), _RP, "LognormalLaw"),
    "lognormal_moments": (lognormal_moments, _RP, "LognormalLaw"),
    "lognormal_naive_interval": (lambda law: lognormal_naive_interval(law, 1.0), _RP,
                                 "LognormalLaw"),
    "probability_of_interval": (lambda law: probability_of_interval(law, 1.0, 2.0), _NSD,
                                "a law on the positive line"),
    "nsd_pdf": (lambda law: nsd_pdf(law, _X), _ALN, "NormalOnSimplex"),
    "nsd_pdf_rows": (lambda law: nsd_pdf_rows(law, _X.parts[None]), _ALN, "NormalOnSimplex"),
    "nsd_logpdf_coords": (lambda law: nsd_logpdf_coords(law, np.zeros(2)), _RP, "a simplex law"),
    "aln_pdf": (lambda law: aln_pdf(law, _X), _NSD, "AlnLaw"),
    "aln_pdf_rows": (lambda law: aln_pdf_rows(law, _X.parts[None]), _NSD, "AlnLaw"),
    "nsd_moments": (nsd_moments, _RP, "a simplex law"),
    "nsd_transform": (lambda law: nsd_transform(law, None, 2.0), _RP, "a simplex law"),
    "nsd_permute": (lambda law: nsd_permute(law, PermutationMap([2, 0, 1])), _RP,
                    "a simplex law"),
    "nsd_subcomposition": (lambda law: nsd_subcomposition(law, SelectionMatrix([0, 1], 3)), _RP,
                           "a simplex law"),
    "aln_classical_mean": (aln_classical_mean, _LN, "a simplex law"),
    "probability_of_box": (lambda law: probability_of_box(law, np.zeros(2), np.ones(2)), _RP,
                           "a simplex law"),
    "with_lebesgue_reference": (with_lebesgue_reference, _ALN, "NormalOnSimplex"),
    "with_natural_reference": (with_natural_reference, _NSD, "AlnLaw"),
    "sample_nrp": (lambda law: sample_nrp(law, 5, _STREAM), _NSD, "a law on the positive line"),
    "sample_lognormal": (lambda law: sample_lognormal(law, 5, _STREAM), _ALN,
                         "a law on the positive line"),
    "sample_nsd": (lambda law: sample_nsd(law, 5, _STREAM), _RP, "a simplex law"),
    "sample_aln": (lambda law: sample_aln(law, 5, _STREAM), _LN, "a simplex law"),
    "mc_expectation": (lambda law: mc_expectation(lambda x: 1.0, law, 100, _STREAM), _X,
                       "one of the four laws"),
    "ternary_density_grid": (ternary_density_grid, _RP, "a simplex law"),
    "coordinate_density_grid": (coordinate_density_grid, _LN, "a simplex law"),
    "gof_battery": (lambda law: gof_battery(sample_nsd(_NSD, 8, _STREAM), law), _ALN,
                    "NormalOnSimplex"),
}


@pytest.mark.parametrize("name", sorted(_GUARDED))
def test_label_guard_names_the_expected_kind(name):
    call, wrong, kind = _GUARDED[name]
    with pytest.raises(TypeError, match=f"^expected {kind}, got {type(wrong).__name__}$"):
        call(wrong)
