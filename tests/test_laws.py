"""Tests for the four probability laws and the measure bridges between them.

The scalar reference values are frozen from closed forms evaluated
independently; integrals are cross-checked against adaptive quadrature and
Monte Carlo oracles computed inside the tests.
"""

import itertools
import math
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import integrate, stats
from scipy.special import logsumexp, ndtr

from codanorm import (
    AlnLaw,
    BadIntervalError,
    Composition,
    ContrastBasis,
    DegenerateScaleError,
    DimensionMismatchError,
    LognormalLaw,
    NormalOnRPlus,
    NormalOnSimplex,
    NonPositivePartError,
    NotSPDError,
    PermutationMap,
    PositiveValue,
    QuadratureUnstableError,
    SeededStream,
    SelectionMatrix,
    aln_classical_mean,
    aln_pdf,
    closure,
    clr,
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
    _aln_mean_line,
    _line_logpdf,
    _log_abs_expm1_terms,
    _simplex_logpdf,
    aln_pdf_rows,
    nsd_logpdf_coords,
    nsd_pdf_rows,
)
from codanorm import simplex
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

    def test_equality_reads_class_parameters_and_basis(self, rng):
        mu, sigma = [0.1, -0.2], [[1.0, 0.3], [0.3, 2.0]]
        law = NormalOnSimplex(mu, sigma)
        assert law == NormalOnSimplex(mu, sigma)
        assert law != NormalOnSimplex([0.1, -0.3], sigma)
        assert law != NormalOnSimplex(mu, [[1.0, 0.3], [0.3, 2.5]])
        assert law != NormalOnSimplex(mu, sigma, random_basis(3, rng))
        assert law != AlnLaw(mu, sigma)  # one probability law, two labels
        assert law != (mu, sigma)
        with pytest.raises(TypeError):
            hash(law)

    def test_transform_without_a_perturbation_only_powers(self, rng):
        basis = random_basis(3, rng)
        law = AlnLaw([0.1, -0.2], [[1.0, 0.3], [0.3, 2.0]], basis)
        moved = nsd_transform(law, None, -2.0)
        assert moved == AlnLaw([-0.2, 0.4], [[4.0, 1.2], [1.2, 8.0]], basis)

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

    def test_density_rows_past_the_float_range_are_inf(self):
        # a law of normal range so narrow that its density at the centre passes the
        # largest float; pytest makes numpy's overflow warning an error
        centre = np.full((1, 8), 1 / 8)
        nsd = NormalOnSimplex(np.zeros(7), 1e-100 * np.eye(7))
        assert nsd_pdf_rows(nsd, centre)[0] == math.inf
        assert aln_pdf_rows(with_lebesgue_reference(nsd), centre)[0] == math.inf

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
        est = _aln_mean_quadrature(law, 40)
        assert est.method == "smolyak-gauss-hermite"
        assert est.points <= 40**4 + 60**4 and est.error <= 1e-6 and est.rounds > 1
        # a law too wide for the budget of a small order raises
        wide = AlnLaw(np.zeros(3), 4.0 * np.eye(3))
        with pytest.raises(QuadratureUnstableError):
            aln_classical_mean(wide, order=5)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_merged_nodes_give_the_plain_smolyak_sum(self, d):
        # every tensor rule Q_{l_1} x ... x Q_{l_d} of the combination, node for node
        from codanorm.laws import _aln_mean_quadrature

        law = AlnLaw(*_benchmark_like_law(np.random.default_rng(900 + d), d))
        est = _aln_mean_quadrature(law, 40)
        mean, level, nodes = est.value, est.rounds, est.points
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
        est = _aln_mean_quadrature(AlnLaw(mu, 2.0 * np.eye(7)), 40)
        mean = est.value
        assert est.points <= 40**4 + 60**4 and est.error <= 2.5e-7
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


def _logit_normal_means(mu, s2, k, dps=40):
    """``int phi(t) logistic(+-k (mu + s t)) dt`` at ``dps`` digits, ``s = sqrt(s2)`` and ``k``
    the floats the code takes.  ``mp.quad`` alone steps over the logistic's turn at
    ``t = -mu / s``, of width ``1 / (|k| s)``, so the breakpoints are graded about it by
    ``2**j``, j = 0..6, besides every 8 on [-40, 40]; and as its tolerance is absolute, each
    integrand is divided by its largest value at the breakpoints."""
    with mpmath.workdps(dps + 5):
        mu, s, k = mpmath.mpf(mu), mpmath.mpf(math.sqrt(s2)), mpmath.mpf(k)
        c, w = -mu / s, 1 / (abs(k) * s)
        points = {mpmath.mpf(x) for x in range(-40, 41, 8)} | {c}
        points |= {c + sign * w * 2**j for j in range(7) for sign in (-1, 1)}
        points = sorted(x for x in points if -40 < x < 40)
        means = []
        for kk in (k, -k):
            def f(t, kk=kk):
                return mpmath.npdf(t) / (1 + mpmath.exp(-kk * (mu + s * t)))

            top = max(f(x) for x in points)
            means.append(top * mpmath.quad(lambda t: f(t) / top,
                                           [-mpmath.inf, *points, mpmath.inf]))
        return means


class TestTwoPartClassicalMean:
    """At D = 2 each part of the mean is ``int phi(t) logistic(+-k (mu + sigma t)) dt`` with
    ``k = U[0] - U[1] = +-sqrt 2``, one adaptive Gauss-Legendre estimate per part."""

    @given(st.floats(-300.0, 300.0), st.floats(math.log(1e-6), math.log(3e4)).map(math.exp),
           st.booleans())
    @settings(max_examples=16, deadline=None)
    def test_parts_within_their_error_of_mpmath(self, mu, s2, mirror):
        basis = ContrastBasis(-default_basis(2).matrix) if mirror else default_basis(2)
        law = AlnLaw([mu], [[s2]], basis)
        parts = _aln_mean_line(law)
        exact = _logit_normal_means(mu, s2, float(basis.matrix[0, 0] - basis.matrix[1, 0]))
        mean = aln_classical_mean(law)
        closing = sum(part.error for part in parts)  # the closed parts move by their sum's error
        for part, got, ref in zip(parts, mean, exact):
            assert abs(part.value - ref) <= part.error + 4 * _EPS * ref
            assert abs(got - ref) <= part.error + (closing + 4 * _EPS) * ref
        assert abs(mean.sum() - 1.0) <= 1e-15
        assert np.array_equal(mean, aln_classical_mean(NormalOnSimplex([mu], [[s2]], basis)))
        # the mirrored law, and the law in the mirrored basis, have the mirrored bits
        mirrored = ContrastBasis(-basis.matrix)
        assert np.array_equal(aln_classical_mean(AlnLaw([-mu], [[s2]], basis)), mean[::-1])
        assert np.array_equal(aln_classical_mean(AlnLaw([mu], [[s2]], mirrored)), mean[::-1])

    @pytest.mark.parametrize("mu, s2, want", [
        (0.5, 9.0, ("0.56109126826776153283", "0.43890873173223846717")),
        (-219.0, 26832.0, ("0.090624948542995516016", "0.90937505145700448398")),
        (0.707, 4.0, ("0.61817122770088843725", "0.38182877229911156275")),
        (0.0, 225.0, ("0.5", "0.5")),
        (3.0, 1e-4, ("0.98583260709765871451", "0.014167392902341285485")),
    ])
    def test_pinned_means(self, mu, s2, want):
        # 50-digit means with sqrt 2 and sqrt(s2) exact, which the law's floats round by an
        # ulp or so; the sparse grid was 1.1e-6 off the first and raised on the second
        law = AlnLaw([mu], [[s2]])
        mean = aln_classical_mean(law)
        for part, got, ref in zip(_aln_mean_line(law), mean, map(mpmath.mpf, want)):
            assert abs(got - ref) <= part.error + 4 * _EPS * ref
        assert abs(mean.sum() - 1.0) <= 1e-15

    def test_order_is_still_checked(self):
        with pytest.raises(BadIntervalError):
            aln_classical_mean(AlnLaw([0.0], [[1.0]]), order=1)


def _assert_value(got, exact, tol):
    """A float ``got`` against an mpmath ``exact``: ``+-inf`` past the largest float, else
    within ``tol`` relative plus half the spacing of the subnormals, where it underflows."""
    if math.isinf(got):
        assert abs(exact) >= sys.float_info.max * (1.0 - tol) and (got > 0) == (exact > 0)
    else:
        assert abs(got - exact) <= tol * abs(exact) + mpmath.mpf(2) ** -1075


_EPS = 2.0 ** -52
_LOG_MEANS = st.floats(-300.0, 300.0)
_LOG_VARIANCES = st.floats(math.log(1e-12), math.log(630.0)).map(math.exp)


class TestClosedFormsAgainstMpmath:
    """The classical moments and naive interval of the lognormal law, and the log of
    ``|expm1|`` they use, against 50-digit mpmath.

    Each value is ``exp(t)``, ``t`` a sum of float terms (``mu``, ``sigma2 / 2``,
    ``ln expm1 sigma2``, ``ln k``).  Where the terms are added one by one, each term and
    each partial sum rounds by at most ``eps / 2`` of its own size, and ``exp`` adds an ulp,
    so the relative error is at most ``eps`` times about the sum of those sizes: within
    ``8 eps max(1, |ln value|)`` where no term outgrows ``t``.  The variance and the naive
    ends have terms that can cancel (``2 mu + sigma2`` against ``ln expm1 sigma2``;
    ``mu + sigma2 / 2`` against ``ln k + ln expm1(sigma2) / 2``), so they are summed
    exactly (``math.fsum``) from terms that are exact or at most about 1 in size
    (``sigma2`` and ``log1p(-exp(-sigma2))`` from 1, the binary exponent times ``ln 2``
    and the log of the mantissa below), plus ``ln k``, below 5 in size: the exponent's error
    is then a few ``eps`` whatever the terms' size, and the same bound holds.  The naive
    lower end ``mean - k sd`` also cancels, and its bound is multiplied by that
    difference's condition number ``(mean + k sd) / |mean - k sd|``."""

    @given(_LOG_MEANS, _LOG_VARIANCES)
    @settings(max_examples=300, deadline=None)
    @example(8.291961087897882, 1.1183284862405543e-07)  # ln variance near 0: terms of 16
    def test_moments(self, mu, s2):
        m = lognormal_moments(LognormalLaw(mu, s2))
        with mpmath.workdps(50):
            a, b = mpmath.mpf(mu), mpmath.mpf(s2)
            for got, ln_exact in ((m.mean, a + b / 2), (m.median, a), (m.mode, a - b),
                                  (m.variance, 2 * a + b + mpmath.log(mpmath.expm1(b)))):
                _assert_value(got, mpmath.exp(ln_exact),
                              8.0 * _EPS * max(1.0, abs(float(ln_exact))))

    @given(_LOG_MEANS, _LOG_VARIANCES, st.floats(math.log(0.01), math.log(100.0)).map(math.exp))
    @settings(max_examples=300, deadline=None)
    @example(-227.71143901342737, 224.45411870587296, 56.02060609796005)  # terms of 115
    def test_naive_interval(self, mu, s2, k):
        got = lognormal_naive_interval(LognormalLaw(mu, s2), k)
        with mpmath.workdps(50):
            a, b = mpmath.mpf(mu), mpmath.mpf(s2)
            mean = mpmath.exp(a + b / 2)
            k_sd = k * mpmath.sqrt(mpmath.expm1(b)) * mean
            cancel = (mean + k_sd) / abs(mean - k_sd)
            for end, exact, condition in ((got.lower, mean - k_sd, cancel),
                                          (got.upper, mean + k_sd, 1)):
                tol = 8.0 * _EPS * max(1.0, abs(float(mpmath.log(abs(exact)))))
                _assert_value(end, exact, tol * float(condition))

    @given(st.floats(-300.0, math.log10(2.0)), st.sampled_from([-1.0, 1.0]))
    @settings(max_examples=300, deadline=None)
    def test_log_abs_expm1_near_0(self, log10_x, sign):
        x = sign * 10.0 ** log10_x
        with mpmath.workdps(50):
            exact = mpmath.log(abs(mpmath.expm1(mpmath.mpf(x))))
            got = math.fsum(_log_abs_expm1_terms((x,)))
            assert abs(got - exact) <= 8.0 * _EPS * max(1.0, abs(float(exact)))

    @given(st.floats(2.0, 1e6), st.floats(-0.5, 0.5))
    @settings(max_examples=300, deadline=None)
    def test_log_abs_expm1_terms_stay_near_1_from_1(self, x, shift):
        # the terms past the given ones are at most about 1, however large x is: a sum
        # of them with terms near -x keeps its digits
        terms = _log_abs_expm1_terms((x, shift))
        assert terms[:2] == (x, shift) and all(abs(t) <= 1.0 for t in terms[2:])
        with mpmath.workdps(50):
            sum_x = mpmath.mpf(x) + mpmath.mpf(shift)
            exact = mpmath.log(mpmath.expm1(sum_x)) - sum_x
            assert abs(math.fsum((*terms, -x, -shift)) - exact) <= 2.0 * _EPS


def _mp_simplex_log_density(law, clr):
    """The 50-digit log density of a simplex law, and its squared Mahalanobis length, at the
    point whose clr row is ``clr`` (floats or 50-digit numbers), the law's floats and basis
    matrix taken as exact; under the Lebesgue tag its parts are ``exp(clr_i) / sum exp(clr)``."""
    row = mpmath.matrix([list(clr)])
    dev = (row * mpmath.matrix(law.basis.matrix.tolist())).T - mpmath.matrix(law.mu.tolist())
    sigma = mpmath.matrix(law.sigma.tolist())
    m2 = (dev.T * mpmath.inverse(sigma) * dev)[0]
    log = -m2 / 2 - mpmath.log(mpmath.det(2 * mpmath.pi * sigma)) / 2
    if law._lebesgue:  # less the log of sqrt(D) x1 ... xD
        D = len(clr)
        log += D * mpmath.log(mpmath.fsum(map(mpmath.exp, clr))) - mpmath.fsum(clr)
        log -= mpmath.log(D) / 2
    return log, float(m2)


def _simplex_tolerance(law, m2, size):
    """The bound of :class:`TestDensitiesAgainstMpmath` on a simplex log density's error,
    ``size`` the size of the clr row it is formed from."""
    lam = np.linalg.eigvalsh(law.sigma)
    d, D, m = law.dim, law.dim + 1, math.sqrt(m2)
    scale = (1.0 + (m2 + d) * d * lam[-1] / lam[0] + d * abs(law._log_norm)
             + m * (D * size + float(np.linalg.norm(law.mu))) / math.sqrt(lam[0]))
    return 4.0 * _EPS * (scale + (D * (size + math.log(D)) if law._lebesgue else 0.0))


@st.composite
def simplex_points(draw):
    """A natural simplex law of 1 to 4 coordinates, its mean up to 1e3 from 0 and its
    covariance eigenvalues from 1e-6 to 1e4, in the default or a random basis, and a
    composition up to 6 standard deviations from its mean, each coordinate within 1e3."""
    D = draw(st.integers(2, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    basis = random_basis(D, rng) if draw(st.booleans()) else None
    q, _ = np.linalg.qr(rng.standard_normal((D - 1, D - 1)))
    eig = np.exp(rng.uniform(math.log(1e-6), math.log(1e4), D - 1))
    mu = rng.uniform(-1e3, 1e3, D - 1) if draw(st.booleans()) else np.zeros(D - 1)
    law = NormalOnSimplex(mu, (q * eig) @ q.T, basis)
    at = law.mu + np.linalg.cholesky(law.sigma) @ rng.uniform(-6.0, 6.0, D - 1)
    return law, ilr_inv(np.clip(at, -1e3, 1e3), basis)


class TestDensitiesAgainstMpmath:
    """Both log measure ratios and the four densities against 50-digit mpmath, at logs up to
    +-700 and coordinates up to +-1e3, each law's floats and basis matrix taken as exact.

    Each value is the ``exp`` of a log, so its relative error is the log's absolute error
    plus an ulp, and each bound is ``4 eps`` times the sizes the log is formed from, each
    rounded by at most about ``eps`` of itself and carried by the terms after it:

    * ``rp_measure_ratio``, ``-ln x``: ``max(1, |ln x|)``.
    * The line densities, ``-z^2 / 2 - ln sigma - ln sqrt(2 pi)`` with ``z = (t - mu) /
      sigma``, ``t = ln x``, less ``t`` under the Lebesgue tag: ``t - mu`` rounds by ``eps
      (|t| + |mu|)``, which ``z^2 / 2`` carries times ``|z| / sigma``; ``sigma = sqrt(sigma2)``
      and the products round ``z^2`` by its own ulps.  So ``1 + z^2 + |ln sigma| + |z| (|t|
      + |mu|) / sigma``, plus ``|t|`` under the Lebesgue tag.
    * The simplex densities, ``log_norm - m^2 / 2``: the coordinates ``clr U`` round by
      about ``D ||clr||`` and their deviation from ``mu`` by ``||mu||`` more, which the
      whitening ``L^-1`` (of norm ``1 / sqrt(lambda_min)``) and ``m^2 / 2`` carry times
      ``m / sqrt(lambda_min)``; the Cholesky factor is exact for a covariance a few ``d eps
      ||sigma||`` off, which moves ``m^2`` and ``log_norm`` by ``d kappa (m^2 + d)``, ``kappa``
      the condition number; and ``log_norm`` is a sum of ``d`` logs.  A row of parts first
      takes logs, which round each clr entry by about ``D max |ln x|``, counted in the size
      of its clr.  Under the Lebesgue tag ``D (max clr + ln sum exp(clr - max clr))`` adds
      ``D (||clr|| + ln D)``, which is also the bound of ``sd_measure_ratio``.

    The worst of 3,000 random examples of each was 0.71 of its bound with 1 in place of 4.
    Each label's log density is the other's kernel with or without the log ratio, so the
    two labels keep the bits of one kernel.
    """

    @given(st.floats(-700.0, 700.0))
    @settings(max_examples=200, deadline=None)
    def test_rp_measure_ratio(self, t):
        x = math.exp(t)
        with mpmath.workdps(50):
            _assert_value(rp_measure_ratio(x), 1 / mpmath.mpf(x), 4 * _EPS * max(1.0, abs(t)))

    @given(st.floats(-700.0, 700.0), _LOG_VARIANCES, st.floats(-38.0, 38.0))
    @settings(max_examples=300, deadline=None)
    def test_line_densities(self, mu, s2, z):
        t = min(max(mu + z * math.sqrt(s2), -700.0), 700.0)
        rp, ln = NormalOnRPlus(mu, s2), LognormalLaw(mu, s2)
        x = math.exp(t)  # the Lebesgue density takes x, the natural one its exact log t
        assert _line_logpdf(ln, t) == _line_logpdf(rp, t) - t
        with mpmath.workdps(50):
            sigma = mpmath.sqrt(mpmath.mpf(s2))
            for law, got, at in ((rp, nrp_pdf(rp, PositiveValue.from_log(t)), mpmath.mpf(t)),
                                 (ln, lognormal_pdf(ln, x), mpmath.log(x))):
                zz = (at - mu) / sigma
                exact = -zz * zz / 2 - mpmath.log(sigma * mpmath.sqrt(2 * mpmath.pi))
                size = abs(float(zz)) * (abs(float(at)) + abs(mu)) / float(sigma)
                bound = 1.0 + float(zz * zz) + abs(float(mpmath.log(sigma))) + size
                if law._lebesgue:
                    exact, bound = exact - at, bound + abs(float(at))
                _assert_value(got, mpmath.exp(exact), 4 * _EPS * bound)

    @given(simplex_points())
    @settings(max_examples=150, deadline=None)
    def test_simplex_densities_and_measure_ratio_of_a_composition(self, law_and_point):
        nsd, x = law_and_point
        aln, clr_row, D = with_lebesgue_reference(nsd), x._clr, nsd.dim + 1
        size = float(np.linalg.norm(clr_row))
        assert (_simplex_logpdf(aln, clr_row)
                == _simplex_logpdf(nsd, clr_row) + simplex._log_measure_ratio(clr_row))
        with mpmath.workdps(50):
            clr_mp = [mpmath.mpf(v) for v in clr_row.tolist()]
            for law, pdf in ((nsd, nsd_pdf), (aln, aln_pdf)):
                exact, m2 = _mp_simplex_log_density(law, clr_mp)
                _assert_value(pdf(law, x), mpmath.exp(exact), _simplex_tolerance(law, m2, size))
            ratio = (D * mpmath.log(mpmath.fsum(map(mpmath.exp, clr_mp))) - mpmath.fsum(clr_mp)
                     - mpmath.log(D) / 2)
            _assert_value(sd_measure_ratio(x), mpmath.exp(ratio),
                          4 * _EPS * D * (size + math.log(D) + 1.0))

    @given(simplex_points(), st.floats(-1.0, 1.0))
    @settings(max_examples=150, deadline=None)
    def test_simplex_densities_of_part_rows(self, law_and_point, shift):
        # parts exp(clr + c), the shift c taking the largest |ln x| up to 700
        nsd, x = law_and_point
        aln, top = with_lebesgue_reference(nsd), float(np.max(np.abs(x._clr)))
        assume(top < 690.0)
        rows = np.exp(x._clr + shift * (700.0 - top))[None]
        clr = simplex.clr_rows(rows)
        assert (_simplex_logpdf(aln, clr).tobytes()
                == (_simplex_logpdf(nsd, clr) + simplex._log_measure_ratio(clr)).tobytes())
        with mpmath.workdps(50):
            logs = [mpmath.log(v) for v in rows[0].tolist()]
            mean = mpmath.fsum(logs) / len(logs)
            clr_mp = [v - mean for v in logs]
            size = float(np.linalg.norm(x._clr)) + len(logs) * max(abs(float(v)) for v in logs)
            for law, pdf_rows in ((nsd, nsd_pdf_rows), (aln, aln_pdf_rows)):
                exact, m2 = _mp_simplex_log_density(law, clr_mp)
                _assert_value(pdf_rows(law, rows)[0], mpmath.exp(exact),
                              _simplex_tolerance(law, m2, size))

    def test_aln_grid_cells_next_to_the_margin(self):
        # the grid keeps no density code of its own: its cells with a part at the margin,
        # 1 / 1000, are the ALN density of their float parts
        law = AlnLaw([-2.5, -1.5], [[0.8, 0.3], [0.3, 0.6]])
        grid = ternary_density_grid(law, resolution=1000, margin=1e-4)
        edge = np.flatnonzero(grid.points.min(axis=1) == 1e-3)[::10]
        assert edge.size > 250
        with mpmath.workdps(50):
            for k in edge.tolist():
                logs = [mpmath.log(v) for v in grid.points[k].tolist()]
                mean = mpmath.fsum(logs) / 3
                clr_mp = [v - mean for v in logs]
                exact, m2 = _mp_simplex_log_density(law, clr_mp)
                size = float(mpmath.norm(clr_mp)) + 3 * max(abs(float(v)) for v in logs)
                _assert_value(grid.values[k], mpmath.exp(exact), _simplex_tolerance(law, m2, size))


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
        # the mean exp(a) overflows; mean - sd = exp(a) (1 - sqrt(expm1(s2))) does not, and
        # keeps its sign.  At s2 = ln 2 rounded, the factor is 2.3e-17 (0.0 in floats): the
        # end is held to the bound of TestClosedFormsAgainstMpmath, conditioned by the
        # cancellation of mean and sd
        law = LognormalLaw(a - 0.5 * s2, s2)
        ni = lognormal_naive_interval(law, 1.0)
        assert ni.upper == math.inf
        with mpmath.workdps(50):
            mean = mpmath.exp(mpmath.mpf(law.mu) + mpmath.mpf(s2) / 2)
            sd = mpmath.sqrt(mpmath.expm1(mpmath.mpf(s2))) * mean
            cancel = float((mean + sd) / abs(mean - sd))
            tol = 8.0 * _EPS * abs(float(mpmath.log(abs(mean - sd)))) * cancel
            assert math.isfinite(ni.lower) and (ni.lower > 0) == (mean > sd)
            _assert_value(ni.lower, mean - sd, tol)


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
    "gof_battery": (lambda law: gof_battery(sample_nsd(_NSD, 8, _STREAM), law), _RP,
                    "a simplex law"),
}


@pytest.mark.parametrize("name", sorted(_GUARDED))
def test_label_guard_names_the_expected_kind(name):
    call, wrong, kind = _GUARDED[name]
    with pytest.raises(TypeError, match=f"^expected {kind}, got {type(wrong).__name__}$"):
        call(wrong)


# argument checks past the label guard, one call each
_REJECTED = {
    "NormalOnSimplex(2-d mu)": (lambda: NormalOnSimplex(np.zeros((1, 2)), np.eye(2)),
                                DimensionMismatchError),
    "NormalOnSimplex(nan mu)": (lambda: NormalOnSimplex([0.0, math.nan], np.eye(2)),
                                NonPositivePartError),
    "NormalOnSimplex(inf mu)": (lambda: NormalOnSimplex([math.inf, 0.0], np.eye(2)),
                                NonPositivePartError),
    "NormalOnSimplex(nan sigma)": (lambda: NormalOnSimplex(np.zeros(2), [[1.0, math.nan],
                                                                         [math.nan, 1.0]]),
                                   NonPositivePartError),
    "NormalOnSimplex(inf sigma)": (lambda: NormalOnSimplex(np.zeros(2), [[math.inf, 0.0],
                                                                         [0.0, 1.0]]),
                                   NonPositivePartError),
    "NormalOnSimplex(asymmetric sigma)": (lambda: AlnLaw(np.zeros(2), [[1.0, 0.5], [0.0, 1.0]]),
                                          NotSPDError),
    "nsd_permute(D=4)": (lambda: nsd_permute(_NSD, PermutationMap([0, 1, 3, 2])),
                         DimensionMismatchError),
    "nsd_subcomposition(D=4)": (lambda: nsd_subcomposition(_ALN, SelectionMatrix([0, 1], 4)),
                                DimensionMismatchError),
    "probability_of_box(shape)": (lambda: probability_of_box(_NSD, np.zeros(3), np.ones(3)),
                                  DimensionMismatchError),
    "probability_of_box(nan)": (lambda: probability_of_box(_NSD, [0.0, math.nan], [1.0, 1.0]),
                                BadIntervalError),
    "aln_classical_mean(order=1)": (lambda: aln_classical_mean(_ALN, order=1), BadIntervalError),
    "nrp_interval(k=0)": (lambda: nrp_interval(_RP, 0.0), BadIntervalError),
    "nrp_interval(k=-1)": (lambda: nrp_interval(_RP, -1.0), BadIntervalError),
    "nrp_interval(k=nan)": (lambda: nrp_interval(_RP, math.nan), BadIntervalError),
    "lognormal_naive_interval(k=0)": (lambda: lognormal_naive_interval(_LN, 0.0),
                                      BadIntervalError),
    "lognormal_naive_interval(k=-1)": (lambda: lognormal_naive_interval(_LN, -1.0),
                                       BadIntervalError),
    "lognormal_naive_interval(k=inf)": (lambda: lognormal_naive_interval(_LN, math.inf),
                                        BadIntervalError),
}


@pytest.mark.parametrize("case", sorted(_REJECTED))
def test_argument_checks_raise(case):
    call, error = _REJECTED[case]
    with pytest.raises(error):
        call()


# ---------------------------------------------------------------------------
# label pairs: one law, two densities
# ---------------------------------------------------------------------------

@st.composite
def label_pairs(draw):
    """A line law and a simplex law of at most 3 coordinates (covariance
    eigenvalues in [0.1, 1]), each as a (natural, Lebesgue) pair."""
    d = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    eig = np.array(draw(st.lists(st.floats(0.1, 1.0), min_size=d, max_size=d)))
    mu = draw(st.lists(st.floats(-2.0, 2.0), min_size=d, max_size=d))
    nsd = NormalOnSimplex(mu, (q * eig) @ q.T)
    rp = NormalOnRPlus(draw(st.floats(-2.0, 2.0)), draw(st.floats(0.1, 1.0)))
    return (rp, LognormalLaw(rp.mu, rp.sigma2)), (nsd, with_lebesgue_reference(nsd))


_SAMPLERS = {NormalOnRPlus: sample_nrp, LognormalLaw: sample_lognormal,
             NormalOnSimplex: sample_nsd, AlnLaw: sample_aln}


def _bits(value):
    """The bytes of every float in a result: a number, an array or a tuple of them."""
    if isinstance(value, tuple):
        return b"".join(map(_bits, value))
    return np.asarray(value, dtype=float).tobytes()


@given(pairs=label_pairs(), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_both_labels_give_bit_identical_results(pairs, seed):
    (rp, ln), (nsd, aln) = pairs
    d = nsd.dim
    at = np.linspace(-3.0, 3.0, 4 * d).reshape(4, d)

    def sample(law):
        return _SAMPLERS[type(law)](law, 50, SeededStream(seed))

    def mc(law, f):
        m = mc_expectation(f, law, 200, SeededStream(seed), vectorized=True)
        return m.estimate, m.standard_error, m.n

    line_calls = [
        lambda law: probability_of_interval(law, 0.5, 3.0),
        lambda law: nrp_transform(law, 2.0, -1.5),
        lambda law: sample(law).logs,
        lambda law: mc(law, np.cos),
    ]
    simplex_calls = [
        lambda law: probability_of_box(law, law.mu - 1.0, law.mu + 0.5),
        lambda law: (clr(nsd_moments(law).center), nsd_moments(law).metric_variance),
        lambda law: nsd_transform(law, ilr_inv(np.linspace(-1.0, 1.0, d)), -1.5),
        lambda law: nsd_permute(law, PermutationMap(list(range(d, -1, -1)))),
        aln_classical_mean,
        lambda law: sample(law).coords,
        lambda law: mc(law, lambda rows: rows[:, 0]),
        lambda law: nsd_logpdf_coords(law, at),
    ]
    if d >= 2:
        simplex_calls.append(lambda law: nsd_subcomposition(law, SelectionMatrix([0, 1], d + 1)))
    if d == 2:
        simplex_calls.append(lambda law: coordinate_density_grid(law, resolution=9).values)
    for calls, natural, lebesgue in ((line_calls, rp, ln), (simplex_calls, nsd, aln)):
        for call in calls:
            want, got = call(natural), call(lebesgue)
            if isinstance(want, (NormalOnRPlus, NormalOnSimplex)):  # a transport keeps the class
                assert type(got) is type(lebesgue)
                want, got = (want.mu, want.sigma), (got.mu, got.sigma)
            assert _bits(got) == _bits(want)
    if d == 2:  # the densities differ by the log measure ratio
        g_nsd = ternary_density_grid(nsd, resolution=12)
        g_aln = ternary_density_grid(aln, resolution=12)
        ratio = np.log([sd_measure_ratio(closure(p)) for p in g_nsd.points])
        diff = np.log(g_aln.values) - np.log(g_nsd.values)
        assert np.all(np.abs(diff - ratio) <= 1e-12 * np.maximum(1.0, np.abs(ratio)))
