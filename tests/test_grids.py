"""Tests for histogram and density-grid artifacts."""

import math
import time

import numpy as np
import pytest

from codanorm import (
    AlnLaw,
    DegenerateVarianceError,
    DimensionMismatchError,
    NonPositivePartError,
    NormalOnRPlus,
    NormalOnSimplex,
    RPlusSample,
    SeededStream,
    coordinate_density_grid,
    histogram_artifact,
    lognormal_pdf,
    nrp_pdf,
    sample_nrp,
    sd_measure_ratio,
    ternary_density_grid,
    uniform,
    with_lebesgue_reference,
)
from codanorm import simplex
from codanorm.grids import _NEIGHBOR_STEPS
from codanorm.laws import LognormalLaw, _simplex_logpdf, nsd_logpdf_coords
from codanorm.simplex import ilr_rows


@pytest.fixture(scope="module")
def rplus_sample():
    return sample_nrp(NormalOnRPlus(1.0, 0.8), 500, SeededStream(44, 0))


class TestHistogram:
    def test_euclidean_edges_are_arithmetic(self, rplus_sample):
        art = histogram_artifact(rplus_sample, "euclidean", bins=12)
        gaps = np.diff(art.edges)
        assert np.allclose(gaps, gaps[0], rtol=1e-10)
        assert np.allclose(art.bin_measure, gaps, atol=0)

    def test_logratio_edges_are_geometric(self, rplus_sample):
        art = histogram_artifact(rplus_sample, "logratio", bins=12)
        ratios = art.edges[1:] / art.edges[:-1]
        assert np.allclose(ratios, ratios[0], rtol=1e-10)

    def test_logratio_bins_are_linear_bins_of_logs(self, rplus_sample):
        # the geometric edges are exactly the exponential of equal-width
        # edges on the logarithms of the data
        art = histogram_artifact(rplus_sample, "logratio", bins=10)
        logs = rplus_sample.logs
        linear = np.linspace(logs.min(), logs.max(), 11)
        assert np.allclose(np.log(art.edges), linear, atol=1e-10)
        counts, _ = np.histogram(logs, linear)
        # identical bin membership up to edge rounding
        assert int(np.abs(counts - art.counts).sum()) <= 2

    def test_counts_sum_to_n_in_both_metrics(self, rplus_sample):
        for metric in ("euclidean", "logratio"):
            art = histogram_artifact(rplus_sample, metric, bins=17)
            assert int(art.counts.sum()) == rplus_sample.n

    def test_density_columns_match_fitted_laws(self, rplus_sample):
        art = histogram_artifact(rplus_sample, "logratio", bins=9)
        law = art.law
        ln_law = LognormalLaw(law.mu, law.sigma2)
        for k, m in enumerate(art.midpoints):
            assert art.nrp_density[k] == pytest.approx(nrp_pdf(law, m), rel=1e-12)
            assert art.lognormal_density[k] == pytest.approx(
                lognormal_pdf(ln_law, m), rel=1e-12
            )

    def test_empirical_density_definition(self, rplus_sample):
        art = histogram_artifact(rplus_sample, "euclidean", bins=8)
        assert np.allclose(
            art.empirical_density,
            art.counts / (rplus_sample.n * art.bin_measure),
            atol=0,
        )

    def test_empirical_density_tracks_the_right_curve(self):
        # with plenty of data the log-metric histogram approximates the
        # natural density and the Euclidean histogram the Lebesgue one
        sample = sample_nrp(NormalOnRPlus(0.0, 1.0), 200_000, SeededStream(55, 0))
        art = histogram_artifact(sample, "logratio", bins=40)
        mid_bins = slice(10, 30)
        err_nrp = np.max(
            np.abs(art.empirical_density[mid_bins] - art.nrp_density[mid_bins])
        )
        assert err_nrp < 0.02

    def test_geometric_midpoints(self, rplus_sample):
        art = histogram_artifact(rplus_sample, "logratio", bins=6)
        assert np.allclose(
            art.midpoints, np.sqrt(art.edges[:-1] * art.edges[1:]), rtol=1e-12
        )

    def test_constant_sample_rejected(self):
        with pytest.raises(DegenerateVarianceError):
            histogram_artifact(RPlusSample([2.0] * 20), "euclidean", bins=4)

    def test_bad_metric_rejected(self, rplus_sample):
        from codanorm import ValidationError

        with pytest.raises(ValidationError):
            histogram_artifact(rplus_sample, "manhattan", bins=4)


def flood_fill_maxima(r, ii, jj, log_values, values):
    """Reference rule: a cell qualifies when no neighbor's log exceeds its own;
    each connected group of qualifying cells is one maximum, at its highest
    (first of equal) cell, and maxima are sorted by log, highest first."""
    field = np.full((r + 5, r + 5), -np.inf)
    field[ii + 2, jj + 2] = log_values
    core = field[2: r + 3, 2: r + 3]
    best_neighbor = np.full((r + 1, r + 1), -np.inf)
    for di, dj in _NEIGHBOR_STEPS:
        np.maximum(best_neighbor, field[2 + di: r + 3 + di, 2 + dj: r + 3 + dj],
                   out=best_neighbor)
    candidate = (core >= best_neighbor)[ii, jj]
    cand_cells = {(int(i), int(j)) for i, j in zip(ii[candidate], jj[candidate])}
    density = np.zeros((r + 1, r + 1))
    density[ii, jj] = values
    peaks, seen = [], set()
    for cell in sorted(cand_cells):
        if cell in seen:
            continue
        group, queue = [cell], [cell]
        seen.add(cell)
        while queue:
            ci, cj = queue.pop()
            for di, dj in _NEIGHBOR_STEPS:
                nb = (ci + di, cj + dj)
                if nb in cand_cells and nb not in seen:
                    seen.add(nb)
                    group.append(nb)
                    queue.append(nb)
        peaks.append(max(group, key=lambda c: core[c]))
    peaks.sort(key=lambda c: -core[c])
    return [(simplex.Composition(np.array([gi, gj, r - gi - gj], dtype=float) / r),
             float(density[gi, gj])) for gi, gj in peaks]


def _reference_laws():
    gen = np.random.default_rng(1914)
    laws = []
    for k in range(24):
        a = gen.normal(size=(2, 2))
        sigma = a @ a.T * 10 ** gen.uniform(-2, 0.7) + 0.02 * np.eye(2)
        laws.append((AlnLaw if k % 2 else NormalOnSimplex)(gen.normal(0, 1.5, 2), sigma))
    # round and mirror-symmetric laws (the first ilr coordinate contrasts the
    # first two parts), whose logs tie across the mirror line to an ulp or
    # exactly, and at scale 1e300 a natural law whose logs are all one float
    for mu, shape in (([0.0, 0.0], np.eye(2)), ([0.0, 0.7], np.diag([1.0, 3.0]))):
        for scale in (1e-300, 1e-10, 1.0, 1e10, 1e300):
            laws += [NormalOnSimplex(mu, scale * shape), AlnLaw(mu, scale * shape)]
    return laws


class TestTernaryGrid:
    @pytest.mark.parametrize("resolution", [4, 7, 12, 30])
    def test_maxima_equal_the_flood_fill_rule(self, resolution):
        for law in _reference_laws():
            grid = ternary_density_grid(law, resolution=resolution)
            logs = _simplex_logpdf(law, simplex.clr_rows(grid.points))
            expected = flood_fill_maxima(resolution, grid.i_index, grid.j_index, logs,
                                         grid.values)
            assert len(grid.maxima) == len(expected)
            for (comp, value), (want_comp, want) in zip(grid.maxima, expected):
                assert np.array_equal(comp.parts, want_comp.parts) and value == want

    def test_flat_law_reports_its_first_cell_quickly(self):
        # every log density is the same float, so the whole lattice is one plateau
        law = NormalOnSimplex([0.0, 0.0], 1e30 * np.eye(2))
        start = time.perf_counter()
        grid = ternary_density_grid(law, resolution=1000)
        elapsed = time.perf_counter() - start
        assert len(grid.maxima) == 1
        assert np.allclose(grid.maxima[0][0].parts, [0.001, 0.001, 0.998], atol=1e-15)
        assert elapsed < 2.0

    def test_overflowing_distances_leave_one_maximum(self):
        # most squared distances pass the largest float, so those logs are -inf
        grid = ternary_density_grid(
            NormalOnSimplex([10.0, 10.0], 1e-306 * np.eye(2)), resolution=20
        )
        assert len(grid.maxima) == 1
        comp, value = grid.maxima[0]
        assert np.allclose(comp.parts, [0.9, 0.05, 0.05], atol=1e-15)
        assert value == 0.0

    def test_round_lebesgue_law_has_three_maxima(self):
        grid = ternary_density_grid(AlnLaw([0.0, 0.0], np.eye(2)), resolution=200)
        assert len(grid.maxima) == 3

    def test_round_natural_law_has_one_maximum_at_center(self):
        grid = ternary_density_grid(
            NormalOnSimplex([0.0, 0.0], np.eye(2)), resolution=200
        )
        assert len(grid.maxima) == 1
        comp, value = grid.maxima[0]
        assert np.allclose(comp.parts, [1 / 3, 1 / 3, 1 / 3], atol=0.01)
        assert value == pytest.approx(1.0 / (2 * math.pi), rel=1e-2)

    def test_concentrated_lebesgue_law_is_unimodal(self):
        grid = ternary_density_grid(
            AlnLaw([-1.0, 0.5], 0.1 * np.eye(2)), resolution=200
        )
        assert len(grid.maxima) == 1

    @pytest.mark.parametrize("scale, resolution", [(0.01, 400), (1e-300, 50)])
    def test_underflowing_densities_leave_one_maximum_at_the_mode(self, scale, resolution):
        # most of the grid's densities underflow to 0.0; their logs still rank the cells
        law = NormalOnSimplex([0.0, 0.0], scale * np.eye(2))
        grid = ternary_density_grid(law, resolution=resolution)
        assert np.any(grid.values == 0.0)
        assert len(grid.maxima) == 1
        comp, value = grid.maxima[0]
        logs = nsd_logpdf_coords(law, ilr_rows(grid.points))
        at = np.argmin(np.abs(grid.points - comp.parts).sum(axis=1))
        assert logs[at] == pytest.approx(logs.max(), rel=1e-12)
        assert value == grid.values.max()

    def test_grid_ratio_is_measure_ratio(self):
        nsd = NormalOnSimplex([0.3, -0.2], [[0.9, 0.1], [0.1, 0.7]])
        aln = with_lebesgue_reference(nsd)
        g1 = ternary_density_grid(nsd, resolution=60)
        g2 = ternary_density_grid(aln, resolution=60)
        assert np.array_equal(g1.points, g2.points)
        from codanorm import closure

        ratios = g2.values / g1.values
        expected = np.array([sd_measure_ratio(closure(p)) for p in g1.points])
        assert np.allclose(ratios, expected, rtol=1e-12)

    def test_points_are_barycentric(self):
        grid = ternary_density_grid(
            NormalOnSimplex([0.0, 0.0], np.eye(2)), resolution=50, margin=0.02
        )
        assert np.allclose(grid.points.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(grid.points >= 0.02 - 1e-12)

    def test_matrix_layout(self):
        grid = ternary_density_grid(
            NormalOnSimplex([0.0, 0.0], np.eye(2)), resolution=30
        )
        m = grid.matrix()
        assert m.shape == (31, 31)
        assert np.isnan(m[30, 30])  # i + j > resolution is off the lattice
        assert np.isfinite(m[grid.i_index, grid.j_index]).all()

    def test_needs_three_parts(self):
        law = NormalOnSimplex([0.0, 0.0, 0.0], np.eye(3))
        with pytest.raises(DimensionMismatchError):
            ternary_density_grid(law)

    def test_values_match_pointwise_pdf(self):
        from codanorm import closure, nsd_pdf

        law = NormalOnSimplex([0.2, 0.1], [[0.8, -0.2], [-0.2, 1.2]])
        grid = ternary_density_grid(law, resolution=25, margin=0.01)
        for idx in (0, 17, len(grid.values) - 1):
            comp = closure(grid.points[idx])
            assert grid.values[idx] == pytest.approx(nsd_pdf(law, comp), rel=1e-12)


class TestCoordinateGrid:
    def test_axes_and_values(self):
        law = NormalOnSimplex([0.5, -0.5], [[1.0, 0.0], [0.0, 4.0]])
        grid = coordinate_density_grid(law, resolution=41, reach=3.0)
        assert grid.x_axis[0] == pytest.approx(0.5 - 3.0, abs=1e-12)
        assert grid.x_axis[-1] == pytest.approx(0.5 + 3.0, abs=1e-12)
        assert grid.y_axis[0] == pytest.approx(-0.5 - 6.0, abs=1e-12)
        # the density peaks at the mean coordinate cell
        peak = np.unravel_index(np.argmax(grid.values), grid.values.shape)
        assert grid.x_axis[peak[0]] == pytest.approx(0.5, abs=0.2)
        assert grid.y_axis[peak[1]] == pytest.approx(-0.5, abs=0.5)
        mid = np.exp(
            nsd_logpdf_coords(law, np.array([[grid.x_axis[3], grid.y_axis[8]]]))
        )[0]
        assert grid.values[3, 8] == pytest.approx(mid, rel=1e-12)

    def test_dimension_guard(self):
        law = NormalOnSimplex([0.0, 0.0, 0.0], np.eye(3))
        with pytest.raises(DimensionMismatchError):
            coordinate_density_grid(law)

    @pytest.mark.parametrize("reach", [0.0, -1.0, math.nan, math.inf])
    def test_reach_must_be_positive_and_finite(self, reach):
        with pytest.raises(NonPositivePartError):
            coordinate_density_grid(NormalOnSimplex([0.0, 0.0], np.eye(2)), reach=reach)
