"""Tests for histogram and density-grid artifacts."""

import copy
import dataclasses
import math
import pickle
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from codanorm import (
    AlnLaw,
    DegenerateVarianceError,
    DimensionMismatchError,
    InsufficientDataError,
    NonPositivePartError,
    NormalOnRPlus,
    NormalOnSimplex,
    NumericalError,
    RPlusSample,
    SeededStream,
    TernaryDensityGrid,
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
from codanorm.grids import _NEIGHBOR_STEPS, _lattice
from codanorm.laws import (
    LognormalLaw,
    _simplex_logpdf,
    aln_pdf_rows,
    nsd_logpdf_coords,
    nsd_pdf_rows,
)
from codanorm._special import _BLOCK
from codanorm.simplex import ilr_rows, random_basis


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

    @pytest.mark.parametrize("values", [[1.0, 1.0000000000000002], [5e-324, 1e-323, 1.5e-323]])
    @pytest.mark.parametrize("metric", ["euclidean", "logratio"])
    def test_range_too_narrow_for_the_bins_rejected(self, values, metric):
        # the edges would repeat, leaving bins of zero measure and NaN densities
        with pytest.raises(DegenerateVarianceError, match="too narrow a range for 20 bins"):
            histogram_artifact(RPlusSample(values), metric, bins=20)

    @pytest.mark.parametrize("logs", [[1000.0, 1001.0, 1003.0], [-1000.0, -1001.0, -1003.0],
                                      [0.0, 1.0, 800.0]])
    @pytest.mark.parametrize("metric", ["euclidean", "logratio"])
    def test_values_past_the_float_range_rejected(self, logs, metric):
        # their exp is inf or 0.0: no edge could bin them
        with pytest.raises(NumericalError, match="past the float range"):
            histogram_artifact(RPlusSample.from_logs(logs), metric)

    def test_bad_metric_rejected(self, rplus_sample):
        from codanorm import ValidationError

        with pytest.raises(ValidationError):
            histogram_artifact(rplus_sample, "manhattan", bins=4)


def _padded(r, ii, jj, log_values):
    """The logs on a field padded by two rows of ``-inf``, its core, and each step's
    shifted view: the neighbour's log at every cell of the core."""
    field = np.full((r + 5, r + 5), -np.inf)
    field[ii + 2, jj + 2] = log_values
    shifted = {(di, dj): field[2 + di: r + 3 + di, 2 + dj: r + 3 + dj]
               for di, dj in _NEIGHBOR_STEPS}
    return field[2: r + 3, 2: r + 3], shifted


def flood_fill_maxima(r, ii, jj, log_values, values):
    """Reference rule: a cell qualifies when no neighbor's log exceeds its own;
    each connected group of qualifying cells is one maximum, at its highest
    (first of equal) cell, and maxima are sorted by log, highest first."""
    core, shifted = _padded(r, ii, jj, log_values)
    candidate = (core >= np.maximum.reduce(list(shifted.values())))[ii, jj]
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


def _random_reference_laws():
    gen = np.random.default_rng(1914)
    laws = []
    for k in range(24):
        a = gen.normal(size=(2, 2))
        sigma = a @ a.T * 10 ** gen.uniform(-2, 0.7) + 0.02 * np.eye(2)
        laws.append((AlnLaw if k % 2 else NormalOnSimplex)(gen.normal(0, 1.5, 2), sigma))
    return laws


def _symmetric_reference_laws():
    # round and mirror-symmetric laws (the first ilr coordinate contrasts the
    # first two parts), whose logs tie across the mirror line to an ulp or
    # exactly, and at scale 1e300 a natural law whose logs are all one float
    laws = []
    for mu, shape in (([0.0, 0.0], np.eye(2)), ([0.0, 0.7], np.diag([1.0, 3.0]))):
        for scale in (1e-300, 1e-10, 1.0, 1e10, 1e300):
            laws += [NormalOnSimplex(mu, scale * shape), AlnLaw(mu, scale * shape)]
    return laws


def ranking_rule_maxima(r, ii, jj, log_values, values):
    """Reference for the documented rule: a cell is a maximum when its log is
    strictly above each neighbour earlier in ``(i, j)`` order and no lower than
    each later one, cells off the lattice counting as ``-inf``; maxima are sorted
    by log, highest first, ties in ``(i, j)`` order."""
    core, shifted = _padded(r, ii, jj, log_values)
    keep = np.ones_like(core, dtype=bool)
    for step, neighbor in shifted.items():
        keep &= core > neighbor if step < (0, 0) else core >= neighbor
    density = np.zeros((r + 1, r + 1))
    density[ii, jj] = values
    cells = [(int(i), int(j)) for i, j in zip(ii, jj) if keep[i, j]]
    cells.sort(key=lambda c: -core[c])  # stable: ties stay in (i, j) order
    return [(simplex.Composition(np.array([i, j, r - i - j], dtype=float) / r),
             float(density[i, j])) for i, j in cells]


def strict_maxima(r, ii, jj, log_values):
    """The cells whose log is strictly above all 12 neighbours': maxima under the
    ranking rule and the flood fill alike."""
    core, shifted = _padded(r, ii, jj, log_values)
    strict = np.logical_and.reduce([core > neighbor for neighbor in shifted.values()])
    return {(int(i), int(j)) for i, j in zip(ii, jj) if strict[i, j]}


def _maxima_cells(maxima, r):
    return {(int(round(c.parts[0] * r)), int(round(c.parts[1] * r))) for c, _ in maxima}


def assert_maxima_follow_the_ranking_rule(grid, law):
    """``grid.maxima`` equal the reference ranking rule's, and both they and the
    flood fill's hold every cell strictly above all its neighbours (the two rules
    part only where neighbouring logs tie)."""
    r, ii, jj = grid.resolution, grid.i_index, grid.j_index
    logs = _simplex_logpdf(law, simplex.clr_rows(grid.points))
    expected = ranking_rule_maxima(r, ii, jj, logs, grid.values)
    assert len(grid.maxima) == len(expected)
    for (comp, value), (want_comp, want) in zip(grid.maxima, expected):
        assert np.array_equal(comp.parts, want_comp.parts) and value == want
    strict = strict_maxima(r, ii, jj, logs)
    assert strict <= _maxima_cells(grid.maxima, r)
    assert strict <= _maxima_cells(flood_fill_maxima(r, ii, jj, logs, grid.values), r)


def assert_maxima_follow_the_flood_fill_rule(grid, law):
    logs = _simplex_logpdf(law, simplex.clr_rows(grid.points))
    expected = flood_fill_maxima(grid.resolution, grid.i_index, grid.j_index, logs,
                                 grid.values)
    assert len(grid.maxima) == len(expected)
    for (comp, value), (want_comp, want) in zip(grid.maxima, expected):
        assert np.array_equal(comp.parts, want_comp.parts) and value == want


def assert_values_are_the_pdf_rows(grid, law):
    pdf_rows = aln_pdf_rows if isinstance(law, AlnLaw) else nsd_pdf_rows
    assert np.array_equal(grid.values, pdf_rows(law, grid.points))


def mask_indices(resolution, margin):
    """The lattice's ``(i, j)`` cells read off a dense mask, in row-major order."""
    lo = math.ceil(margin * resolution)
    k = np.arange(resolution + 1)
    return np.nonzero((k[:, None] >= lo) & (k >= lo) & (k[:, None] + k <= resolution - lo))


@st.composite
def simplex_laws(draw):
    """A simplex law with a random mean and a covariance scaled by 1e-300 to 1e300."""
    mu = draw(st.lists(st.floats(-5.0, 5.0), min_size=2, max_size=2))
    a = np.array(draw(st.lists(st.floats(-2.0, 2.0), min_size=4, max_size=4))).reshape(2, 2)
    scale = 10.0 ** draw(st.floats(-300.0, 300.0))
    law_class = draw(st.sampled_from([NormalOnSimplex, AlnLaw]))
    return law_class(mu, scale * (a @ a.T + 0.05 * np.eye(2)))


class TestTernaryGrid:
    @pytest.mark.parametrize("resolution", [4, 7, 12, 30, 200])
    def test_maxima_equal_the_flood_fill_rule(self, resolution):
        # at r = 200 (19,701 cells, two blocks) the laws whose logs tie to an ulp
        laws = _symmetric_reference_laws()
        if resolution < 200:
            laws = _random_reference_laws() + laws
        for law in laws:
            grid = ternary_density_grid(law, resolution=resolution)
            assert_maxima_follow_the_flood_fill_rule(grid, law)

    @pytest.mark.parametrize("resolution", [300, 1000])
    @pytest.mark.parametrize("law", [
        NormalOnSimplex([0.3, -0.2], [[0.9, 0.1], [0.1, 0.7]]),
        AlnLaw([-0.4, 0.6], [[1.5, -0.3], [-0.3, 0.4]]),
    ], ids=["nsd", "aln"])
    def test_values_spanning_blocks_are_the_pdf_rows(self, resolution, law):
        # r = 300 has 44,551 cells: three blocks, whose boundaries fall inside rows
        grid = ternary_density_grid(law, resolution=resolution)
        assert grid.values.size == (resolution - 2) * (resolution - 1) // 2
        assert_values_are_the_pdf_rows(grid, law)

    @pytest.mark.parametrize("resolution", [10, 31, 300])
    @pytest.mark.parametrize("margin", [1e-4, 0.01, 0.3])
    def test_cells_are_the_mask_cells_in_row_major_order(self, resolution, margin):
        grid = ternary_density_grid(_NSD3, resolution=resolution, margin=margin)
        ii, jj = mask_indices(resolution, margin)
        assert np.array_equal(grid.i_index, ii) and np.array_equal(grid.j_index, jj)
        assert grid.i_index.dtype == ii.dtype and grid.j_index.dtype == jj.dtype

    @given(simplex_laws(), st.integers(4, 120), st.floats(0.0, 1.0 / 3.0, exclude_min=True,
                                                           exclude_max=True))
    # near-flat laws whose logs differ by an ulp or two from cell to cell: the ranking
    # rule keeps 2 maxima where the flood fill keeps 7, six symmetric shoulder cells
    # among them, five of which tie an earlier neighbour that is not itself a candidate
    @example(NormalOnSimplex([0.0, 0.0], 5e13 * np.eye(2)), 20, 0.125)
    @example(NormalOnSimplex([0.0, 0.0], 4.3298e13 * np.eye(2)), 19, 0.125)
    @settings(max_examples=60, deadline=None)
    def test_random_grids_match_the_pdf_rows_and_the_flood_fill(self, law, resolution, margin):
        if 3 * math.ceil(margin * resolution) > resolution:
            with pytest.raises(InsufficientDataError, match="no lattice point"):
                ternary_density_grid(law, resolution=resolution, margin=margin)
            return
        grid = ternary_density_grid(law, resolution=resolution, margin=margin)
        ii, jj = mask_indices(resolution, margin)
        assert np.array_equal(grid.i_index, ii) and np.array_equal(grid.j_index, jj)
        assert_values_are_the_pdf_rows(grid, law)
        assert_maxima_follow_the_ranking_rule(grid, law)

    def test_a_margin_leaving_one_cell_keeps_it(self):
        grid = ternary_density_grid(_NSD3, resolution=6, margin=1 / 3 - 1e-9)
        assert grid.points.tolist() == [[2 / 6, 2 / 6, 2 / 6]]
        assert len(grid.maxima) == 1

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

    def test_densities_past_the_float_range_are_inf(self):
        # the centre's density is about 1.6e309; pytest makes numpy's overflow warning an error
        grid = ternary_density_grid(NormalOnSimplex([0.0, 0.0], 1e-310 * np.eye(2)), resolution=6)
        assert grid.values.max() == math.inf
        assert [d for _, d in grid.maxima] == [math.inf]

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


class TestSharedLattice:
    def test_grids_at_one_lattice_share_its_read_only_arrays(self):
        nsd = NormalOnSimplex([0.3, -0.2], [[0.9, 0.1], [0.1, 0.7]])
        g1 = ternary_density_grid(nsd, resolution=90, margin=0.01)
        g2 = ternary_density_grid(with_lebesgue_reference(nsd), resolution=90, margin=0.01)
        assert g1.values is not g2.values
        for name in ("points", "i_index", "j_index"):
            shared = getattr(g1, name)
            assert getattr(g2, name) is shared
            with pytest.raises(ValueError):
                shared[0] = 0
        ii, jj = mask_indices(90, 0.01)
        assert np.array_equal(g1.points, np.column_stack([ii, jj, 90 - ii - jj]) / 90)

    @pytest.mark.parametrize("resolution, margin", [(91, 0.01), (90, 0.02)])
    def test_another_lattice_has_its_own_mask_cells(self, resolution, margin):
        first = ternary_density_grid(_NSD3, resolution=90, margin=0.01)
        grid = ternary_density_grid(_NSD3, resolution=resolution, margin=margin)
        assert grid.points is not first.points and grid.i_index is not first.i_index
        ii, jj = mask_indices(resolution, margin)
        assert np.array_equal(grid.i_index, ii) and np.array_equal(grid.j_index, jj)
        assert np.array_equal(grid.points, np.column_stack([ii, jj, resolution - ii - jj])
                              / resolution)
        m = grid.matrix()
        assert np.array_equal(m[ii, jj], grid.values)
        assert np.count_nonzero(~np.isnan(m)) == grid.values.size


def log_ratio_of(grid):
    """The log measure ratio of the cached lattice behind ``grid``."""
    lattice = _lattice(grid.resolution, math.ceil(grid.margin * grid.resolution))
    assert lattice.points is grid.points
    return lattice.log_ratio


class TestLatticeLogRatio:
    """The lattice holds its cells' log measure ratio, the law-independent term of every
    Lebesgue grid, built by the first one; ``points`` is the transpose of its
    coordinate-major storage, and its index arrays are built when first read."""

    def test_the_ratio_and_the_points_are_read_only_views_of_one_lattice(self):
        grid = ternary_density_grid(with_lebesgue_reference(_NSD3), resolution=70)
        log_ratio = log_ratio_of(grid)
        assert log_ratio.shape == (grid.values.size,) and not log_ratio.flags.writeable
        with pytest.raises(ValueError):
            log_ratio[0] = 0.0
        assert grid.points.T.flags.c_contiguous and not grid.points.base.flags.writeable

    def test_one_ratio_serves_every_law_and_basis_at_a_lattice(self):
        first = ternary_density_grid(AlnLaw([0.3, -0.2], [[0.9, 0.1], [0.1, 0.7]]), 80)
        log_ratio = log_ratio_of(first)
        for law in (AlnLaw([-1.0, 2.0], 1e-3 * np.eye(2)),
                    AlnLaw([0.5, 0.5], np.eye(2), random_basis(3, np.random.default_rng(5))),
                    NormalOnSimplex([0.0, 1.0], np.eye(2))):
            assert log_ratio_of(ternary_density_grid(law, 80)) is log_ratio
        other = ternary_density_grid(first.law, 81)
        assert log_ratio_of(other) is not log_ratio
        assert other.values.size == log_ratio_of(other).size

    @pytest.mark.parametrize("resolution, margin", [(60, 1e-4), (250, 0.01), (300, 1e-4)])
    def test_the_ratio_has_the_bits_of_the_measure_ratio_kernel(self, resolution, margin):
        grid = ternary_density_grid(_NSD3, resolution, margin)
        want = simplex._log_measure_ratio(simplex.clr_rows(grid.points))
        assert log_ratio_of(grid).tobytes() == want.tobytes()

    def test_the_ratio_and_the_index_arrays_are_built_on_first_use(self):
        grid = ternary_density_grid(_NSD3, resolution=77)
        lattice = _lattice(77, 1)
        assert lattice.points is grid.points and not {"indices", "log_ratio"} & set(vars(lattice))
        i_index = grid.i_index
        assert set(vars(lattice)) >= {"indices"} and "log_ratio" not in vars(lattice)
        aln = ternary_density_grid(with_lebesgue_reference(_NSD3), 77)
        assert "log_ratio" in vars(lattice) and aln.i_index is i_index
        ii, jj = mask_indices(77, 1e-4)
        assert np.array_equal(i_index, ii) and np.array_equal(grid.j_index, jj)

    @pytest.mark.parametrize("resolution, margin", [(4, 0.25), (12, 1e-4), (250, 0.05),
                                                    (1000, 1e-4)])
    def test_matrix_fills_lattice_rows_without_the_index_arrays(self, resolution, margin):
        _lattice.cache_clear()  # a fresh lattice, whose index arrays no grid has read
        grid = ternary_density_grid(with_lebesgue_reference(_NSD3), resolution, margin)
        lattice = _lattice(resolution, math.ceil(margin * resolution))
        dense = grid.matrix()
        assert "indices" not in vars(lattice)
        want = np.full((resolution + 1, resolution + 1), np.nan)
        want[grid.i_index, grid.j_index] = grid.values
        assert np.array_equal(dense, want, equal_nan=True)
        assert np.array_equal(dense, TernaryDensityGrid.matrix(grid), equal_nan=True)

    def test_copies_and_pickles_hold_the_same_arrays(self):
        grid = ternary_density_grid(with_lebesgue_reference(_NSD3), resolution=33)
        shallow, deep = copy.copy(grid), copy.deepcopy(grid)
        assert shallow.i_index is grid.i_index and shallow.values is grid.values
        moved = dataclasses.replace(grid, margin=0.5)
        assert moved.margin == 0.5 and moved.j_index is grid.j_index
        for other in (deep, pickle.loads(pickle.dumps(grid))):
            assert isinstance(other, TernaryDensityGrid) and other.law == grid.law
            for name in ("i_index", "j_index", "points", "values"):
                assert np.array_equal(getattr(other, name), getattr(grid, name))
            assert np.array_equal(other.matrix(), grid.matrix(), equal_nan=True)

    @pytest.mark.parametrize("resolution", [250, 300])
    def test_nsd_then_aln_grids_are_the_pdf_rows_across_a_block_seam(self, resolution):
        basis = random_basis(3, np.random.default_rng(resolution))
        nsd = NormalOnSimplex([0.4, -0.3], [[0.6, -0.2], [-0.2, 0.9]], basis)
        g_nsd = ternary_density_grid(nsd, resolution)
        g_aln = ternary_density_grid(with_lebesgue_reference(nsd), resolution)
        assert g_aln.points is g_nsd.points and g_nsd.values.size > _BLOCK
        assert g_nsd.values.tobytes() == nsd_pdf_rows(nsd, g_nsd.points).tobytes()
        assert g_aln.values.tobytes() == aln_pdf_rows(g_aln.law, g_aln.points).tobytes()


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

    def test_densities_past_the_float_range_are_inf(self):
        grid = coordinate_density_grid(NormalOnSimplex([0.0, 0.0], 1e-320 * np.eye(2)),
                                       resolution=3)
        assert np.all(grid.values == math.inf)

    def test_dimension_guard(self):
        law = NormalOnSimplex([0.0, 0.0, 0.0], np.eye(3))
        with pytest.raises(DimensionMismatchError):
            coordinate_density_grid(law)

    @pytest.mark.parametrize("reach", [0.0, -1.0, math.nan, math.inf])
    def test_reach_must_be_positive_and_finite(self, reach):
        with pytest.raises(NonPositivePartError):
            coordinate_density_grid(NormalOnSimplex([0.0, 0.0], np.eye(2)), reach=reach)


_NSD3 = NormalOnSimplex([0.0, 0.0], np.eye(2))

# argument checks of the three artifact builders, one call each
_REJECTED = {
    "histogram(bins=1)": (lambda s: histogram_artifact(s, "logratio", bins=1),
                          InsufficientDataError),
    "ternary(resolution=3)": (lambda s: ternary_density_grid(_NSD3, resolution=3),
                              InsufficientDataError),
    "ternary(margin=0)": (lambda s: ternary_density_grid(_NSD3, margin=0.0), NonPositivePartError),
    "ternary(margin=1/3)": (lambda s: ternary_density_grid(_NSD3, margin=1 / 3),
                            NonPositivePartError),
    "ternary(margin=nan)": (lambda s: ternary_density_grid(_NSD3, margin=math.nan),
                            NonPositivePartError),
    # every part at least ceil(0.3 * 4) = 2 steps of 4: no lattice point is left
    "ternary(empty lattice)": (lambda s: ternary_density_grid(_NSD3, resolution=4, margin=0.3),
                               InsufficientDataError),
    "coordinates(resolution=1)": (lambda s: coordinate_density_grid(_NSD3, resolution=1),
                                  InsufficientDataError),
}


@pytest.mark.parametrize("case", sorted(_REJECTED))
def test_argument_checks_raise(case, rplus_sample):
    call, error = _REJECTED[case]
    with pytest.raises(error):
        call(rplus_sample)
