"""Tests for the simplex geometry: operations, log-ratio maps, bases,
subcompositions, and the invariants that make the whole package sound.

Reference values were frozen from independent brute-force evaluation of the
defining formulas (pairwise log-ratio sums, explicit sequential-balance
coordinates) rather than from the library under test.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codanorm import (
    AlnLaw,
    ClosureError,
    Composition,
    ContrastBasis,
    DimensionMismatchError,
    EmptyDataError,
    ValidationError,
    InvalidSelectionError,
    NonPositivePartError,
    NormalOnSimplex,
    PermutationMap,
    SelectionMatrix,
    SimplexSample,
    ait_distance,
    ait_inner,
    ait_norm,
    aln_pdf,
    alr,
    alr_inv,
    center_of,
    closure,
    clr,
    clr_inv,
    default_basis,
    ilr,
    ilr_inv,
    nsd_pdf,
    perturb,
    power,
    permute,
    random_basis,
    sd_measure_ratio,
    subcomposition,
    uniform,
)
from codanorm.laws import aln_pdf_rows, nsd_pdf_rows
from codanorm.simplex import (
    closure_rows,
    clr_rows,
    ilr_inv_rows,
    ilr_rows,
)

# ---------------------------------------------------------------------------
# independent oracles: direct evaluation of the defining pairwise-sum formulas
# ---------------------------------------------------------------------------


def brute_inner(x, y):
    """(1/D) * sum_{i<j} ln(x_i/x_j) ln(y_i/y_j), straight from the definition."""
    px, py = x.proportions, y.proportions
    D = len(px)
    total = 0.0
    for i in range(D):
        for j in range(i + 1, D):
            total += math.log(px[i] / px[j]) * math.log(py[i] / py[j])
    return total / D


def brute_distance(x, y):
    px, py = x.proportions, y.proportions
    D = len(px)
    total = 0.0
    for i in range(D):
        for j in range(i + 1, D):
            total += (math.log(px[i] / px[j]) - math.log(py[i] / py[j])) ** 2
    return math.sqrt(total / D)


# hypothesis strategy: a dimension plus that many log-parts in a safe range
@st.composite
def composition_pairs(draw, min_d=2, max_d=8):
    D = draw(st.integers(min_value=min_d, max_value=max_d))
    box = st.floats(min_value=-6.0, max_value=6.0, allow_nan=False)
    lx = draw(st.lists(box, min_size=D, max_size=D))
    ly = draw(st.lists(box, min_size=D, max_size=D))
    return closure(np.exp(lx)), closure(np.exp(ly))


scalars = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)


class TestComposition:
    def test_constructor_requires_closed_parts(self):
        Composition([0.2, 0.3, 0.5])  # fine
        with pytest.raises(ClosureError):
            Composition([0.2, 0.3, 0.6])
        with pytest.raises(ClosureError):
            Composition([20.0, 30.0, 50.0])  # closed to 100, but kappa says 1

    def test_constructor_accepts_matching_kappa(self):
        c = Composition([20.0, 30.0, 50.0], kappa=100.0)
        assert c.kappa == 100.0
        assert np.allclose(c.proportions, [0.2, 0.3, 0.5])

    def test_rejects_nonpositive_parts(self):
        for bad in ([0.0, 1.0], [-0.1, 1.1], [np.nan, 1.0], [np.inf, 1.0]):
            with pytest.raises(NonPositivePartError):
                closure(bad)

    def test_rejects_single_part(self):
        with pytest.raises(DimensionMismatchError):
            closure([1.0])

    def test_parts_are_read_only(self):
        c = closure([1, 2, 3])
        with pytest.raises(ValueError):
            c.parts[0] = 0.5

    def test_equality_is_aitchison_distance(self):
        x = closure([1, 2, 3])
        y = closure([1.0 + 1e-13, 2, 3])
        z = closure([1.01, 2, 3])
        assert x == y
        assert x != z
        assert x != closure([1, 2, 3], kappa=100.0)  # same direction, other kappa

    def test_not_hashable(self):
        with pytest.raises(TypeError):
            hash(closure([1, 2, 3]))


class TestClosure:
    def test_definition(self):
        c = closure([1, 2, 3])
        assert np.allclose(c.parts, [1 / 6, 2 / 6, 3 / 6], atol=1e-15)

    def test_idempotent(self):
        c = closure([0.2, 0.3, 0.5])
        assert np.allclose(c.parts, [0.2, 0.3, 0.5], atol=1e-15)

    def test_kappa_scaling(self):
        c = closure([1, 1, 1, 1], kappa=100.0)
        assert np.allclose(c.parts, [25, 25, 25, 25], atol=1e-12)

    def test_uniform(self):
        u = uniform(4)
        assert np.allclose(u.parts, 0.25, atol=1e-15)


class TestPerturbPower:
    def test_perturb_example(self):
        x = closure([1 / 6, 2 / 6, 3 / 6])
        y = closure([3 / 6, 2 / 6, 1 / 6])
        assert np.allclose(perturb(x, y).parts, [0.3, 0.4, 0.3], atol=1e-15)

    def test_perturb_neutral_and_inverse(self):
        x = closure([0.7, 0.2, 0.1])
        assert perturb(x, uniform(3)) == x
        assert perturb(x, power(-1, x)) == uniform(3)

    def test_power_example(self):
        p = power(2, closure([0.2, 0.8]))
        assert np.allclose(p.parts, [1 / 17, 16 / 17], atol=1e-15)

    def test_power_zero_and_one(self):
        x = closure([0.5, 0.3, 0.2])
        assert power(0, x) == uniform(3)
        assert power(1, x) == x

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            perturb(closure([1, 2]), closure([1, 2, 3]))

    def test_kappa_mismatch_is_an_error(self):
        with pytest.raises(DimensionMismatchError):
            perturb(closure([1, 2, 3]), closure([1, 2, 3], kappa=100.0))


class TestInnerAndDistance:
    def test_inner_with_uniform_is_zero(self):
        y = closure([0.6, 0.3, 0.1])
        assert abs(ait_inner(uniform(3), y)) < 1e-15

    def test_inner_frozen_value(self):
        # ||clr(x)||^2 for x = (0.1, 0.3, 0.6); frozen from the pairwise-sum
        # formula evaluated independently (agrees with clr dot product 1e-16).
        x = closure([0.1, 0.3, 0.6])
        assert ait_inner(x, x) == pytest.approx(1.632601323433061, abs=1e-12)
        assert ait_norm(x) == pytest.approx(math.sqrt(1.632601323433061), abs=1e-12)

    @given(composition_pairs())
    @settings(max_examples=150)
    def test_inner_matches_brute_force(self, pair):
        x, y = pair
        assert ait_inner(x, y) == pytest.approx(brute_inner(x, y), rel=1e-9, abs=1e-9)

    @given(composition_pairs())
    @settings(max_examples=100)
    def test_inner_symmetry(self, pair):
        x, y = pair
        assert ait_inner(x, y) == pytest.approx(ait_inner(y, x), rel=1e-12, abs=1e-12)

    @given(composition_pairs())
    @settings(max_examples=150)
    def test_distance_matches_brute_force(self, pair):
        x, y = pair
        assert ait_distance(x, y) == pytest.approx(
            brute_distance(x, y), rel=1e-9, abs=1e-9
        )

    def test_distance_identity(self):
        x = closure([0.25, 0.35, 0.4])
        assert ait_distance(x, x) == 0.0

    @given(composition_pairs(min_d=3, max_d=6), st.integers(0, 10 ** 6))
    @settings(max_examples=100)
    def test_perturbation_invariance(self, pair, salt):
        x, y = pair
        a = closure(np.exp(np.random.default_rng(salt).uniform(-4, 4, x.D)))
        d0 = ait_distance(x, y)
        d1 = ait_distance(perturb(a, x), perturb(a, y))
        assert d1 == pytest.approx(d0, abs=1e-10)

    @given(composition_pairs(), scalars)
    @settings(max_examples=100)
    def test_power_scales_distance(self, pair, a):
        x, y = pair
        assert ait_distance(power(a, x), power(a, y)) == pytest.approx(
            abs(a) * ait_distance(x, y), rel=1e-9, abs=1e-9
        )


class TestLogRatioMaps:
    def test_clr_of_uniform_is_zero(self):
        assert np.allclose(clr(uniform(5)), 0.0, atol=1e-15)

    def test_clr_components_sum_to_zero(self):
        v = clr(closure([0.1, 0.2, 0.3, 0.4]))
        assert abs(v.sum()) < 1e-14

    def test_alr_frozen_value(self):
        v = alr(closure([0.1, 0.3, 0.6]))
        assert v == pytest.approx([math.log(1 / 6), math.log(1 / 2)], abs=1e-12)

    def test_ilr_frozen_value(self):
        # sequential-balance coordinates of (0.1, 0.3, 0.6):
        #   y1 = ln(x1/x2)/sqrt(2), y2 = ln(x1*x2/x3^2)/sqrt(6)
        v = ilr(closure([0.1, 0.3, 0.6]))
        assert v == pytest.approx(
            [-0.7768361992120931, -1.0144588917382364], abs=1e-12
        )

    def test_ilr_of_uniform_is_origin(self):
        assert np.allclose(ilr(uniform(6)), 0.0, atol=1e-15)

    def test_ilr_is_contrast_of_clr(self):
        x = closure([0.15, 0.25, 0.05, 0.55])
        U = default_basis(4).matrix
        assert np.allclose(ilr(x), U.T @ clr(x), atol=1e-14)

    @given(composition_pairs())
    @settings(max_examples=150)
    def test_round_trips(self, pair):
        x, _ = pair
        assert ait_distance(clr_inv(clr(x)), x) < 1e-10
        assert ait_distance(alr_inv(alr(x)), x) < 1e-10
        assert ait_distance(ilr_inv(ilr(x)), x) < 1e-10

    def test_alr_clr_ilr_interconvertibility(self):
        # the three maps describe the same point: converting any one
        # representation into another and inverting lands on the same spot
        x = closure([0.31, 0.07, 0.12, 0.5])
        assert ait_distance(clr_inv(clr(ilr_inv(ilr(x)))), x) < 1e-10
        assert ait_distance(alr_inv(alr(clr_inv(clr(x)))), x) < 1e-10

    def test_round_trip_preserves_kappa(self):
        x = closure([5, 20, 75], kappa=100.0)
        back = ilr_inv(ilr(x), kappa=100.0)
        assert back.kappa == 100.0
        assert ait_distance(back, x) < 1e-10


class TestContrastBasis:
    def test_default_basis_d2(self):
        U = default_basis(2).matrix
        assert U.shape == (2, 1)
        assert np.allclose(U[:, 0], [1 / math.sqrt(2), -1 / math.sqrt(2)], atol=1e-15)

    def test_default_basis_orthonormal_zero_sum(self):
        for D in range(2, 11):
            U = default_basis(D).matrix
            assert np.allclose(U.T @ U, np.eye(D - 1), atol=1e-12)
            assert np.allclose(U.sum(axis=0), 0.0, atol=1e-12)

    def test_default_basis_reproduces_sequential_balances(self):
        x = closure([0.1, 0.2, 0.3, 0.15, 0.25])
        got = ilr(x)
        p = x.proportions
        for i in range(1, 5):
            expected = math.log(np.prod(p[:i]) / p[i] ** i) / math.sqrt(i * (i + 1))
            assert got[i - 1] == pytest.approx(expected, abs=1e-12)

    def test_random_basis_is_valid(self, rng):
        for D in (2, 3, 5, 9):
            U = random_basis(D, rng).matrix
            assert np.allclose(U.T @ U, np.eye(D - 1), atol=1e-10)
            assert np.allclose(U.sum(axis=0), 0.0, atol=1e-12)

    def test_rejects_bad_matrices(self):
        with pytest.raises(DimensionMismatchError):
            ContrastBasis(np.ones((3, 3)))  # wrong shape
        # columns not summing to zero
        with pytest.raises(ValidationError):
            ContrastBasis(np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]))
        # zero-sum but not orthonormal
        bad = np.array([[1.0, 1.0], [-1.0, 1.0], [0.0, -2.0]])
        with pytest.raises(ValidationError):
            ContrastBasis(bad)

    def test_basis_change_consistency(self, rng):
        # coordinates in one basis are a rotation of coordinates in another:
        # ilr_2(x) = (U2' U1) ilr_1(x)
        for D in (3, 4, 7):
            b1 = default_basis(D)
            b2 = random_basis(D, rng)
            M = b2.matrix.T @ b1.matrix
            for _ in range(20):
                x = closure(np.exp(rng.uniform(-5, 5, D)))
                assert np.allclose(ilr(x, b2), M @ ilr(x, b1), atol=1e-10)

    def test_isometry_any_basis(self, rng):
        for D in (2, 5):
            b = random_basis(D, rng)
            x = closure(np.exp(rng.uniform(-4, 4, D)))
            y = closure(np.exp(rng.uniform(-4, 4, D)))
            assert abs(
                np.linalg.norm(ilr(x, b) - ilr(y, b)) - ait_distance(x, y)
            ) < 1e-10


class TestPermutation:
    def test_permute_parts(self):
        x = closure([0.1, 0.3, 0.6])
        p = PermutationMap([2, 0, 1])
        assert np.allclose(permute(x, p).parts, [0.6, 0.1, 0.3], atol=1e-15)

    def test_invalid_permutation(self):
        with pytest.raises(InvalidSelectionError):
            PermutationMap([0, 0, 1])

    def test_coordinates_transform_linearly(self, rng):
        # ilr(P x) = (U' P U) ilr(x) for the permutation matrix P
        U = default_basis(4).matrix
        p = PermutationMap([3, 1, 0, 2])
        M = U.T @ p.matrix @ U
        for _ in range(25):
            x = closure(np.exp(rng.uniform(-5, 5, 4)))
            assert np.allclose(ilr(permute(x, p)), M @ ilr(x), atol=1e-10)

    def test_permutation_matrix_is_orthogonal(self):
        P = PermutationMap([1, 2, 0]).matrix
        assert np.allclose(P @ P.T, np.eye(3), atol=1e-15)


class TestSubcomposition:
    def test_example(self):
        x = closure([0.2, 0.3, 0.5])
        sub = subcomposition(x, SelectionMatrix([0, 1], D=3))
        assert np.allclose(sub.parts, [0.4, 0.6], atol=1e-15)

    def test_of_uniform_is_uniform(self):
        sub = subcomposition(uniform(5), SelectionMatrix([1, 3, 4], D=5))
        assert sub == uniform(3)

    def test_selection_validation(self):
        with pytest.raises(InvalidSelectionError):
            SelectionMatrix([0], D=3)  # too few
        with pytest.raises(InvalidSelectionError):
            SelectionMatrix([0, 1, 2], D=3)  # must drop at least one part
        with pytest.raises(InvalidSelectionError):
            SelectionMatrix([0, 0], D=3)  # repeats
        with pytest.raises(InvalidSelectionError):
            SelectionMatrix([0, 5], D=3)  # out of range

    def test_coordinate_law(self, rng):
        # ilr(x_S) = (U*' S U) ilr(x): taking a subcomposition acts on
        # coordinates as a fixed linear map.
        for D, keep in ((3, [0, 2]), (5, [1, 2, 4]), (8, [0, 3, 4, 6, 7])):
            sel = SelectionMatrix(keep, D=D)
            U = default_basis(D).matrix
            Ustar = default_basis(len(keep)).matrix
            M = Ustar.T @ sel.matrix @ U
            for _ in range(20):
                x = closure(np.exp(rng.uniform(-5, 5, D)))
                assert np.allclose(
                    ilr(subcomposition(x, sel)), M @ ilr(x), atol=1e-10
                )

    def test_distance_never_increases(self, rng):
        # dropping parts is a projection in coordinates, so distances shrink
        sel = SelectionMatrix([0, 1, 3], D=5)
        for _ in range(20):
            x = closure(np.exp(rng.uniform(-4, 4, 5)))
            y = closure(np.exp(rng.uniform(-4, 4, 5)))
            assert ait_distance(
                subcomposition(x, sel), subcomposition(y, sel)
            ) <= ait_distance(x, y) + 1e-12


class TestCenterAndMeasure:
    def test_center_is_closed_geometric_mean(self):
        data = [closure([1, 2, 3]), closure([2, 2, 2]), closure([4, 1, 1])]
        g = np.array([(1 * 2 * 4) ** (1 / 3), (2 * 2 * 1) ** (1 / 3), (3 * 2 * 1) ** (1 / 3)])
        expected = g / g.sum()
        assert np.allclose(center_of(data).parts, expected, atol=1e-14)

    def test_center_is_coordinate_mean(self, rng):
        data = [closure(np.exp(rng.uniform(-3, 3, 4))) for _ in range(10)]
        mean_coords = np.mean([ilr(x) for x in data], axis=0)
        assert ait_distance(center_of(data), ilr_inv(mean_coords, kappa=1.0)) < 1e-12

    def test_measure_ratio_frozen_value(self):
        # 1 / (sqrt(3) * (1/3)^3) at the uniform composition of S^3
        assert sd_measure_ratio(uniform(3)) == pytest.approx(
            15.588457268119898, rel=1e-14
        )

    def test_measure_ratio_formula(self, rng):
        for D in (2, 3, 6):
            x = closure(np.exp(rng.uniform(-3, 3, D)))
            expected = 1.0 / (math.sqrt(D) * np.prod(x.proportions))
            assert sd_measure_ratio(x) == pytest.approx(expected, rel=1e-12)


# every public function that takes part rows; each reads them through clr_rows
_ROW_READERS = {
    "clr_rows": clr_rows,
    "ilr_rows": ilr_rows,
    "nsd_pdf_rows": lambda rows: nsd_pdf_rows(NormalOnSimplex([0.0, 0.0], np.eye(2)), rows),
    "aln_pdf_rows": lambda rows: aln_pdf_rows(AlnLaw([0.0, 0.0], np.eye(2)), rows),
    "SimplexSample.from_rows": SimplexSample.from_rows,
}


class TestPartRowsAreCheckedWhereLogsAreTaken:
    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    @pytest.mark.parametrize("name", sorted(_ROW_READERS))
    def test_a_part_that_is_not_positive_and_finite_raises(self, name, bad):
        rows = np.array([[0.2, 0.3, 0.5], [0.4, bad, 0.6]])
        with pytest.raises(NonPositivePartError, match=r"\(row, part\) \[\[1, 1\]\]"):
            _ROW_READERS[name](rows)

    @pytest.mark.parametrize("name", sorted(_ROW_READERS))
    def test_a_1d_array_raises(self, name):
        with pytest.raises(DimensionMismatchError, match=r"\(n, D\) array"):
            _ROW_READERS[name](np.array([0.2, 0.3, 0.5]))

    def test_ilr_rows_reads_the_part_count_of_the_checked_rows(self):
        with pytest.raises(DimensionMismatchError, match="basis is for 4 parts"):
            ilr_rows(np.full((2, 3), 1 / 3), default_basis(4))


# the argument checks of the simplex constructors and maps, one call each
_REJECTED = {
    "uniform(1)": (lambda: uniform(1), DimensionMismatchError),
    "power(nan)": (lambda: power(math.nan, closure([1.0, 2.0])), NonPositivePartError),
    "power(inf)": (lambda: power(math.inf, closure([1.0, 2.0])), NonPositivePartError),
    "closure(kappa=0)": (lambda: closure([1.0, 2.0], kappa=0.0), NonPositivePartError),
    "ilr_inv_rows(1-d)": (lambda: ilr_inv_rows(np.zeros(2)), DimensionMismatchError),
    "PermutationMap(2-d)": (lambda: PermutationMap([[0, 1], [1, 0]]), InvalidSelectionError),
    "SelectionMatrix(2-d)": (lambda: SelectionMatrix([[0, 1]], 3), InvalidSelectionError),
    "center_of([])": (lambda: center_of([]), EmptyDataError),
    "center_of(mixed D)": (lambda: center_of([uniform(2), uniform(3)]), DimensionMismatchError),
    "center_of(mixed kappa)": (lambda: center_of([uniform(2), uniform(2, 5.0)]),
                               DimensionMismatchError),
    "SimplexSample([])": (lambda: SimplexSample([]), EmptyDataError),
    "SimplexSample(mixed kappa)": (lambda: SimplexSample([uniform(2), uniform(2, 5.0)]),
                                   DimensionMismatchError),
}


@pytest.mark.parametrize("case", sorted(_REJECTED))
def test_argument_checks_raise(case):
    call, error = _REJECTED[case]
    with pytest.raises(error):
        call()


class TestVectorizedRows:
    def test_rows_helpers_match_scalar_paths(self, rng):
        raw = np.exp(rng.uniform(-4, 4, size=(15, 5)))
        rows = closure_rows(raw)
        comps = [closure(r) for r in raw]
        assert np.allclose(rows, [c.parts for c in comps], atol=1e-15)
        assert np.allclose(clr_rows(rows), [clr(c) for c in comps], atol=1e-13)
        assert np.allclose(ilr_rows(rows), [ilr(c) for c in comps], atol=1e-13)
        back = ilr_inv_rows(ilr_rows(rows))
        assert np.allclose(back, rows, atol=1e-12)


@pytest.mark.parametrize("D", range(2, 8))
def test_clr_rows_column_sums_have_the_row_sum_bits(D):
    # summed column by column, up to D = 7 as numpy's row sum adds them; from D = 8
    # numpy sums in pairs and the two may differ by an ulp
    rows = np.exp(np.random.default_rng(D).normal(0.0, 3.0, (2 * 16384 + 5, D)))
    logs = np.log(rows)
    assert np.array_equal(clr_rows(rows), logs - logs.sum(axis=1, keepdims=True) / D)


def _assert_rel_close(got, want, rel=1e-12):
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    assert got.shape == want.shape
    scale = max(float(np.max(np.abs(want))), 1e-300)
    assert float(np.max(np.abs(got - want))) <= rel * scale


class TestScalarMapsAreOneRowKernels:
    @given(
        D=st.integers(min_value=2, max_value=6),
        seed=st.integers(0, 2**32 - 1),
        kappa=st.floats(min_value=1e-3, max_value=1e3).filter(lambda k: k != 1.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_scalar_map_equals_its_kernel_on_one_row(self, D, seed, kappa):
        rng = np.random.default_rng(seed)
        basis = random_basis(D, rng)
        raw = np.exp(rng.uniform(-6.0, 6.0, D))
        coords = rng.uniform(-6.0, 6.0, D - 1)
        a = rng.standard_normal((D - 1, D - 1))
        mu, sigma = rng.uniform(-2.0, 2.0, D - 1), a @ a.T + 0.1 * np.eye(D - 1)
        nsd, aln = NormalOnSimplex(mu, sigma, basis), AlnLaw(mu, sigma, basis)

        x = closure(raw, kappa)
        _assert_rel_close(x.parts, closure_rows(raw[None], kappa)[0])
        _assert_rel_close(clr(x), clr_rows(x.parts[None])[0])
        _assert_rel_close(ilr(x, basis), ilr_rows(x.parts[None], basis)[0])
        _assert_rel_close(
            ilr_inv(coords, basis, kappa).parts, ilr_inv_rows(coords[None], basis, kappa)[0]
        )
        _assert_rel_close(nsd_pdf(nsd, x), nsd_pdf_rows(nsd, x.parts[None])[0])
        _assert_rel_close(aln_pdf(aln, x), aln_pdf_rows(aln, x.proportions[None])[0])
        _assert_rel_close(
            sd_measure_ratio(x), np.exp(-0.5 * np.log(D) - np.sum(np.log(x.proportions)))
        )


class TestInverseMapBases:
    def test_ilr_inv_accepts_raw_contrast_matrix(self, rng):
        basis = random_basis(4, rng)
        x = closure(np.exp(rng.uniform(-2, 2, 4)), kappa=10.0)
        y = ilr(x, basis.matrix)
        assert ilr_inv(y, basis.matrix, kappa=10.0) == x
        rows = closure_rows(np.exp(rng.uniform(-2, 2, (5, 4))))
        back = ilr_inv_rows(ilr_rows(rows, basis.matrix), basis.matrix)
        assert np.allclose(back, rows, atol=1e-12)

    def test_wrong_shaped_basis_is_a_dimension_mismatch(self):
        y = np.array([0.3, -0.2])
        for bad in (np.eye(3), default_basis(4).matrix):
            with pytest.raises(DimensionMismatchError):
                ilr_inv(y, bad)
            with pytest.raises(DimensionMismatchError):
                ilr_inv_rows(y[None], bad)
        with pytest.raises(DimensionMismatchError):
            ilr_inv(y, default_basis(4))


class TestClosureOutputCheck:
    def test_part_underflowing_to_zero_is_rejected(self):
        # 1e-100 / 1e300 underflows to 0 during the closure itself
        with pytest.raises(NonPositivePartError):
            closure([1e300, 1e-100])
        with pytest.raises(NonPositivePartError):
            closure_rows([[1.0, 2.0], [1e300, 1e-100]])

    def test_parts_whose_total_overflows_close(self):
        # each part is a valid float; only their sum passes the largest float
        assert closure([1e308] * 3) == uniform(3)
        assert closure([1.7e308, 1.7e308]) == uniform(2)
        assert closure([1e308, 1e308, 2e307], kappa=5.0) == closure([5.0, 5.0, 1.0], kappa=5.0)
        np.testing.assert_allclose(closure_rows([[1.7e308, 1.7e308]], 3.0), [[1.5, 1.5]],
                                   rtol=1e-15)
        with pytest.raises(NonPositivePartError):
            closure([1e308, 1e308, 1e-300])  # 1e-300 / 2e308 underflows

    def test_an_overflowing_row_leaves_the_other_rows_alone(self):
        rows = np.array([[0.3, 2.5, 7.1], [1e308, 1.5e308, 0.5e308], [4e-200, 1e-201, 3e-199]])
        closed = closure_rows(rows, 2.0)
        for i in (0, 2):
            assert closed[i].tobytes() == closure_rows(rows[i:i + 1], 2.0)[0].tobytes()
        assert closed[1].tobytes() == closure_rows(rows[1:2], 2.0)[0].tobytes()
        np.testing.assert_allclose(closed[1], [2.0 / 3.0, 1.0, 1.0 / 3.0], rtol=1e-15)


# hypothesis strategy: a random basis and two coordinate vectors up to +-1e3,
# where most parts lie below the smallest float and read as 0.0
@st.composite
def far_coordinates(draw):
    D = draw(st.integers(min_value=2, max_value=6))
    basis = random_basis(D, np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    box = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)
    y1 = np.array(draw(st.lists(box, min_size=D - 1, max_size=D - 1)))
    y2 = np.array(draw(st.lists(box, min_size=D - 1, max_size=D - 1)))
    return basis, y1, y2


class TestFarCoordinates:
    @given(far=far_coordinates())
    @settings(max_examples=200, deadline=None)
    def test_ilr_inverts_ilr_inv(self, far):
        basis, y, _ = far
        back = ilr(ilr_inv(y, basis), basis)
        assert np.max(np.abs(back - y)) <= 1e-12 * max(1.0, np.max(np.abs(y)))

    @given(far=far_coordinates())
    @settings(max_examples=200, deadline=None)
    def test_clr_inv_and_alr_inv_invert_far_images(self, far):
        basis, y, _ = far
        x = ilr_inv(y, basis)
        scale = 1e-12 * max(1.0, np.max(np.abs(y)))
        assert np.max(np.abs(ilr(clr_inv(clr(x)), basis) - y)) <= scale
        assert np.max(np.abs(ilr(alr_inv(alr(x)), basis) - y)) <= scale

    def test_clr_inv_and_alr_inv_build_the_clr_image(self):
        # clr (800, -800) is coordinate 800 sqrt(2) in the default basis; exp(800)
        # passes the largest float
        assert clr_inv([800.0, -800.0]) == ilr_inv([800.0 * math.sqrt(2.0)])
        assert alr_inv([800.0]) == clr_inv([400.0, -400.0])
        assert alr_inv([800.0], kappa=5.0).kappa == 5.0
        for bad in ([math.inf, 0.0], [math.nan, 1.0], [-math.inf, 2.0, 3.0]):
            with pytest.raises(NonPositivePartError):
                clr_inv(bad)
            with pytest.raises(NonPositivePartError):
                alr_inv(bad)
        with pytest.raises(DimensionMismatchError):
            clr_inv([1.0])
        with pytest.raises(DimensionMismatchError):
            alr_inv([])

    def test_centring_does_not_overflow_near_the_largest_float(self):
        # the plain mean of these entries passes the largest float
        top = np.finfo(float).max
        assert clr_inv([1e308, 1e308]) == uniform(2)
        assert clr_inv([top] * 3) == uniform(3)
        assert np.all(np.isfinite(alr_inv([1e308, 1e308]).parts))
        x = clr_inv([1.0e308, 0.9e308, -0.95e308, -0.95e308])
        assert np.all(np.isfinite(subcomposition(x, SelectionMatrix([0, 1], 4)).parts))

    @given(far=far_coordinates(), a=scalars)
    @settings(max_examples=200, deadline=None)
    def test_operations_are_vector_operations_on_coordinates(self, far, a):
        basis, y1, y2 = far
        x1, x2 = ilr_inv(y1, basis), ilr_inv(y2, basis)
        scale = 1e-12 * max(1.0, np.max(np.abs(y1)), np.max(np.abs(y2)))
        assert np.max(np.abs(ilr(perturb(x1, x2), basis) - (y1 + y2))) <= scale
        assert np.max(np.abs(ilr(power(a, x1), basis) - a * y1)) <= max(1.0, abs(a)) * scale
        assert abs(ait_distance(x1, x2) - np.linalg.norm(y1 - y2)) <= scale

