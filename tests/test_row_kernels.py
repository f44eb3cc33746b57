"""The row kernels against their row-major formulations, kept here as oracles.

The kernels run their elementwise work column by column or on coordinate-major
``(D, n)`` arrays, and each product is the row-major product or that product
transposed.  Every result must keep the bits of the row-major form: at one row
(where a product is a matrix-vector BLAS call), two rows, one block and two
blocks and a bit, for D = 2..8, and through the scalar maps and densities.
"""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codanorm import (
    NonPositivePartError,
    NormalOnSimplex,
    SeededStream,
    SimplexSample,
    aln_pdf,
    closure,
    clr_inv,
    fit_nsd,
    ilr,
    ilr_inv,
    nsd_pdf,
    random_basis,
    sample_nsd,
    with_lebesgue_reference,
)
from codanorm._special import (
    _BLOCK, _ERF_T, _ERF_U, _ERFC_P, _ERFC_Q, _ERFC_R, _ERFC_S, _ratio, ndtr,
)
from codanorm.laws import _simplex_logpdf, aln_pdf_rows, nsd_logpdf_coords, nsd_pdf_rows
from codanorm.rplus import _exp_or_inf
from codanorm.simplex import (
    _clr_inv_rows, _log_measure_ratio, closure_rows, clr_rows, ilr_inv_rows, measure_ratio,
)

_SIZES = (1, 2, _BLOCK, 2 * _BLOCK + 5)


# --------------------------------------------------------------------------
# the row-major formulations
# --------------------------------------------------------------------------

def close_rows(rows, kappa):
    # each row is summed part by part, in order
    return rows * (kappa / functools.reduce(np.add, rows.T))[:, None]


def clr_of_rows(rows):
    logs = np.log(rows)
    return logs - (functools.reduce(np.add, logs.T) / logs.shape[1])[:, None]


def clr_inv_of_rows(logs, kappa):
    return close_rows(np.exp(logs - functools.reduce(np.maximum, logs.T)[:, None]), kappa)


def log_measure_ratio(clr):
    top = functools.reduce(np.maximum, clr.T)
    total = sum(np.exp(column - top) for column in clr.T)
    return -0.5 * math.log(clr.shape[1]) + clr.shape[1] * (top + np.log(total))


def mahalanobis2(law, coords):
    z = (coords - law.mu) @ law._chol_inv.T
    with np.errstate(over="ignore"):
        return functools.reduce(np.add, [c * c for c in z.T])


def simplex_logpdf(law, clr):
    log_density = law._log_norm - 0.5 * mahalanobis2(law, clr @ law.basis.matrix)
    return log_density + log_measure_ratio(clr) if law._lebesgue else log_density


def draws(law, n, stream):
    z = stream.generator().standard_normal((n, law.dim))
    return (law.mu + z @ law._chol.T) @ law.basis.matrix.T


def fit(sample):
    coords = sample.coords
    mu = coords.mean(axis=0)
    centered = coords - mu
    if centered.shape[1] == 1:  # numpy's one-thread reduction, not BLAS's threaded dot
        return mu, np.square(centered).sum(axis=0, keepdims=True) / (sample.n - 1)
    return mu, (centered.T @ centered) / (sample.n - 1)


def ndtr_lower(w):
    w = np.minimum(w, 40.0)
    x = w * math.sqrt(0.5)
    out = _ratio(_ERFC_P, _ERFC_Q, x)
    far = np.flatnonzero(x >= 8.0)
    if far.size:
        out[far] = _ratio(_ERFC_R, _ERFC_S, x[far])
    m = np.trunc(w * 16.0)
    m *= 0.0625
    e = w - m
    e *= w + m
    e *= -0.5
    out *= np.exp(e, out=e)
    m *= m
    m *= -0.5
    out *= np.exp(m, out=m)
    out *= 0.5
    return out


def ndtr_block(z):
    x = np.clip(z, -math.sqrt(2.0), math.sqrt(2.0))
    x *= math.sqrt(0.5)
    out = _ratio(_ERF_T, _ERF_U, x * x)
    out *= x
    out *= 0.5
    out += 0.5
    tails = np.flatnonzero(np.abs(z) >= math.sqrt(2.0))
    if tails.size:
        zt = z[tails]
        p = ndtr_lower(np.abs(zt))
        upper = zt > 0.0
        p[upper] = 1.0 - p[upper]
        out[tails] = p
    return out


# --------------------------------------------------------------------------
# the same bits
# --------------------------------------------------------------------------

def _law(D, basis=None):
    gen = np.random.default_rng(D)
    a = gen.normal(size=(D - 1, D - 1))
    return NormalOnSimplex(gen.normal(0.0, 0.5, D - 1), a @ a.T / D + 0.3 * np.eye(D - 1), basis)


def _same(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n", _SIZES)
@pytest.mark.parametrize("D", range(2, 9))
def test_simplex_row_kernels_keep_their_bits(D, n):
    gen = np.random.default_rng(10 * D + n)
    raw = np.exp(gen.normal(0.0, 3.0, (n, D)))
    rows = closure_rows(raw, 2.0)
    _same(rows, close_rows(raw, 2.0))
    assert rows.flags.c_contiguous
    clr = clr_rows(raw)
    _same(clr, clr_of_rows(raw))
    assert clr.flags.c_contiguous
    sample = SimplexSample.from_rows(raw, 3.0)
    _same(sample.rows, clr_inv_of_rows(clr, 3.0))
    assert sample.rows.flags.c_contiguous
    coords = gen.normal(0.0, 4.0, (n, D - 1))
    basis = random_basis(D, gen)
    U = basis.matrix
    _same(ilr_inv_rows(coords, basis, 0.5), clr_inv_of_rows(coords @ U.T, 0.5))


@pytest.mark.parametrize("n", _SIZES)
@pytest.mark.parametrize("D", range(2, 9))
def test_densities_keep_their_bits(D, n):
    gen = np.random.default_rng(20 * D + n)
    rows = closure_rows(np.exp(gen.normal(0.0, 2.0, (n, D))))
    nsd = _law(D, random_basis(D, gen))
    aln = with_lebesgue_reference(nsd)
    clr = clr_of_rows(rows)
    with np.errstate(over="ignore"):
        _same(nsd_pdf_rows(nsd, rows), np.exp(simplex_logpdf(nsd, clr)))
        _same(aln_pdf_rows(aln, rows), np.exp(simplex_logpdf(aln, clr)))
    coords = gen.normal(0.0, 3.0, (n, D - 1))
    _same(nsd_logpdf_coords(nsd, coords), nsd._log_norm - 0.5 * mahalanobis2(nsd, coords))


@pytest.mark.parametrize("D", range(2, 9))
def test_scalar_maps_and_densities_keep_their_bits(D):
    # one-row products are matrix-vector BLAS calls, whose bits depend on the layout
    # of the factor they read
    gen = np.random.default_rng(30 + D)
    nsd = _law(D)
    aln = with_lebesgue_reference(nsd)
    for raw in np.exp(gen.normal(0.0, 2.0, (40, D))):
        x = closure(raw, 5.0)
        _same(x.parts, clr_inv_of_rows(x._clr[None], 5.0)[0])
        _same(x.proportions, clr_inv_of_rows(x._clr[None], 1.0)[0])
        assert nsd_pdf(nsd, x) == _exp_or_inf(float(simplex_logpdf(nsd, x._clr[None])[0]))
        assert aln_pdf(aln, x) == _exp_or_inf(float(simplex_logpdf(aln, x._clr[None])[0]))
        assert measure_ratio(x) == _exp_or_inf(float(log_measure_ratio(x._clr[None])[0]))
        _same(_clr_inv_rows(x._clr[None], 5.0), clr_inv_of_rows(x._clr[None], 5.0))


# hypothesis strategy: D = 2..12, the default or a random basis, kappa, and parts
# log-uniform over 1e-300..1e300, parts whose total passes the largest float, or a clr
# image with entries up to +-700
@st.composite
def one_composition(draw):
    D = draw(st.integers(min_value=2, max_value=12))
    seed = draw(st.integers(0, 2**32 - 1))
    basis = draw(st.sampled_from((None, random_basis(D, np.random.default_rng(seed)))))
    kappa = draw(st.floats(min_value=1e-3, max_value=1e3))
    kind = draw(st.sampled_from(("parts", "overflow", "clr")))
    if kind == "clr":
        return D, basis, kappa, None, np.array(draw(st.lists(
            st.floats(min_value=-700.0, max_value=700.0), min_size=D, max_size=D)))
    if kind == "parts":
        logs = draw(st.lists(st.floats(min_value=-300.0, max_value=300.0), min_size=D, max_size=D))
        return D, basis, kappa, 10.0 ** np.array(logs), None
    big = st.floats(min_value=0.9e308, max_value=1.79e308)  # two of them overflow their sum
    rest = st.floats(min_value=290.0, max_value=308.0)
    parts = draw(st.lists(big, min_size=2, max_size=2)) + [10.0 ** e for e in draw(
        st.lists(rest, min_size=D - 2, max_size=D - 2))]
    return D, basis, kappa, np.array(draw(st.permutations(parts))), None


@given(case=one_composition())
@settings(max_examples=300, deadline=None)
def test_one_composition_has_the_bits_of_its_one_row_kernel_call(case):
    # the one-composition API runs the row kernels on its 1-d clr; a 1-d product and a
    # (1, D) one may take different BLAS paths, so bits are compared, not closeness
    D, basis, kappa, raw, image = case
    if raw is None:
        x = clr_inv(image, kappa)
    else:
        try:
            want = clr_rows(closure_rows(raw[None], kappa))[0]
        except NonPositivePartError:
            with pytest.raises(NonPositivePartError):
                closure(raw, kappa)
            return
        x = closure(raw, kappa)
        _same(x._clr, want)
    _same(x.parts, _clr_inv_rows(x._clr[None], kappa)[0])
    _same(x.proportions, _clr_inv_rows(x._clr[None], 1.0)[0])
    assert measure_ratio(x) == _exp_or_inf(float(_log_measure_ratio(x._clr[None])[0]))
    nsd = _law(D, basis)
    aln = with_lebesgue_reference(nsd)
    assert nsd_pdf(nsd, x) == _exp_or_inf(float(_simplex_logpdf(nsd, x._clr[None])[0]))
    assert aln_pdf(aln, x) == _exp_or_inf(float(_simplex_logpdf(aln, x._clr[None])[0]))
    coords = ilr(x, basis)
    y = ilr_inv(coords, basis, kappa)
    _same(y._clr, (coords[None] @ nsd.basis.matrix.T)[0])
    _same(y.parts, ilr_inv_rows(coords[None], basis, kappa)[0])


@pytest.mark.parametrize("n", _SIZES)
@pytest.mark.parametrize("D", range(2, 9))
def test_draws_keep_their_bits(D, n):
    law = _law(D)
    stream = SeededStream(D, n)
    clr = sample_nsd(law, n, stream)._clr
    _same(clr, draws(law, n, stream))
    assert clr.flags.c_contiguous


@pytest.mark.parametrize("n", _SIZES[1:] + (_BLOCK + 1,))
@pytest.mark.parametrize("D", range(2, 9))
def test_fit_keeps_its_bits(D, n):
    # coords.mean(axis=0) adds down each column, and pairwise at one coordinate; at
    # _BLOCK + 1 rows the last row joins the block before it
    gen = np.random.default_rng(40 * D + n)
    rows = np.exp(gen.normal(0.0, 1.0, (max(n, D), D)))
    for basis in (None, random_basis(D, gen)):
        sample = SimplexSample.from_rows(rows, 1.0, basis)
        law = fit_nsd(sample)
        mu, sigma = fit(sample)
        _same(law.mu, mu)
        _same(law.sigma, sigma)


def test_ndtr_keeps_its_bits_across_the_branches():
    # values straddling +-sqrt 2 and +-8 sqrt 2 (and the NaN, the infinities and the
    # cut at 40) on both sides of a block seam
    edges = np.array([math.sqrt(2.0), 8.0 * math.sqrt(2.0), 40.0, 1e300, math.inf])
    edges = np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges, np.inf)])
    edges = np.concatenate([edges, -edges, [0.0, math.nan]])
    z = np.random.default_rng(8).normal(0.0, 7.0, 2 * _BLOCK + 40)
    for seam in (_BLOCK, 2 * _BLOCK):
        z[seam - edges.size // 2:seam - edges.size // 2 + edges.size] = edges
    want = np.concatenate([ndtr_block(z[s:s + _BLOCK]) for s in range(0, z.size, _BLOCK)])
    _same(ndtr(z), want)
    _same(ndtr(z[:7]), ndtr_block(z[:7]))

