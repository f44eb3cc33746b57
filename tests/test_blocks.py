"""The block loop ``_special._blockwise`` behind every row kernel: a row's result
does not depend on the block it falls in, one-block and empty calls keep their
shapes, and the results do not depend on the number of OpenBLAS threads."""

import os
import subprocess
import sys

import numpy as np
import pytest

from codanorm import AlnLaw, NormalOnSimplex, SimplexSample, ternary_density_grid
from codanorm import _special
from codanorm._special import chdtr, ndtr, ndtri
from codanorm.inference import _gof_layers
from codanorm.laws import aln_pdf_rows, nsd_pdf_rows
from codanorm.sampling import sample_nsd
from codanorm.simplex import closure_rows, clr_rows, ilr_inv_rows, ilr_rows, random_basis

_B = _special._BLOCK
_N = 2 * _B + 5  # two full blocks and a short third
_LAW = NormalOnSimplex([0.3, -0.2, 0.1], [[0.5, 0.1, 0.0], [0.1, 0.3, 0.05], [0.0, 0.05, 0.4]])
_BASIS = random_basis(4, np.random.default_rng(2))


def _parts(rng):
    return closure_rows(np.exp(rng.normal(0.0, 1.5, (_N, 4))))


class _Given:
    """A stream whose generator hands back the given standard normals."""

    def __init__(self, z):
        self.z = z

    def generator(self):
        return self

    def standard_normal(self, shape):
        assert shape == self.z.shape
        return self.z


# kernel name -> (the kernel on rows, the rows it is given)
_KERNELS = {
    "ndtr": (ndtr, lambda rng: rng.normal(0.0, 6.0, _N)),
    "ndtri": (ndtri, lambda rng: 10.0 ** -rng.uniform(0.0, 300.0, _N)),
    "chdtr": (lambda x: chdtr(3, x), lambda rng: rng.chisquare(3, _N) * rng.uniform(0.1, 4.0, _N)),
    "closure_rows": (lambda raw: closure_rows(raw, 2.0),
                     lambda rng: np.exp(rng.normal(0.0, 1.5, (_N, 4)))),
    "clr_rows": (clr_rows, _parts),
    "ilr_rows": (lambda rows: ilr_rows(rows, _BASIS), _parts),
    "ilr_inv_rows": (lambda coords: ilr_inv_rows(coords, _BASIS, 3.0),
                     lambda rng: rng.normal(0.0, 2.0, (_N, 3))),
    "nsd_pdf_rows": (lambda rows: nsd_pdf_rows(_LAW, rows), _parts),
    "aln_pdf_rows": (lambda rows: aln_pdf_rows(AlnLaw(_LAW.mu, _LAW.sigma), rows), _parts),
    "SimplexSample.coords": (lambda rows: SimplexSample.from_rows(rows).coords, _parts),
    "SimplexSample.rows": (lambda clr: SimplexSample._from_clr(clr.copy(), 2.0, None).rows,
                           lambda rng: clr_rows(_parts(rng))),
    "gof transforms": (lambda clr: np.column_stack(
                           list(_gof_layers(SimplexSample._from_clr(clr.copy(), 1.0, None), _LAW))),
                       lambda rng: clr_rows(_parts(rng))),
    "sample_nsd": (lambda z: sample_nsd(_LAW, len(z), _Given(z))._clr,
                   lambda rng: rng.normal(0.0, 1.0, (_N, 3))),
}


# D -> the basis-free ilr maps at D parts, on _N rows
def _ilr_kernels(D):
    return {
        f"ilr_rows D={D}": (ilr_rows, lambda rng: closure_rows(np.exp(rng.normal(0, 1.5, (_N, D))))),
        f"ilr_inv_rows D={D}": (ilr_inv_rows, lambda rng: rng.normal(0.0, 2.0, (_N, D - 1))),
    }


# D -> the sampler's map of _N given normals to clr rows, for a D-part law in a random basis
def _sampler_kernel(D):
    gen = np.random.default_rng(D)
    a = gen.normal(size=(D - 1, D - 1))
    law = NormalOnSimplex(gen.normal(0.0, 0.5, D - 1), a @ a.T / D + 0.3 * np.eye(D - 1),
                          random_basis(D, gen))
    return (lambda z: sample_nsd(law, len(z), _Given(z))._clr,
            lambda rng: rng.normal(0.0, 1.0, (_N, D - 1)))


_ALL_KERNELS = {**_KERNELS, **{k: v for D in range(3, 9) for k, v in _ilr_kernels(D).items()},
                **{f"sample_nsd D={D}": _sampler_kernel(D) for D in range(2, 9)}}


@pytest.mark.parametrize("name", list(_ALL_KERNELS))
def test_blocks_join_without_seams(name):
    kernel, make = _ALL_KERNELS[name]
    rows = make(np.random.default_rng(4))
    whole = kernel(rows)
    by_block = np.concatenate([kernel(rows[s:s + _B]) for s in range(0, _N, _B)])
    assert whole.shape == by_block.shape and whole.tobytes() == by_block.tobytes()


@pytest.mark.parametrize("n", [_B + 1, 2 * _B + 1])
@pytest.mark.parametrize("name", list(_ALL_KERNELS))
def test_a_lone_last_row_joins_the_block_before_it(name, n):
    # alone in a block, the last row would go through BLAS's matrix-vector path
    kernel, make = _ALL_KERNELS[name]
    rows = make(np.random.default_rng(6))[:n]
    whole = kernel(rows)
    assert whole[:n - 1].tobytes() == kernel(rows[:n - 1]).tobytes()  # only the last row moves
    assert whole[n - 3:].tobytes() == kernel(rows[n - 3:]).tobytes()


@pytest.mark.parametrize("D", range(2, 13))
def test_short_calls_close_rows_as_a_long_call_does(D):
    # 1-, 2- and 3-row windows against a call of 16,387 rows, whose last block has 3
    raw = np.exp(np.random.default_rng(D).normal(0.0, 1.5, (_B + 3, D)))
    whole = closure_rows(raw, 2.0)
    for width in (1, 2, 3):
        for start in [*range(0, _B, 97), _B]:
            window = slice(start, start + width)
            assert closure_rows(raw[window], 2.0).tobytes() == whole[window].tobytes(), window


def test_ternary_grid_joins_without_seams():
    # 250 steps give 30,876 cells, two blocks whose seam falls inside a lattice row
    law = NormalOnSimplex([0.3, -0.2], [[0.5, 0.1], [0.1, 0.3]])
    grid = ternary_density_grid(law, resolution=250)
    by_block = np.concatenate([nsd_pdf_rows(law, grid.points[s:s + _B])
                               for s in range(0, grid.points.shape[0], _B)])
    assert grid.points.shape[0] > _B and grid.values.tobytes() == by_block.tobytes()


def test_zero_dimensional_inputs_keep_their_shape():
    assert np.shape(ndtr(-40.0)) == () and ndtr(-40.0) == 0.0
    assert np.shape(ndtri(0.025)) == () and float(ndtri(0.5)) == 0.0
    assert np.shape(chdtr(3, 2.0)) == () and 0.0 < chdtr(3, 2.0) < 1.0


@pytest.mark.parametrize("D", [2, 3, 5])
def test_empty_rows_keep_their_shape(D):
    rows, coords = np.empty((0, D)), np.empty((0, D - 1))
    law = NormalOnSimplex(np.zeros(D - 1), np.eye(D - 1))
    assert closure_rows(rows).shape == (0, D) and clr_rows(rows).shape == (0, D)
    assert ilr_rows(rows).shape == (0, D - 1) and ilr_inv_rows(coords).shape == (0, D)
    assert nsd_pdf_rows(law, rows).shape == (0,)
    assert aln_pdf_rows(AlnLaw(law.mu, law.sigma), rows).shape == (0,)
    sample = SimplexSample.from_rows(rows)
    assert sample.coords.shape == (0, D - 1) and sample.rows.shape == (0, D)
    assert ndtr(np.empty(0)).shape == (0,) and chdtr(D, np.empty((0, 2))).shape == (0, 2)


_DIGEST_SCRIPT = """
import hashlib
import numpy as np
from codanorm import AlnLaw, NormalOnSimplex, SeededStream, SimplexSample, sample_nsd
from codanorm import ternary_density_grid
from codanorm._special import chdtr, ndtr, ndtri
from codanorm.inference import fit_nsd, gof_battery
from codanorm.laws import aln_pdf_rows, nsd_pdf_rows
from codanorm.simplex import closure_rows, clr_rows, ilr_inv_rows, ilr_rows

rng = np.random.default_rng(9)
h = hashlib.sha256()
rows = closure_rows(np.exp(rng.normal(0.0, 1.5, (200_003, 4))))
law = NormalOnSimplex([0.3, -0.2, 0.1], np.eye(3) * 0.4 + 0.1)
sample = SimplexSample.from_rows(rows)
fit = fit_nsd(sample)
for out in (rows, clr_rows(rows), ilr_rows(rows), ilr_inv_rows(ilr_rows(rows), None, 2.0),
            nsd_pdf_rows(law, rows), aln_pdf_rows(AlnLaw(law.mu, law.sigma), rows),
            sample.coords, sample.rows, fit.mu, fit.sigma,
            [e.statistic for e in gof_battery(sample, fit)],
            sample_nsd(law, 100_000, SeededStream(3)).rows,
            ternary_density_grid(NormalOnSimplex([0.2, 0.1], np.eye(2)), 400).values,
            ndtr(rng.normal(0.0, 5.0, 100_000)), ndtri(rng.uniform(0.0, 1.0, 100_000)),
            chdtr(5, rng.chisquare(5, 100_000))):
    h.update(np.ascontiguousarray(out, dtype=float).tobytes())
print(h.hexdigest())
"""


def test_outputs_do_not_depend_on_the_blas_thread_count():
    # fresh processes, so OpenBLAS reads its thread count at start-up
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    digests = [
        subprocess.run([sys.executable, "-c", _DIGEST_SCRIPT], env=extra, capture_output=True,
                       text=True, check=True).stdout
        for extra in (env, {**env, "OPENBLAS_NUM_THREADS": "1"})
    ]
    assert len(digests[0]) > 60 and digests[0] == digests[1]
