"""Figure-equivalent numeric artifacts: histograms and density grids.

Nothing here draws anything.  Each builder returns a plain container of
numbers that a plotting tool (or a golden test) can consume:

* :func:`histogram_artifact` — bins a positive sample with equal-width bins
  in either the Euclidean metric (arithmetic edges) or the line's own
  log-ratio metric (geometric edges), and attaches both fitted density
  curves, each against its own reference measure.
* :func:`ternary_density_grid` — evaluates a three-part simplex law on a
  barycentric lattice and locates its strict local maxima on the log
  densities, which is how the Lebesgue-referred density reveals its spurious
  multimodality.
* :func:`coordinate_density_grid` — the same law evaluated on a rectangular
  grid in coordinate space, where it is just a normal surface.

Each density is the ``exp`` of a log density from the kernels of
:mod:`codanorm.laws` and :mod:`codanorm.simplex`, with the log measure ratio
added where the law's reference-measure tag asks for it.  The ternary lattice
itself does not depend on the law: the grids at one ``(resolution, margin)``
share its read-only ``points``, ``i_index`` and ``j_index``, and the last
lattice built stays alive for the life of the process.  ``points`` is a
transposed view of coordinate-major ``(3, n)`` storage, so the ternary grid
runs in blocks of ``_special._blockwise`` on contiguous parts, and the lattice
also holds its cells' log measure ratio, the one term by which the two labels'
log densities differ: a Lebesgue grid is the natural one plus that array.  At
resolution 1000 the points take 12 MB and the ratio 4 MB, built by the first
Lebesgue grid; the index arrays, 8 MB more, are built only when first read.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import simplex
from ._special import _blockwise
from .errors import (
    BadIntervalError,
    DegenerateVarianceError,
    DimensionMismatchError,
    InsufficientDataError,
    NonPositivePartError,
    NumericalError,
)
from .inference import RPlusSample, fit_nrp
from .laws import (
    LognormalLaw,
    NormalOnRPlus,
    _exp_rows,
    _line_logpdf,
    _require,
    _SimplexGaussian,
    nsd_logpdf_coords,
)

__all__ = [
    "HistogramArtifact",
    "TernaryDensityGrid",
    "CoordinateDensityGrid",
    "histogram_artifact",
    "ternary_density_grid",
    "coordinate_density_grid",
]


@dataclass(slots=True, eq=False, repr=False)
class HistogramArtifact:
    """Binned positive data plus the two fitted density curves.

    ``bin_measure`` holds each bin's size in the chosen metric (constant
    across bins by construction); ``empirical_density`` is
    ``count / (n * bin_measure)``, directly comparable to ``nrp_density``
    for the log-ratio metric and to ``lognormal_density`` for the Euclidean
    one.
    """

    metric: str
    edges: np.ndarray
    midpoints: np.ndarray
    counts: np.ndarray
    bin_measure: np.ndarray
    empirical_density: np.ndarray
    nrp_density: np.ndarray
    lognormal_density: np.ndarray
    n: int
    law: NormalOnRPlus

    def __repr__(self):
        return (
            f"HistogramArtifact(metric={self.metric!r}, bins={self.counts.size}, "
            f"n={self.n})"
        )


def histogram_artifact(sample: RPlusSample, metric, bins=20) -> HistogramArtifact:
    """Bin ``sample`` with equal-width bins in the chosen ``metric``.

    ``metric='euclidean'`` gives arithmetic-progression edges,
    ``metric='logratio'`` geometric-progression edges (equal length in the
    line's own distance, midpoints taken in logs).  The fitted law provides the
    two density columns; a Lebesgue density past the largest float is ``inf``.
    Values too close together for ``bins`` distinct edges raise
    :class:`DegenerateVarianceError`, values past the float range :class:`NumericalError`.
    """
    if metric not in ("euclidean", "logratio"):
        raise BadIntervalError(f"metric must be 'euclidean' or 'logratio', got {metric!r}")
    bins = int(bins)
    if bins < 2:
        raise InsufficientDataError(f"need at least 2 bins, got {bins}")
    law = fit_nrp(sample)  # also rejects constant samples
    values = _exp_rows(sample.logs)  # checked before any edge is built
    lo, hi = float(values.min()), float(values.max())
    if not 0.0 < lo <= hi < math.inf:
        raise NumericalError(f"the values lie past the float range: exp gives {lo!r} to {hi!r}")
    if metric == "euclidean":
        edges = np.linspace(lo, hi, bins + 1)
        measure = np.diff(edges)
        midpoints = edges[:-1] + 0.5 * measure  # no sum of edges, which can overflow
        log_mid = np.log(midpoints)
    else:
        with np.errstate(over="ignore"):  # the last power may round past the largest float
            edges = np.geomspace(lo, hi, bins + 1)  # pins lo and hi, so every value is binned
        log_edges = np.log(edges)
        log_mid = 0.5 * (log_edges[:-1] + log_edges[1:])
        midpoints = np.exp(log_mid)
        measure = np.diff(log_edges)
    if not np.all(measure > 0.0):  # edges repeat where the spread is below float spacing
        raise DegenerateVarianceError(f"the values span too narrow a range for {bins} bins")
    counts, _ = np.histogram(values, edges)
    nrp_density = _exp_rows(_line_logpdf(law, log_mid))
    ln_density = _exp_rows(_line_logpdf(LognormalLaw(law.mu, law.sigma2), log_mid))
    with np.errstate(over="ignore"):  # the density of a subnormal-width bin may be inf
        empirical = counts / (sample.n * measure)
    return HistogramArtifact(
        metric, edges, midpoints, counts, measure, empirical,
        nrp_density, ln_density, sample.n, law,
    )


@dataclass(slots=True, eq=False, repr=False)
class TernaryDensityGrid:
    """Density values of a three-part law on a barycentric lattice.

    ``resolution`` is the number of lattice steps per axis, so parts move in
    increments of ``1/resolution``; points with any part below ``margin``
    are excluded.  ``maxima`` holds one ``(parts, density)`` pair per local
    maximum, highest first: a lattice point that outranks its first- and
    second-ring neighbours, ranked by log density with ties to the first in
    ``(i, j)`` order, so a flat peak is reported once, at its first cell (see
    ``_lattice_maxima``).  Logs keep the mode of densities that underflow to 0.
    A maximum's ``parts`` match its row of ``points`` only to rounding, because a
    :class:`~codanorm.simplex.Composition` holds the clr image of its parts.

    In a grid from :func:`ternary_density_grid`, ``i_index``, ``j_index`` and
    ``points`` are read-only and shared by every grid at the same lattice; copy
    them before writing.  ``points`` is the transpose of coordinate-major
    ``(3, n)`` storage, and the index arrays are built on first access.
    """

    resolution: int
    margin: float
    i_index: np.ndarray
    j_index: np.ndarray
    points: np.ndarray
    values: np.ndarray
    maxima: list
    law: _SimplexGaussian

    def matrix(self) -> np.ndarray:
        """Dense ``(resolution+1)**2`` value matrix, NaN off the lattice."""
        r = self.resolution
        m = np.full((r + 1, r + 1), np.nan)
        m[self.i_index, self.j_index] = self.values
        return m

    def __repr__(self):
        return (
            f"TernaryDensityGrid(resolution={self.resolution}, "
            f"points={self.values.size}, maxima={len(self.maxima)})"
        )


class _LatticeGrid(TernaryDensityGrid):
    """The grid :func:`ternary_density_grid` returns.  Its ``i_index`` and ``j_index`` slots
    are left unset and read from its lattice, which builds those arrays on first access: a
    grid's values and maxima need neither, and they would be 8 MB of the lattice at
    resolution 1000.  A copy, a pickle or ``dataclasses.replace`` sets them."""

    __slots__ = ("_cells",)

    @classmethod
    def _on(cls, cells, resolution, margin, values, maxima, law):
        grid = object.__new__(cls)
        grid.resolution, grid.margin, grid.points = resolution, margin, cells.points
        grid.values, grid.maxima, grid.law, grid._cells = values, maxima, law, cells
        return grid

    def __getattr__(self, name):  # called only for a slot left unset
        if name in ("i_index", "j_index"):
            return self._cells.indices[name == "j_index"]
        raise AttributeError(name)

    def matrix(self) -> np.ndarray:
        """The dense matrix, each lattice row filled from the run of values it starts; a
        ``dataclasses.replace`` copy has no lattice and reads its index arrays."""
        cells = getattr(self, "_cells", None)
        if cells is None:
            return super().matrix()
        r, lo, values = self.resolution, cells.lo, self.values
        m = np.full((r + 1, r + 1), np.nan)
        for i, (start, length) in enumerate(zip(cells.starts.tolist(), cells._lengths.tolist()),
                                            start=lo):
            m[i, lo:lo + length] = values[start:start + length]
        return m


def ternary_density_grid(law, resolution=400, margin=1e-4) -> TernaryDensityGrid:
    """Evaluate a three-part simplex law on the barycentric lattice and find
    its local maxima.  A ``margin`` that leaves no lattice point (every part at
    least ``ceil(margin * resolution)`` steps needs ``3 * that <= resolution``)
    raises :class:`InsufficientDataError`."""
    _require(law, _SimplexGaussian)
    if law.D != 3:
        raise DimensionMismatchError(f"ternary grid needs 3 parts, law has {law.D}")
    resolution = int(resolution)
    if resolution < 4:
        raise InsufficientDataError(f"resolution must be at least 4, got {resolution}")
    margin = float(margin)
    if not 0.0 < margin < 1.0 / 3.0:
        raise NonPositivePartError(f"margin must be in (0, 1/3), got {margin!r}")

    r = resolution
    lo = int(math.ceil(margin * r))
    if 3 * lo > r:
        raise InsufficientDataError(
            f"no lattice point at resolution {r} has every part >= margin {margin!r}"
        )
    cells = _lattice(r, lo)
    Ut = simplex._as_basis(3, law.basis).matrix.T
    # a block's clr image is coordinate-major, (3, n).T, so its coordinates are U.T @ clr.T:
    # the product clr @ U transposed, the same BLAS call
    log_values = _blockwise(
        lambda block: nsd_logpdf_coords(law, (Ut @ simplex._clr_rows(block).T).T), cells.points)
    if law._lebesgue:
        log_values += cells.log_ratio
    values = _exp_rows(log_values)
    maxima = _lattice_maxima(cells, log_values, values)
    return _LatticeGrid._on(cells, r, margin, values, maxima, law)


class _Lattice:
    """The barycentric lattice at resolution ``r`` whose parts are all at least ``lo``
    steps, and what every grid on it shares, all read-only: ``starts``, the flat index of
    each lattice row's first cell; ``points``, the transpose of a coordinate-major ``(3, n)``
    array; and, each built on first access, ``log_ratio`` and ``indices``."""

    def __init__(self, r, lo):
        self.r, self.lo = r, lo
        # lattice row i (lo <= i <= r - 2*lo) holds the cells j = lo .. r - lo - i
        self._lengths = np.arange(r - 3 * lo + 1, 0, -1)
        self.starts = np.cumsum(self._lengths) - self._lengths
        ii, jj = self._steps()
        columns = np.empty((3, ii.size))
        np.subtract(r, ii, out=columns[2])
        columns[2] -= jj  # the third part's steps, exact in floats: no integer temporary
        for column, steps in zip(columns, (ii, jj, columns[2])):
            np.divide(steps, r, out=column)
        for array in (self.starts, columns):
            array.flags.writeable = False
        self.points = columns.T

    def _steps(self):
        """Fresh ``(i, j)`` step arrays of the cells, in row-major order."""
        lengths, lo = self._lengths, self.lo
        ii = np.repeat(np.arange(lo, lo + lengths.size), lengths)
        return ii, np.arange(ii.size) - np.repeat(self.starts - lo, lengths)

    @functools.cached_property
    def log_ratio(self):
        """Each cell's log measure ratio, the one law-independent term of a Lebesgue grid:
        built by the first Lebesgue grid, so natural grids alone never pay for it."""
        log_ratio = _blockwise(
            lambda block: simplex._log_measure_ratio(simplex._clr_rows(block)), self.points)
        log_ratio.flags.writeable = False
        return log_ratio

    @functools.cached_property
    def indices(self):
        """The cells' read-only ``(i_index, j_index)``, built when a grid's are first read."""
        steps = self._steps()
        for array in steps:
            array.flags.writeable = False
        return steps


# the last lattice built is kept, so the grids of several laws at one lattice share it
_lattice = functools.lru_cache(maxsize=1)(_Lattice)


# Neighborhood on the barycentric lattice: steps whose integer barycentric
# displacement (di, dj, -di-dj) is a permutation of (1, -1, 0) — the six
# nearest neighbors — or of (2, -1, -1) / (1, 1, -2) — the second ring.
# The second ring matters: a density ridge running along a lattice symmetry
# line advances by such steps, and comparing only nearest neighbors would
# report every ridge sample as a separate maximum.
_NEIGHBOR_STEPS = [
    (1, -1), (-1, 1), (1, 0), (-1, 0), (0, 1), (0, -1),
    (2, -1), (-2, 1), (1, -2), (-1, 2), (1, 1), (-1, -1),
]


def _lattice_maxima(cells, log_values, values):
    """Local maxima of a log density on the barycentric lattice ``cells``, as ``(parts,
    density)`` pairs from the highest down, each density read from ``values``.

    Cells are ranked by log density (logs stay distinct where densities
    underflow to 0.0), ties going to the first cell in ``(i, j)`` order; a cell
    is a maximum when it outranks every neighbor on the lattice, a neighbor off
    the lattice counting as ``-inf``.  So a plateau (e.g. a symmetric mode
    falling exactly between lattice points) is reported once, at its first
    cell, and a cell whose log is ``-inf`` never is.

    The cells lie in ``(i, j)`` order with row ``i`` from ``starts[i - lo]``, so
    the neighbors along a row are the flat neighbors: those two steps sift every
    cell, and the other ten are taken only at the cells left, whose ``(i, j)``
    are read off ``starts``.
    """
    r, lo, starts = cells.r, cells.lo, cells.starts
    ends = np.append(starts[1:], log_values.size) - 1
    # strictly above a neighbor that comes first, no lower than one after
    above_before = np.empty(log_values.size, dtype=bool)
    above_before[1:] = log_values[1:] > log_values[:-1]
    above_before[starts] = log_values[starts] > -np.inf
    above_after = np.empty(log_values.size, dtype=bool)
    above_after[:-1] = log_values[:-1] >= log_values[1:]
    above_after[ends] = log_values[ends] >= -np.inf
    at = np.flatnonzero(above_before & above_after)
    row = np.searchsorted(starts, at, side="right") - 1
    at_i, at_j = row + lo, at - starts[row] + lo
    for di, dj in _NEIGHBOR_STEPS:
        if di == 0:  # the two steps along a row, taken above
            continue
        i, j = at_i + di, at_j + dj
        on = (i >= lo) & (j >= lo) & (i + j <= r - lo)
        cell = np.where(on, starts[np.clip(i - lo, 0, starts.size - 1)] + j - lo, 0)
        neighbor = np.where(on, log_values[cell], -np.inf)
        core = log_values[at]
        keep = core > neighbor if (di, dj) < (0, 0) else core >= neighbor
        at, at_i, at_j = at[keep], at_i[keep], at_j[keep]
    order = np.argsort(-log_values[at], kind="stable")
    return [(simplex.Composition(np.array([i, j, r - i - j], dtype=float) / r), float(values[k]))
            for k, i, j in zip(at[order], at_i[order], at_j[order])]


@dataclass(slots=True, eq=False, repr=False)
class CoordinateDensityGrid:
    """Coordinate-space density surface of a two-coordinate simplex law."""

    x_axis: np.ndarray
    y_axis: np.ndarray
    values: np.ndarray
    law: _SimplexGaussian

    def __repr__(self):
        return f"CoordinateDensityGrid(shape={self.values.shape})"


def coordinate_density_grid(law, resolution=200, reach=4.0) -> CoordinateDensityGrid:
    """Evaluate the coordinate normal density of a two-coordinate law on a
    rectangular grid spanning ``mu +/- reach`` standard deviations."""
    _require(law, _SimplexGaussian)
    if law.dim != 2:
        raise DimensionMismatchError(
            f"coordinate grid needs 2 coordinates, law has {law.dim}"
        )
    resolution = int(resolution)
    if resolution < 2:
        raise InsufficientDataError(f"resolution must be at least 2, got {resolution}")
    reach = float(reach)
    if not 0.0 < reach < math.inf:
        raise NonPositivePartError(f"reach must be positive and finite, got {reach!r}")
    sd = np.sqrt(np.diag(law.sigma))
    x = np.linspace(law.mu[0] - reach * sd[0], law.mu[0] + reach * sd[0], resolution)
    y = np.linspace(law.mu[1] - reach * sd[1], law.mu[1] + reach * sd[1], resolution)
    gx, gy = np.meshgrid(x, y, indexing="ij")
    pts = np.column_stack([gx.ravel(), gy.ravel()])
    values = _exp_rows(nsd_logpdf_coords(law, pts)).reshape(resolution, resolution)
    return CoordinateDensityGrid(x, y, values, law)
