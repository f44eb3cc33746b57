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

Each density is the ``exp`` of the space's vectorised log-density kernel in
:mod:`codanorm.laws`, which reads the law's reference-measure tag; the ternary
grid runs it on its lattice points in blocks of ``_special._blockwise``.  The
lattice itself does not depend on the law: the grids at one ``(resolution,
margin)`` share its read-only ``points``, ``i_index`` and ``j_index``, and the
last lattice built stays alive for the life of the process (about 20 MB at
resolution 1000).
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
)
from .inference import RPlusSample, fit_nrp
from .laws import (
    LognormalLaw,
    NormalOnRPlus,
    _exp_rows,
    _line_logpdf,
    _require,
    _simplex_logpdf,
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
    :class:`DegenerateVarianceError`.
    """
    if metric not in ("euclidean", "logratio"):
        raise BadIntervalError(f"metric must be 'euclidean' or 'logratio', got {metric!r}")
    bins = int(bins)
    if bins < 2:
        raise InsufficientDataError(f"need at least 2 bins, got {bins}")
    law = fit_nrp(sample)  # also rejects constant samples
    values = np.exp(sample.logs)
    lo, hi = float(values.min()), float(values.max())
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

    ``i_index``, ``j_index`` and ``points`` are read-only and shared by every
    grid at the same lattice; copy them before writing.
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
    starts, ii, jj, points = _lattice(r, lo)
    log_values = _blockwise(lambda cells: _simplex_logpdf(law, simplex._clr_rows(cells)), points)
    values = _exp_rows(log_values)
    maxima = _lattice_maxima(r, lo, starts, ii, jj, log_values, values)
    return TernaryDensityGrid(r, margin, ii, jj, points, values, maxima, law)


@functools.lru_cache(maxsize=1)
def _lattice(r, lo):
    """Read-only ``(starts, i_index, j_index, points)`` of the lattice at resolution
    ``r`` whose parts are all at least ``lo`` steps; the last lattice built is kept, so
    the grids of several laws at one lattice share its arrays."""
    # lattice row i (lo <= i <= r - 2*lo) holds the cells j = lo .. r - lo - i
    lengths = np.arange(r - 3 * lo + 1, 0, -1)
    starts = np.cumsum(lengths) - lengths  # flat index of each row's first cell
    ii = np.repeat(np.arange(lo, lo + lengths.size), lengths)
    jj = np.arange(ii.size) - np.repeat(starts - lo, lengths)
    points = np.empty((ii.size, 3))
    for column, steps in enumerate((ii, jj, r - ii - jj)):
        np.divide(steps, r, out=points[:, column])  # no (n, 3) integer temporary
    for array in (starts, ii, jj, points):
        array.flags.writeable = False
    return starts, ii, jj, points


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


def _lattice_maxima(r, lo, starts, ii, jj, log_values, values):
    """Local maxima of a log density on the barycentric lattice, as ``(parts,
    density)`` pairs from the highest down, each density read from ``values``.

    Cells are ranked by log density (logs stay distinct where densities
    underflow to 0.0), ties going to the first cell in ``(i, j)`` order; a cell
    is a maximum when it outranks every neighbor on the lattice, a neighbor off
    the lattice counting as ``-inf``.  So a plateau (e.g. a symmetric mode
    falling exactly between lattice points) is reported once, at its first
    cell, and a cell whose log is ``-inf`` never is.

    The cells lie in ``(i, j)`` order with row ``i`` from ``starts[i - lo]``, so
    the neighbors along a row are the flat neighbors: those two steps sift every
    cell, and the other ten are taken only at the cells left.
    """
    ends = np.append(starts[1:], log_values.size) - 1
    # strictly above a neighbor that comes first, no lower than one after
    above_before = np.empty(log_values.size, dtype=bool)
    above_before[1:] = log_values[1:] > log_values[:-1]
    above_before[starts] = log_values[starts] > -np.inf
    above_after = np.empty(log_values.size, dtype=bool)
    above_after[:-1] = log_values[:-1] >= log_values[1:]
    above_after[ends] = log_values[ends] >= -np.inf
    at = np.flatnonzero(above_before & above_after)
    for di, dj in _NEIGHBOR_STEPS:
        if di == 0:  # the two steps along a row, taken above
            continue
        i, j = ii[at] + di, jj[at] + dj
        on = (i >= lo) & (j >= lo) & (i + j <= r - lo)
        cell = np.where(on, starts[np.clip(i - lo, 0, starts.size - 1)] + j - lo, 0)
        neighbor = np.where(on, log_values[cell], -np.inf)
        core = log_values[at]
        at = at[core > neighbor if (di, dj) < (0, 0) else core >= neighbor]
    at = at[np.argsort(-log_values[at], kind="stable")]
    return [(simplex.Composition(np.array([ii[k], jj[k], r - ii[k] - jj[k]], dtype=float) / r),
             float(values[k])) for k in at]


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
