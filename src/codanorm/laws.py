"""Normal laws on the positive real line and on the simplex.

One probability law, two densities.  A random positive value whose log is
Gaussian can be described

* against the *natural* measure of the positive line (density constant in the
  line's own geometry: symmetric, unimodal at ``exp(mu)``), or
* against Lebesgue measure, which multiplies the density by ``1/x`` and
  produces the familiar skewed lognormal curve.

Same on the simplex: a composition whose orthonormal log-ratio coordinates
are multivariate normal has, against the natural simplex measure, the plain
multivariate normal density of its coordinates; against Lebesgue measure on
the unit simplex (the (D-1)-dimensional volume of the free parts, any one
part being redundant) the density picks up the factor
``1 / (sqrt(D) x1...xD)`` and is the additive-logistic-normal density.  The
four law classes tag the reference measure a density refers to (``_lebesgue``).
One log-density kernel per space reads log coordinates (the log on the line,
clr rows on the simplex) and adds the log measure ratio under the Lebesgue
tag; every density is its ``exp``.  Probabilities of events never read the tag.

All probabilities of intervals and boxes are computed through the normal CDF
of the coordinates, never by integrating a density; boxes of d >= 2 use the
multivariate normal CDF with a fixed seed, so every call gives one number.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.hermite_e import hermegauss

from . import simplex
from .errors import (
    BadIntervalError,
    DegenerateScaleError,
    DimensionMismatchError,
    NonPositivePartError,
    NotSPDError,
    QuadratureUnstableError,
)
from .rplus import PositiveValue, _exp_or_inf, as_positive
from .simplex import Composition, ContrastBasis, PermutationMap, SelectionMatrix

__all__ = [
    "NormalOnRPlus",
    "LognormalLaw",
    "NormalOnSimplex",
    "AlnLaw",
    "RPlusMoments",
    "LebesgueMoments",
    "NaiveInterval",
    "SimplexMoments",
    "nrp_pdf",
    "nrp_moments",
    "nrp_interval",
    "nrp_transform",
    "lognormal_pdf",
    "lognormal_moments",
    "lognormal_naive_interval",
    "probability_of_interval",
    "nsd_pdf",
    "nsd_pdf_rows",
    "nsd_logpdf_coords",
    "aln_pdf",
    "aln_pdf_rows",
    "nsd_moments",
    "nsd_transform",
    "nsd_permute",
    "nsd_subcomposition",
    "aln_classical_mean",
    "probability_of_box",
    "with_lebesgue_reference",
    "with_natural_reference",
]


_SQRT2 = math.sqrt(2.0)
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


@dataclass(slots=True)  # equal when the class and both parameters are; unhashable
class _ScalarLogGaussian:
    """Shared parameter container: ``ln X ~ N(mu, sigma2)``."""

    mu: float
    sigma2: float
    _lebesgue = False  # the reference measure: natural unless a label says Lebesgue

    def __post_init__(self):
        self.mu, self.sigma2 = float(self.mu), float(self.sigma2)
        if not math.isfinite(self.mu):
            raise DegenerateScaleError(f"mu must be finite, got {self.mu!r}")
        if not math.isfinite(self.sigma2) or self.sigma2 <= 0.0:
            raise DegenerateScaleError(f"sigma2 must be strictly positive, got {self.sigma2!r}")

    @property
    def sigma(self):
        return math.sqrt(self.sigma2)


def _line_logpdf(law, t):
    """The line's log-density kernel at the log value(s) ``t`` (a float or an array):
    the ``N(mu, sigma2)`` log density, less ``t`` under the Lebesgue tag."""
    z = (t - law.mu) / law.sigma
    log_density = -0.5 * z * z - math.log(law.sigma) - _HALF_LOG_2PI
    return log_density - t if law._lebesgue else log_density


class NormalOnRPlus(_ScalarLogGaussian):
    """Normal law on the positive line, referred to its natural measure.

    ``nrp_pdf`` is symmetric around ``exp(mu)`` in the line's own geometry;
    mean, median and mode all coincide there.
    """


class LognormalLaw(_ScalarLogGaussian):
    """The same probability law referred to Lebesgue measure on the reals.

    Density is the classical skewed lognormal curve; classical mean, median
    and mode are all different.
    """

    _lebesgue = True


def nrp_pdf(law: NormalOnRPlus, x) -> float:
    """Density of ``law`` at ``x`` with respect to the natural measure."""
    _require(law, NormalOnRPlus)
    return math.exp(_line_logpdf(law, as_positive(x).log))


def lognormal_pdf(law: LognormalLaw, x) -> float:
    """Density of ``law`` at ``x`` with respect to Lebesgue measure.

    Defined on the whole real line: zero off the support ``x > 0``.  A density
    past the largest float (``x`` near 0 under a law concentrated there) is
    ``math.inf``.
    """
    _require(law, LognormalLaw)
    x = float(x)
    if x <= 0.0:
        return 0.0
    return _exp_or_inf(_line_logpdf(law, math.log(x)))


@dataclass(slots=True, eq=False)
class RPlusMoments:
    """Moments of a :class:`NormalOnRPlus` law, all native to the positive
    line: the three location summaries coincide at ``exp(mu)`` and the
    spread is measured by the squared natural distance."""

    mean: PositiveValue
    median: PositiveValue
    mode: PositiveValue
    metric_variance: float

    def __post_init__(self):
        self.metric_variance = float(self.metric_variance)


def nrp_moments(law: NormalOnRPlus) -> RPlusMoments:
    """Mean = median = mode = ``exp(mu)``; metric variance ``sigma2``."""
    _require(law, NormalOnRPlus)
    loc = PositiveValue.from_log(law.mu)
    return RPlusMoments(loc, loc, loc, law.sigma2)


def nrp_interval(law: NormalOnRPlus, k) -> tuple[PositiveValue, PositiveValue]:
    """Interval of ``k`` standard deviations around the mean, taken in the
    geometry of the line: ``(exp(mu - k*sigma), exp(mu + k*sigma))``.

    Both endpoints are always inside the support, whatever ``k``.
    """
    _require(law, NormalOnRPlus)
    k = float(k)
    if not math.isfinite(k) or k <= 0.0:
        raise BadIntervalError(f"k must be strictly positive, got {k!r}")
    half = k * law.sigma
    return (
        PositiveValue.from_log(law.mu - half),
        PositiveValue.from_log(law.mu + half),
    )


@dataclass(slots=True, eq=False)
class LebesgueMoments:
    """Classical (Lebesgue) moments of a lognormal law."""

    mean: float
    median: float
    mode: float
    variance: float

    def __post_init__(self):
        self.mean, self.median = float(self.mean), float(self.median)
        self.mode, self.variance = float(self.mode), float(self.variance)


def lognormal_moments(law: LognormalLaw) -> LebesgueMoments:
    """Classical moments: mean ``exp(mu + sigma2/2)``, median ``exp(mu)``,
    mode ``exp(mu - sigma2)``, variance ``(exp(sigma2)-1) exp(2mu+sigma2)``.
    A moment past the largest float is ``math.inf``."""
    _require(law, LognormalLaw)
    mu, s2 = law.mu, law.sigma2
    return LebesgueMoments(_exp_or_inf(mu + 0.5 * s2), _exp_or_inf(mu), _exp_or_inf(mu - s2),
                           _exp_or_inf(2.0 * mu + s2 + _log_abs_expm1(s2)))


def _log_abs_expm1(x) -> float:
    """``log|exp(x) - 1|`` for ``x != 0``, without overflow."""
    return x if x > 700.0 else math.log(abs(math.expm1(x)))


@dataclass(slots=True, eq=False)
class NaiveInterval:
    """Mean +/- k standard deviations computed with classical moments.

    ``lower_in_support`` / ``upper_in_support`` record whether each endpoint
    is a positive number at all; the lower one frequently is not, which is
    the textbook symptom of summarizing positive data with the wrong
    geometry.
    """

    lower: float
    upper: float
    lower_in_support: bool = field(init=False)
    upper_in_support: bool = field(init=False)

    def __post_init__(self):
        self.lower, self.upper = float(self.lower), float(self.upper)
        self.lower_in_support, self.upper_in_support = self.lower > 0.0, self.upper > 0.0


def lognormal_naive_interval(law: LognormalLaw, k) -> NaiveInterval:
    """Classical ``mean +/- k * sd`` interval for the lognormal law; an
    endpoint past the largest float is ``-math.inf`` or ``math.inf``."""
    _require(law, LognormalLaw)
    k = float(k)
    if not math.isfinite(k) or k <= 0.0:
        raise BadIntervalError(f"k must be strictly positive, got {k!r}")
    # in logs: mean = exp(a) and k * sd = exp(a + r)
    a, r = law.mu + 0.5 * law.sigma2, math.log(k) + 0.5 * _log_abs_expm1(law.sigma2)
    lower = math.copysign(_exp_or_inf(a + _log_abs_expm1(r)), -r) if r else 0.0
    return NaiveInterval(lower, _exp_or_inf(a + max(r, 0.0) + math.log1p(math.exp(-abs(r)))))


def probability_of_interval(law, a, b) -> float:
    """Probability that the value falls in ``(a, b)``, ``0 < a < b <= inf``.

    Identical for :class:`NormalOnRPlus` and :class:`LognormalLaw` with the
    same parameters: the reference measure never enters a probability.
    Computed through the normal CDF of the log, never by quadrature.
    """
    _require(law, _ScalarLogGaussian)
    a = float(a)
    b = float(b)
    if not (a > 0.0 and b > a):
        raise BadIntervalError(f"need 0 < a < b, got a={a!r}, b={b!r}")
    lo = (math.log(a) - law.mu) / law.sigma
    return _normal_mass(lo, (math.log(b) - law.mu) / law.sigma)


def _normal_mass(lo, hi) -> float:
    """``P(lo < Z < hi)`` for a standard normal ``Z``, ``lo <= hi``.

    Both endpoints above zero take the difference of survival functions, so
    upper tails keep their relative accuracy instead of cancelling to 0.
    """
    if lo > 0.0:
        return 0.5 * (math.erfc(lo / _SQRT2) - math.erfc(hi / _SQRT2))
    return 0.5 * (math.erfc(-hi / _SQRT2) - math.erfc(-lo / _SQRT2))


def nrp_transform(law, a, b):
    """Law of ``a (+) (b (.) X)`` on the positive line: scale by ``a`` and
    power by ``b``.  Parameters move by ``mu -> ln(a) + b*mu``,
    ``sigma2 -> b**2 * sigma2``.  Works for either scalar law class and
    preserves the class (the lognormal family is closed under the same
    operations)."""
    _require(law, _ScalarLogGaussian)
    b = float(b)
    if not math.isfinite(b) or b == 0.0:
        raise DegenerateScaleError(f"scale must be finite and nonzero, got {b!r}")
    shift = 0.0 if a is None else as_positive(a).log
    return type(law)(shift + b * law.mu, b * b * law.sigma2)


# --------------------------------------------------------------------------
# simplex laws
# --------------------------------------------------------------------------

class _SimplexGaussian:
    """Shared parameter container: ilr coordinates ``Y ~ N(mu, sigma)``.

    ``sigma`` must be symmetric positive definite; its Cholesky factor ``L`` (which
    colours draws) and ``L**-1`` (which whitens coordinates for every density and
    goodness-of-fit radius) are computed once at construction.
    """

    __slots__ = ("mu", "sigma", "basis", "_chol", "_chol_inv", "_log_norm")
    _lebesgue = False  # the reference measure: natural unless a label says Lebesgue

    def __init__(self, mu, sigma, basis: ContrastBasis | None = None):
        mu = np.array(mu, dtype=float)
        sigma = np.array(sigma, dtype=float)
        if mu.ndim != 1 or mu.size < 1:
            raise DimensionMismatchError(f"mu must be a 1-d vector, got shape {mu.shape}")
        if not np.all(np.isfinite(mu)):
            raise NonPositivePartError("mu entries must be finite")
        d = mu.size
        if sigma.shape != (d, d):
            raise DimensionMismatchError(
                f"sigma must have shape ({d}, {d}), got {sigma.shape}"
            )
        if not np.all(np.isfinite(sigma)):
            raise NonPositivePartError("sigma entries must be finite")
        scale = max(1.0, float(np.max(np.abs(sigma))))
        if np.max(np.abs(sigma - sigma.T)) > 1e-10 * scale:
            raise NotSPDError("sigma must be symmetric")
        sigma = 0.5 * (sigma + sigma.T)
        try:
            chol = np.linalg.cholesky(sigma)
        except np.linalg.LinAlgError:
            raise NotSPDError("sigma must be positive definite") from None
        basis = simplex._as_basis(d + 1, basis)
        mu.flags.writeable = False
        sigma.flags.writeable = False
        self.mu = mu
        self.sigma = sigma
        self.basis = basis
        self._chol = chol
        self._chol_inv = np.linalg.inv(chol)
        self._log_norm = -d * _HALF_LOG_2PI - float(np.sum(np.log(np.diag(chol))))

    @property
    def dim(self):
        """Dimension of the coordinate space (``D - 1``)."""
        return self.mu.size

    @property
    def D(self):
        """Number of parts of the underlying compositions."""
        return self.mu.size + 1

    def __repr__(self):
        return (
            f"{type(self).__name__}(mu={np.array2string(self.mu, precision=4)}, "
            f"sigma={np.array2string(self.sigma, precision=4)})"
        )

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return (
            np.array_equal(self.mu, other.mu)
            and np.array_equal(self.sigma, other.sigma)
            and np.array_equal(self.basis.matrix, other.basis.matrix)
        )

    __hash__ = None


class NormalOnSimplex(_SimplexGaussian):
    """Normal law on the simplex, referred to the natural simplex measure.

    Its density at a composition is the multivariate normal density of the
    composition's coordinates; center, median and mode coincide at
    ``ilr_inv(mu)``.
    """


class AlnLaw(_SimplexGaussian):
    """The same probability law referred to Lebesgue measure on the unit
    simplex: the additive logistic normal density, with its familiar
    distortions (it can be multimodal even for round coordinates)."""

    _lebesgue = True


# how a label guard names a law base; a concrete class goes by its own name
_KIND_NAMES = {
    _ScalarLogGaussian: "a law on the positive line",
    _SimplexGaussian: "a simplex law",
    (_ScalarLogGaussian, _SimplexGaussian): "one of the four laws",
}


def _require(law, kind):
    """The label guard: ``TypeError`` unless ``law`` is an instance of
    ``kind`` (a law class, a law base, or a tuple of bases)."""
    if not isinstance(law, kind):
        expected = _KIND_NAMES[kind] if kind in _KIND_NAMES else kind.__name__
        raise TypeError(f"expected {expected}, got {type(law).__name__}")


def with_lebesgue_reference(law: NormalOnSimplex) -> AlnLaw:
    """The identical probability law, re-labeled to carry Lebesgue densities."""
    _require(law, NormalOnSimplex)
    return AlnLaw(law.mu, law.sigma, law.basis)


def with_natural_reference(law: AlnLaw) -> NormalOnSimplex:
    """The identical probability law, re-labeled to carry natural densities."""
    _require(law, AlnLaw)
    return NormalOnSimplex(law.mu, law.sigma, law.basis)


def nsd_logpdf_coords(law, coords) -> np.ndarray:
    """Log multivariate-normal density of coordinate rows under ``law``.

    Accepts either simplex law class (their coordinate law is the same).
    ``coords`` is ``(n, D-1)`` (or a single vector); returns length-``n``.
    """
    _require(law, _SimplexGaussian)
    coords = np.atleast_2d(np.asarray(coords, dtype=float))
    if coords.shape[1] != law.dim:
        raise DimensionMismatchError(
            f"coordinates have dimension {coords.shape[1]}, law has {law.dim}"
        )
    return law._log_norm - 0.5 * _mahalanobis2(law, coords)


def _mahalanobis2(law, coords) -> np.ndarray:
    """Squared Mahalanobis distance of each coordinate row from ``law.mu``,
    through the law's whitening factor; ``inf`` past the largest float."""
    z = (coords - law.mu) @ law._chol_inv.T
    with np.errstate(over="ignore"):
        return np.sum(z * z, axis=1)


def _simplex_logpdf(law, clr) -> np.ndarray:
    """The simplex's log-density kernel at clr rows ``(n, D)``: the coordinate normal
    log density of ``clr @ U``, plus the log measure ratio under the Lebesgue tag."""
    U = simplex._as_basis(clr.shape[1], law.basis).matrix
    log_density = nsd_logpdf_coords(law, clr @ U)
    return log_density + simplex._log_measure_ratio(clr) if law._lebesgue else log_density


def nsd_pdf(law: NormalOnSimplex, x: Composition) -> float:
    """Density with respect to the natural simplex measure (``math.inf`` past the
    largest float)."""
    _require(law, NormalOnSimplex)
    return _exp_or_inf(float(_simplex_logpdf(law, x._clr[None])[0]))


def nsd_pdf_rows(law: NormalOnSimplex, rows) -> np.ndarray:
    """Vectorized :func:`nsd_pdf` over an ``(n, D)`` array of part rows."""
    _require(law, NormalOnSimplex)
    return np.exp(_simplex_logpdf(law, simplex.clr_rows(rows)))


def aln_pdf(law: AlnLaw, x: Composition) -> float:
    """Density with respect to Lebesgue measure on the unit simplex: the
    coordinate normal density times ``1 / (sqrt(D) * x1 * ... * xD)``.

    "Lebesgue measure on the unit simplex" is the (D-1)-dimensional volume
    of the free parts ``(x1, ..., x_{D-1})``; under it the flat (uniform
    Dirichlet) law has constant density ``(D-1)!``.  A density past the largest
    float is ``math.inf``.
    """
    _require(law, AlnLaw)
    return _exp_or_inf(float(_simplex_logpdf(law, x._clr[None])[0]))


def aln_pdf_rows(law: AlnLaw, rows) -> np.ndarray:
    """Vectorized :func:`aln_pdf` over an ``(n, D)`` array of part rows
    (rows are taken as unit-simplex points)."""
    _require(law, AlnLaw)
    return np.exp(_simplex_logpdf(law, simplex.clr_rows(rows)))


@dataclass(slots=True, eq=False)
class SimplexMoments:
    """Geometric moments of a simplex law: the center (simultaneously the
    metric mean, median and mode) and the total metric variance."""

    center: Composition
    metric_variance: float

    def __post_init__(self):
        self.metric_variance = float(self.metric_variance)


def nsd_moments(law) -> SimplexMoments:
    """Center ``ilr_inv(mu)`` (on the unit simplex) and metric variance
    ``trace(sigma)``.  Accepts either simplex law class."""
    _require(law, _SimplexGaussian)
    center = simplex.ilr_inv(law.mu, law.basis)
    return SimplexMoments(center, float(np.trace(law.sigma)))


def nsd_transform(law, a: Composition | None, b):
    """Law of ``a (+) (b (.) X)``: parameters move by
    ``mu -> ilr(a) + b*mu`` and ``sigma -> b**2 * sigma``.

    Accepts either simplex law class and preserves it.
    """
    _require(law, _SimplexGaussian)
    b = float(b)
    if not math.isfinite(b) or b == 0.0:
        raise DegenerateScaleError(f"scale must be finite and nonzero, got {b!r}")
    if a is None:
        shift = np.zeros(law.dim)
    else:
        # ilr rejects a perturbation whose part count differs from the basis
        shift = simplex.ilr(a, law.basis)
    return type(law)(shift + b * law.mu, b * b * law.sigma, law.basis)


def nsd_permute(law, p: PermutationMap):
    """Law of the composition with parts reordered by ``p``, expressed in the
    same basis: ``mu -> M mu``, ``sigma -> M sigma M'`` with
    ``M = U' P U`` (an orthogonal matrix)."""
    _require(law, _SimplexGaussian)
    if p.D != law.D:
        raise DimensionMismatchError(f"permutation is on {p.D} parts, law has {law.D}")
    U = law.basis.matrix
    M = U.T @ p.matrix @ U
    return type(law)(M @ law.mu, M @ law.sigma @ M.T, law.basis)


def nsd_subcomposition(law, sel: SelectionMatrix, sub_basis: ContrastBasis | None = None):
    """Law of the subcomposition on the selected parts: with ``S`` the
    selection matrix and ``U*`` the target basis, ``M = U*' S U`` carries
    ``mu -> M mu`` and ``sigma -> M sigma M'``."""
    _require(law, _SimplexGaussian)
    if sel.D != law.D:
        raise DimensionMismatchError(f"selection is on {sel.D} parts, law has {law.D}")
    sub_basis = simplex._as_basis(sel.C, sub_basis)
    M = sub_basis.matrix.T @ sel.matrix @ law.basis.matrix
    return type(law)(M @ law.mu, M @ law.sigma @ M.T, sub_basis)


# --------------------------------------------------------------------------
# classical mean of the additive logistic normal
# --------------------------------------------------------------------------

_BLOCK = 1 << 12  # nodes per evaluated block: a few hundred KB, which stay in cache


@functools.lru_cache(maxsize=None)
def _gh_table(top):
    """Rules ``m = 1..top`` of ``2 m - 1`` Gauss-Hermite nodes for a standard normal:
    their weights of node 0, and the rows (node, weight, m) of rule 1 and of the
    nonzero nodes of each later rule end to end (rule ``m`` ends at ``m (m-1) + 1``)."""
    w0, table = _gh_table(top - 1) if top > 1 else ([0.0], np.empty((3, 0)))
    z, w = hermegauss(2 * top - 1)
    rule = np.array([z, w / w.sum(), np.full(z.size, top)])
    return w0 + [rule[1, top - 1]], np.hstack([table, np.delete(rule, top - 1, axis=1)
                                               if top > 1 else rule])


def _layer_blocks(law, q, i, a):
    """Blocks of the nodes first met in the layer ``|l| = q``, a column per node of
    (z_1..z_d, weight, sum of levels, zero axes); as every odd GH rule holds 0, a
    distinct node is 0 where ``l_i = 1``.  Axis ``i`` extends the partial nodes ``a``."""
    table = _gh_table(q - law.dim + 1)[1]
    top = (q - a[-2] - (law.dim - 1 - i)).astype(int)  # the last axis takes what is left
    first = (top - 1) * (top - 2) + (top > 1) if i == law.dim - 1 else 0 * top
    count = top * (top - 1) + 1 - first
    p = np.repeat(np.arange(top.size), count)  # the parent and table entry of each child
    t = np.arange(p.size) + (first + count - np.cumsum(count)).take(p)
    for b in range(0, p.size, _BLOCK):
        child, (z, w, m) = a.take(p[b:b + _BLOCK], axis=1), table.take(t[b:b + _BLOCK], axis=1)
        child[i], child[-3] = z, child[-3] * w
        child[-2:] += m, m == 1
        yield from _layer_blocks(law, q, i + 1, child) if i + 1 < law.dim else [child]


def _aln_mean_quadrature(law, order):
    """Smolyak mean of the parts, ``(mean, level, nodes, drift)``: level ``k`` is
    ``sum (-1)**(q-|l|) C(d-1, q-|l|) Q_{l_1} x ... x Q_{l_d}`` over ``q-d < |l| <= q =
    d+k-1``, each distinct node evaluated once and weighted by layer and zero axes."""
    d, budget = law.dim, order**4 + math.ceil(1.5 * order) ** 4
    signs = [(-1) ** i * math.comb(d - 1, i) for i in range(d)]
    root = np.eye(d + 3, 1, -d)  # the one partial node before axis 0: z = 0, weight 1
    layers, nodes, mean, drift = [], 0, None, math.nan
    for level in itertools.count(1):
        q = d + level - 1
        # new nodes: the coefficient of x**q in (x (1 + x**2) / (1 - x)**2)**d
        nodes += sum(math.comb(d, k) * math.comb(q + d - 1 - 2 * k, 2 * d - 1)
                     for k in range(min(d, (level - 1) // 2) + 1))
        # past level 150 (299 nodes) numpy's Gauss-Hermite weights soon underflow
        if nodes > budget or level > 150 or (level > 2 and math.isnan(drift)):
            raise QuadratureUnstableError(f"quadrature mean moved by {drift:.3g} at level "
                                          f"{level - 1}; order {order} allows no further level")
        layers.insert(0, np.zeros((d + 1, law.D)))  # the new nodes' sums by zero axes
        for a in _layer_blocks(law, q, 0, root):
            parts = simplex.ilr_inv_rows((law._chol @ a[:d]).T + law.mu, law.basis)
            layers[0] += (a[d] * (a[-1] == np.arange(d + 1)[:, None])) @ parts
        g, coef = np.eye(1, d + level)[0], []  # g[n]: sum of node-0 weight products, |l| = n
        for r in range(d + 1):  # coef[r][j]: the weight now of a layer j back, r zero axes
            coef.append(np.convolve(g[r:r + level], signs)[:level])
            g = np.convolve(g, _gh_table(level)[0])[:d + level]
        prev, mean = mean, np.einsum("rj,jrk->k", coef, layers)
        drift = math.nan if prev is None else float(np.max(np.abs(mean - prev)))
        # wide laws settle at a ratio near 0.7 per level, leaving about twice the last
        # drift; the signed weights leave up to ~3e-13 in the sum
        if drift <= 2.5e-7:
            return mean / mean.sum(), level, nodes, drift


def aln_classical_mean(law, order=40) -> np.ndarray:
    """Classical (Lebesgue) mean of the parts under a simplex law (no closed form): a
    deterministic Smolyak sparse grid of Gauss-Hermite rules, raised in level until two
    levels differ by at most 2.5e-7 in every part (an error near 1e-6 on wide laws).
    Needing over ``order**4 + ceil(1.5 order)**4`` distinct nodes raises
    :class:`QuadratureUnstableError`.  Returns the length-``D`` mean (sums to 1)."""
    _require(law, _SimplexGaussian)
    order = int(order)
    if order < 2:
        raise BadIntervalError(f"quadrature order must be at least 2, got {order}")
    return _aln_mean_quadrature(law, order)[0]


# --------------------------------------------------------------------------
# probabilities of coordinate boxes
# --------------------------------------------------------------------------

_FIXED_SEED = 20_413  # box CDF: one number per law, every call


def probability_of_box(law, lower, upper) -> float:
    """Probability that the coordinate vector lies in the axis-aligned box
    ``[lower, upper]`` (entries may be infinite).

    Identical for :class:`NormalOnSimplex` and :class:`AlnLaw` with the same
    parameters.  An empty box (any ``lower >= upper``) has probability zero.
    """
    _require(law, _SimplexGaussian)
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    if lower.shape != (law.dim,) or upper.shape != (law.dim,):
        raise DimensionMismatchError(
            f"box bounds must have shape ({law.dim},), got {lower.shape} and {upper.shape}"
        )
    if np.any(np.isnan(lower)) or np.any(np.isnan(upper)):
        raise BadIntervalError("box bounds must not be NaN")
    if np.any(lower >= upper):
        return 0.0
    if law.dim == 1:
        s = math.sqrt(law.sigma[0, 0])
        return _normal_mass((lower[0] - law.mu[0]) / s, (upper[0] - law.mu[0]) / s)
    from scipy.stats import multivariate_normal  # lazy: scipy.stats costs ~1 s to import
    p = multivariate_normal(mean=law.mu, cov=law.sigma, seed=_FIXED_SEED).cdf(
        upper, lower_limit=lower
    )
    # tiny negative values can fall out of the integrator
    return float(min(1.0, max(0.0, p)))
