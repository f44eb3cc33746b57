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

Probabilities of intervals and boxes are normal masses of the coordinates:
``_special.normal_mass`` on the line and at d = 1, ``_box.normal_box`` at
d >= 2 (a randomized lattice rule from d = 3, its shifts drawn from a fixed seed,
so every call gives one number).  The classical ALN mean has no closed form either:
at D = 2 each part is one integral by ``_box._adaptive_legendre``, the d = 2 box's
rule, and from D = 3 the parts are summed over a Smolyak sparse grid.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.hermite_e import hermegauss

from . import simplex
from ._special import _blockwise, _Estimate, normal_mass
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
    # the variance's exponent is summed exactly: its terms can cancel
    variance = _exp_or_inf(math.fsum((2.0 * mu, s2, *_log_abs_expm1_terms((s2,)))))
    return LebesgueMoments(_exp_or_inf(mu + 0.5 * s2), _exp_or_inf(mu), _exp_or_inf(mu - s2),
                           variance)


# fdlibm's ln 2 in two parts; the first has 32 significant bits, so e * _LN2_HI is exact
_LN2_HI, _LN2_LO = 6.93147180369123816490e-01, 1.90821492927058770002e-10


def _log_abs_expm1_terms(terms):
    """Float terms whose sum is ``log|exp(x) - 1|``, where ``x != 0`` is the sum of the float
    ``terms``, also where ``exp(x)`` passes the largest float.  From ``x > 1``, ``terms``
    themselves and ``log1p(-exp(-x))``; on ``(0, 1]``, ``log x`` as its binary exponent
    times ``ln 2`` (in two parts) and the log of its mantissa, and ``log(expm1(x) / x)``;
    below 0, ``log(-expm1(x))``.  No term but ``terms`` is much larger than 1 then, so an
    exact sum of these with other terms loses no digits to their rounding."""
    x = math.fsum(terms)
    if x > 1.0:
        return (*terms, math.log1p(-math.exp(-x)))
    if x < 0.0:
        return (math.log(-math.expm1(x)),)
    m, e = math.frexp(x)
    return e * _LN2_HI, e * _LN2_LO, math.log(m), math.log(math.expm1(x) / x)


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
    # in logs: mean = exp(a) and k * sd = exp(a + r), a and r sums of float terms; each
    # end's exponent is summed exactly, as a and r can cancel
    a = (law.mu, 0.5 * law.sigma2)
    r_terms = (math.log(k), *(0.5 * t for t in _log_abs_expm1_terms((law.sigma2,))))
    r = math.fsum(r_terms)
    lower = math.copysign(_exp_or_inf(math.fsum((*a, *_log_abs_expm1_terms(r_terms)))),
                          -r) if r else 0.0
    upper = math.fsum((*a, *(r_terms if r > 0.0 else ()), math.log1p(math.exp(-abs(r)))))
    return NaiveInterval(lower, _exp_or_inf(upper))


def probability_of_interval(law, a, b) -> float:
    """Probability that the value falls in ``(a, b)``, ``0 < a < b <= inf``.

    Identical for :class:`NormalOnRPlus` and :class:`LognormalLaw` with the
    same parameters: the reference measure never enters a probability.
    The normal mass of the log's interval, of width ``log1p((b - a) / a) / sigma``.
    """
    _require(law, _ScalarLogGaussian)
    a = float(a)
    b = float(b)
    if not (a > 0.0 and b > a):
        raise BadIntervalError(f"need 0 < a < b, got a={a!r}, b={b!r}")
    lo, hi = ((math.log(x) - law.mu) / law.sigma for x in (a, b))
    return normal_mass(lo, hi, math.log1p((b - a) / a) / law.sigma)


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
    goodness-of-fit radius) are computed once at construction, C-contiguous, and
    multiply coordinate-major ``(d, n)`` arrays from the left.
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
    return _coords_logpdf(law, coords)


def _coords_logpdf(law, coords) -> np.ndarray:
    """The normal log density of coordinate rows ``(n, d)`` or one 1-d row, unchecked."""
    mu = law.mu if coords.ndim == 1 else law.mu[:, None]
    return law._log_norm - 0.5 * _mahalanobis2(law, np.subtract(coords.T, mu, order="C"))


def _mahalanobis2(law, centred) -> np.ndarray:
    """Squared Mahalanobis length of each column of ``centred``, the ``(d, n)``
    coordinate-major deviations from ``law.mu`` (or one 1-d deviation), through the law's
    whitening factor; ``inf`` past the largest float.  ``L**-1 @ centred`` is the product
    ``(coords - mu) @ L**-T`` transposed, the same BLAS call, so it has its bits at
    every ``n``; its rows are the whitened coordinates, squared and summed in order."""
    z = law._chol_inv @ centred
    with np.errstate(over="ignore"):
        return functools.reduce(operator.add, [c * c for c in z])


def _exp_rows(t) -> np.ndarray:
    """``np.exp(t)``, silently ``inf`` where that passes the largest float."""
    with np.errstate(over="ignore"):
        return np.exp(t)


def _simplex_logpdf(law, clr) -> np.ndarray:
    """The simplex's log-density kernel at clr rows ``(n, D)`` or one 1-d clr: the coordinate
    normal log density of ``clr @ U``, plus the log measure ratio under the Lebesgue tag."""
    U = simplex._as_basis(clr.shape[-1], law.basis).matrix
    log_density = _coords_logpdf(law, clr @ U)
    return log_density + simplex._log_measure_ratio(clr) if law._lebesgue else log_density


def nsd_pdf(law: NormalOnSimplex, x: Composition) -> float:
    """Density with respect to the natural simplex measure (``math.inf`` past the
    largest float)."""
    _require(law, NormalOnSimplex)
    return _exp_or_inf(float(_simplex_logpdf(law, x._clr)))


def nsd_pdf_rows(law: NormalOnSimplex, rows) -> np.ndarray:
    """Vectorized :func:`nsd_pdf` over an ``(n, D)`` array of part rows."""
    _require(law, NormalOnSimplex)
    return _exp_rows(_blockwise(lambda clr: _simplex_logpdf(law, clr), simplex.clr_rows(rows)))


def aln_pdf(law: AlnLaw, x: Composition) -> float:
    """Density with respect to Lebesgue measure on the unit simplex: the
    coordinate normal density times ``1 / (sqrt(D) * x1 * ... * xD)``.

    "Lebesgue measure on the unit simplex" is the (D-1)-dimensional volume
    of the free parts ``(x1, ..., x_{D-1})``; under it the flat (uniform
    Dirichlet) law has constant density ``(D-1)!``.  A density past the largest
    float is ``math.inf``.
    """
    _require(law, AlnLaw)
    return _exp_or_inf(float(_simplex_logpdf(law, x._clr)))


def aln_pdf_rows(law: AlnLaw, rows) -> np.ndarray:
    """Vectorized :func:`aln_pdf` over an ``(n, D)`` array of part rows
    (rows are taken as unit-simplex points)."""
    _require(law, AlnLaw)
    return _exp_rows(_blockwise(lambda clr: _simplex_logpdf(law, clr), simplex.clr_rows(rows)))


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

# nodes per block of a Smolyak layer: nodes of a recursive generator, not rows, so a size
# of their own, the fastest measured (d = 4, sigma = 4 I: 0.87-0.90 s; 0.93-1.06 s at 16,384)
_LAYER_BLOCK = 1 << 12


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
    for b in range(0, p.size, _LAYER_BLOCK):
        block = slice(b, b + _LAYER_BLOCK)
        child, (z, w, m) = a.take(p[block], axis=1), table.take(t[block], axis=1)
        child[i], child[-3] = z, child[-3] * w
        child[-2:] += m, m == 1
        yield from _layer_blocks(law, q, i + 1, child) if i + 1 < law.dim else [child]


def _aln_mean_quadrature(law, order) -> _Estimate:
    """Smolyak mean of the parts (``points`` the distinct nodes, ``error`` the drift of
    the last level, ``rounds`` the level ``k``): level ``k`` is
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
        # past level 150 (299 nodes) numpy's Gauss-Hermite weights soon go subnormal
        if nodes > budget or level > 150 or (level > 2 and math.isnan(drift)):
            raise QuadratureUnstableError(f"quadrature mean moved by {drift:.3g} at level "
                                          f"{level - 1}; order {order} allows no further level")
        layers.insert(0, np.zeros((d + 1, law.D)))  # the new nodes' sums by zero axes
        for a in _layer_blocks(law, q, 0, root):
            parts = simplex.ilr_inv_rows((law._chol @ a[:d] + law.mu[:, None]).T, law.basis)
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
            return _Estimate(mean / mean.sum(), "smolyak-gauss-hermite", nodes, drift, level)


def _logistic(z):
    """``1 / (1 + exp(-z))`` to a few ulps relative, also where it underflows."""
    e = math.exp(-abs(z))
    return 1.0 / (1.0 + e) if z >= 0.0 else e / (1.0 + e)


def _aln_mean_line(law) -> list:
    """The two parts' means at D = 2, each its own estimate: ``int phi(t) logistic(+-k (mu +
    sigma t)) dt`` with ``k = U[0] - U[1] = +-sqrt 2``, by ``_box._adaptive_legendre`` on first
    pieces graded about the logistic's turn ``t = -mu / sigma``, of width ``1 / (|k| sigma)``.
    As ``phi`` is even, each is taken as ``logistic(|k| (m + sigma t))`` with ``m = +-mu``, so a
    mirrored law or basis gives the same bits, mirrored."""
    from ._box import _adaptive_legendre, _graded_ends  # on first use, as for boxes

    mu, sigma = float(law.mu[0]), math.sqrt(law.sigma[0, 0])
    k = float(law.basis.matrix[0, 0] - law.basis.matrix[1, 0])
    a = abs(k)

    def part(m):  # int phi(t) logistic(|k| (m + sigma t)) dt
        ends = _graded_ends(-39.0, 39.0, [(-m / sigma, 1.0 / (a * sigma))])  # phi: 0 past 38.6
        return _adaptive_legendre(lambda t, w: w * math.exp(-0.5 * t * t)
                                  * _logistic(a * (m + sigma * t)), ends, "adaptive-legendre")

    parts = [part(mu), part(-mu)]
    return parts if k > 0.0 else parts[::-1]


def aln_classical_mean(law, order=40) -> np.ndarray:
    """Classical (Lebesgue) mean of the parts under a simplex law (no closed form).  At
    D = 2 each part is a one-dimensional logit-normal integral, taken by adaptive
    Gauss-Legendre pieces to about ``16 eps |ln m|`` relative, and the two are closed.  From
    D = 3 a deterministic Smolyak sparse grid of Gauss-Hermite rules, raised in level until two
    levels differ by at most 2.5e-7 in every part (an error near 1e-6 on wide laws); needing
    over ``order**4 + ceil(1.5 order)**4`` distinct nodes raises
    :class:`QuadratureUnstableError`.  Returns the length-``D`` mean (sums to 1)."""
    _require(law, _SimplexGaussian)
    order = int(order)
    if order < 2:
        raise BadIntervalError(f"quadrature order must be at least 2, got {order}")
    if law.D == 2:
        parts = np.array([part.value for part in _aln_mean_line(law)])
        return parts / parts.sum()
    return _aln_mean_quadrature(law, order).value


# --------------------------------------------------------------------------
# probabilities of coordinate boxes
# --------------------------------------------------------------------------

_FIXED_SEED = 20_413  # box CDF: one number per law, every call


def probability_of_box(law, lower, upper) -> float:
    """Probability that the coordinate vector lies in the axis-aligned box
    ``[lower, upper]`` (entries may be infinite).

    Identical for :class:`NormalOnSimplex` and :class:`AlnLaw` with the same
    parameters.  An empty box (any ``lower >= upper``) has probability zero.
    At d = 1 the normal mass of the interval; at d = 2 that mass of the second
    coordinate given the first, integrated over the first by adaptive Gauss-Legendre
    pieces to about ``16 eps |ln P|`` relative; from d = 3 Genz's randomized lattice
    rule with fixed shifts, to 3 standard errors within 1e-5, raising
    :class:`QuadratureUnstableError` past ``1e6 d`` points.
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
        a, b, m, s = float(lower[0]), float(upper[0]), float(law.mu[0]), math.sqrt(law.sigma[0, 0])
        return normal_mass((a - m) / s, (b - m) / s, (b - a) / s)
    from ._box import normal_box  # on first use: `import codanorm` neither loads nor compiles it

    p = normal_box(law.sigma, lower - law.mu, upper - law.mu, _FIXED_SEED).value
    return float(min(1.0, max(0.0, p)))
