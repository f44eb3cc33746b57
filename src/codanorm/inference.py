"""Estimation and testing, all carried out on coordinates.

Maximum likelihood for the normal laws on the positive line and the simplex
reduces to ordinary normal-theory estimation of the log coordinates: the
fitted mean on the line is the geometric mean of the data, and the exact
``t`` interval of the log coordinates maps back to an exact interval for the
mean.  The "naive" lognormal estimators kept alongside exist purely as the
comparison baseline: they summarize the same data against Lebesgue measure
and are systematically inflated by ``exp(V^2/2)``.

The goodness-of-fit battery follows the classical recipe for testing
multivariate normality of the coordinates: Anderson-Darling, Cramér-von
Mises and Watson statistics applied to each marginal coordinate (with
estimated-parameter modifications), to the angles of each whitened
coordinate pair (uniformity on the circle), and to the squared Mahalanobis
radius (chi-square probability integral transform).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import simplex
from ._special import _blockwise, _cpus, chdtr, ndtr, stdtrit
from .errors import (
    DegenerateVarianceError,
    EmptyDataError,
    InsufficientDataError,
    NonPositivePartError,
    NotSPDError,
    NumericalError,
    SingularCovarianceError,
)
from .laws import (
    AlnLaw,
    NormalOnRPlus,
    NormalOnSimplex,
    _mahalanobis2,
    _require,
    _SimplexGaussian,
)
from .rplus import PositiveValue, _exp_or_inf, as_positive
from .simplex import Composition, ContrastBasis

__all__ = [
    "RPlusSample",
    "SimplexSample",
    "GofEntry",
    "GofReport",
    "fit_nrp",
    "ci_mean_nrp",
    "geometric_mean",
    "naive_lognormal_mean",
    "fit_nsd",
    "gof_battery",
]


class RPlusSample:
    """Observations on the positive line, held by their log coordinates."""

    __slots__ = ("_logs",)

    def __init__(self, values):
        self._logs = RPlusSample.from_logs([as_positive(v).log for v in values])._logs

    @classmethod
    def from_logs(cls, logs):
        logs = np.array(logs, dtype=float)
        if logs.ndim != 1 or logs.size == 0:
            raise EmptyDataError(f"expected a nonempty 1-d array of logs, got shape {logs.shape}")
        if not np.all(np.isfinite(logs)):
            raise NonPositivePartError("log coordinates must be finite")
        obj = object.__new__(cls)
        logs.flags.writeable = False
        obj._logs = logs
        return obj

    @property
    def logs(self):
        """Log coordinates as a read-only array."""
        return self._logs

    @property
    def n(self):
        return self._logs.size

    def values(self):
        """The observations themselves (materialized on demand)."""
        return [PositiveValue.from_log(v) for v in self._logs]

    def __len__(self):
        return self._logs.size

    def __repr__(self):
        return f"RPlusSample(n={self.n})"


class SimplexSample:
    """Compositional observations, held as a matrix of clr rows plus the
    contrast basis in which they will be fitted."""

    __slots__ = ("_clr", "_kappa", "_basis")

    def __init__(self, compositions, basis: ContrastBasis | None = None):
        built = SimplexSample._from_clr(*simplex._stacked_clr(compositions, "sample"), basis)
        self._clr, self._kappa, self._basis = built._clr, built._kappa, built._basis

    @classmethod
    def _from_clr(cls, clr, kappa, basis):
        """Wrap an ``(n, D)`` array of clr rows as it is."""
        obj = object.__new__(cls)
        clr.flags.writeable = False
        obj._clr = clr
        obj._kappa = simplex._checked_kappa(kappa)
        obj._basis = simplex._as_basis(clr.shape[1], basis)
        return obj

    @classmethod
    def from_rows(cls, rows, kappa=1.0, basis: ContrastBasis | None = None):
        """Build from an ``(n, D)`` array of positive rows (each is closed), checked
        by :func:`~codanorm.simplex.clr_rows`."""
        return cls._from_clr(simplex.clr_rows(rows), kappa, basis)

    @property
    def rows(self):
        """``(n, D)`` closed part rows; a part below about ``1e-308 * kappa`` is 0.0."""
        return _blockwise(simplex._clr_inv_rows, self._clr, self._kappa)

    @property
    def kappa(self):
        return self._kappa

    @property
    def basis(self):
        return self._basis

    @property
    def n(self):
        return self._clr.shape[0]

    @property
    def D(self):
        return self._clr.shape[1]

    @property
    def coords(self):
        """Orthonormal coordinates of the rows."""
        return _blockwise(np.matmul, self._clr, self._basis.matrix)

    def compositions(self):
        """The observations as :class:`Composition` objects."""
        return [Composition._from_clr(r, self._kappa) for r in self._clr]

    def with_basis(self, basis: ContrastBasis):
        """The same data viewed in another contrast basis."""
        return SimplexSample._from_clr(self._clr, self._kappa, basis)

    def center(self) -> Composition:
        """Closed geometric mean of the rows."""
        return Composition._from_clr(self._clr.mean(axis=0), self._kappa)

    def __len__(self):
        return self.n

    def __repr__(self):
        return f"SimplexSample(n={self.n}, D={self.D}, kappa={self._kappa:g})"


# --------------------------------------------------------------------------
# estimation on the positive line
# --------------------------------------------------------------------------

def fit_nrp(sample: RPlusSample) -> NormalOnRPlus:
    """Maximum likelihood fit of the normal law on the positive line.

    ``mu_hat`` is the mean of the logs, so the fitted mean ``exp(mu_hat)`` is
    the geometric mean of the data; ``sigma2_hat`` uses divisor ``n - 1``.
    A constant sample (every log equal to the first) has no spread to estimate and
    is rejected.
    """
    if sample.n < 2:
        raise InsufficientDataError(f"need at least 2 observations, got {sample.n}")
    if (sample.logs == sample.logs[0]).all():  # the data decide, before any rounding
        raise DegenerateVarianceError(
            "all observations are identical; no spread to estimate"
        )
    return NormalOnRPlus(float(sample.logs.mean()), float(sample.logs.var(ddof=1)))


def geometric_mean(sample: RPlusSample) -> PositiveValue:
    """Geometric mean of the sample, ``exp(mean of logs)``.

    This is byte-identical to the fitted mean of :func:`fit_nrp` because both
    are literally ``exp`` of the same float.
    """
    return PositiveValue.from_log(float(sample.logs.mean()))


def ci_mean_nrp(sample: RPlusSample, alpha) -> tuple[PositiveValue, PositiveValue]:
    """Exact two-sided ``(1 - alpha)`` confidence interval for the mean.

    The classical ``t`` interval for the mean of the logs, mapped back:
    ``exp(ybar -/+ t_{alpha/2, n-1} * V / sqrt(n))`` with ``V`` the log
    standard deviation (divisor ``n - 1``); ``t`` comes from the lower tail,
    as ``1 - alpha/2`` rounds to 1 for tiny ``alpha``.  The fitted mean lies strictly
    between the endpoints; a half-width past the float range is a NumericalError.
    """
    alpha = float(alpha)
    if not 0.0 < alpha < 1.0:
        raise NonPositivePartError(f"alpha must be in (0, 1), got {alpha!r}")
    law = fit_nrp(sample)  # the mean of the logs and their spread, both checked
    half = -stdtrit(sample.n - 1, alpha / 2.0) * law.sigma / math.sqrt(sample.n)
    if not math.isfinite(half):
        raise NumericalError(f"t interval past the float range for alpha={alpha!r}, n={sample.n}")
    return PositiveValue.from_log(law.mu - half), PositiveValue.from_log(law.mu + half)


def naive_lognormal_mean(sample: RPlusSample) -> float:
    """The lognormal back-transform estimate ``exp(ybar + V^2 / 2)``.

    Comparison baseline only: for any non-constant sample it strictly
    exceeds the geometric mean by the factor ``exp(V^2 / 2)``.  Past the
    largest float it is ``math.inf``.
    """
    if sample.n < 2:
        raise InsufficientDataError(f"need at least 2 observations, got {sample.n}")
    v2 = float(sample.logs.var(ddof=1))
    return _exp_or_inf(float(sample.logs.mean()) + 0.5 * v2)


# --------------------------------------------------------------------------
# estimation on the simplex
# --------------------------------------------------------------------------

def _coordinates(clr, U):
    """The coordinates of clr rows in the basis ``U``, coordinate-major ``(d, n)``, a block
    of rows at a time: ``U.T @ clr.T`` is the product ``clr @ U`` transposed, the same
    BLAS call, so every value has its bits."""
    return _blockwise(lambda block: (U.T @ block.T).T, clr).T


def _running_total(values, block=4096):
    """Each row of ``values`` summed left to right, the bits of ``np.cumsum(values,
    axis=1)[:, -1]``, through one ``(d, block)`` scratch buffer: each block of columns is
    copied in, the running total added to its first column and the block summed in place."""
    d, n = values.shape
    scratch = np.empty((d, min(block, n)))
    carry = None
    for start in range(0, n, block):
        part = scratch[:, :min(block, n - start)]
        np.copyto(part, values[:, start:start + block])
        if carry is not None:
            part[:, 0] += carry
        carry = np.cumsum(part, axis=1, out=part)[:, -1].copy()
    return carry


def fit_nsd(sample: SimplexSample) -> NormalOnSimplex:
    """Maximum likelihood fit of the normal law on the simplex.

    Coordinate sample mean and covariance (divisor ``n - 1``) in the sample's
    own basis; the fitted center equals the closed geometric mean of the
    data.  Requires ``n >= D`` so the covariance has a chance of being
    nonsingular; rows all equal to the first, and a covariance singular to working
    precision, raise :class:`SingularCovarianceError`.
    """
    if sample.n < sample.D:
        raise InsufficientDataError(
            f"need at least D={sample.D} observations, got {sample.n}"
        )
    # the data decide, before any rounding: each clr column is compared with its first value
    if all((column == column[0]).all() for column in sample._clr.T):
        raise SingularCovarianceError(
            "coordinate covariance is singular: all observations are identical"
        )
    n, U = sample.n, sample.basis.matrix
    centred = _coordinates(sample._clr, U)
    # the mean adds in the order of coords.mean(axis=0): down each column, pairwise at d = 1
    total = centred.sum(axis=1) if U.shape[1] == 1 else _running_total(centred)
    mu = total / n
    centred -= mu[:, None]
    # at d = 1 the product is a (1, n) @ (n, 1) dot, which OpenBLAS splits across its
    # threads, so its bits would follow the CPU count; numpy's reduction runs on one
    sigma = (centred @ centred.T if U.shape[1] > 1
             else np.square(centred).sum(axis=1, keepdims=True)) / (n - 1)
    # The rank rule (Cholesky completing is no proof of rank): sigma is singular when its
    # smallest eigenvalue is at most what rounding can leave in place of 0, two bounds summed.
    # The data: a clr entry of parts summing to kappa is within (D + 4) u (1 + max |ln x_i|) <=
    # 2 D eps (l + 2 |clr|) of exact, l = 1 + ln D + |ln kappa|; where the exact rows do not
    # spread, sigma holds the errors' covariance, by Cauchy-Schwarz at most 4 D^3 eps^2 n /
    # (n - 1) (l + 2 r)^2, r^2 = |mu|^2 + (n - 1) / n tr(sigma) the mean of |clr|^2.  The
    # covariance: each entry is a dot product off by a few eps sqrt(sigma_ii sigma_jj) and
    # eigvalsh adds a few eps of the largest eigenvalue, so by Weyl a 0 is computed below 8 eps
    # tr(sigma) (at most 1.9 eps tr(sigma) in 504 rank-deficient tables in random bases).
    eps, D, trace = np.finfo(float).eps, sample.D, float(np.trace(sigma))
    spread = 1.0 + math.log(D) + abs(math.log(sample.kappa)) + 2.0 * math.sqrt(
        float(mu @ mu) + (n - 1) / n * trace)
    rounding = 4.0 * D**3 * eps * eps * n / (n - 1) * spread * spread + 8.0 * eps * trace
    smallest = float(np.linalg.eigvalsh(sigma)[0])
    if smallest <= rounding:
        raise SingularCovarianceError(f"coordinate covariance is singular: its smallest "
                                      f"eigenvalue {smallest!r} is within rounding ({rounding!r})")
    try:
        return NormalOnSimplex(mu, sigma, sample.basis)
    except NotSPDError as exc:
        raise SingularCovarianceError(
            f"coordinate covariance is singular: {exc}"
        ) from None


# --------------------------------------------------------------------------
# goodness of fit
# --------------------------------------------------------------------------

def _edf_statistics(z, weights, scratch=None):
    """Anderson-Darling, Cramér-von Mises and Watson statistics ``(a2, w2, u2)`` of one
    layer ``z`` of probability-integral-transformed values against uniformity; ``z`` is
    sorted in place.  ``weights`` holds ``2i - 1`` for ``i = 1..n``, built once per
    battery; ``scratch`` is a pair of arrays of ``n`` floats the terms are computed in
    (a fresh pair when it is None), so scoring a layer allocates no array of ``n``."""
    n = z.size
    terms, logs = (np.empty(n), np.empty(n)) if scratch is None else scratch
    z.sort()
    # guard the logs; exact 0/1 can only arise from floating-point saturation
    if not (1e-15 <= z[0] and z[-1] <= 1.0 - 1e-15):
        np.clip(z, 1e-15, 1.0 - 1e-15, out=z)
    np.log1p(np.negative(z[::-1], out=terms), out=terms)
    terms += np.log(z, out=logs)
    terms *= weights
    a2 = float(-n - terms.mean())
    centres = np.divide(weights, 2.0 * n, out=terms)  # (2i - 1) / 2n
    w2 = float(np.square(np.subtract(z, centres, out=terms), out=terms).sum()
               + 1.0 / (12.0 * n))
    return a2, w2, w2 - n * (float(z.mean()) - 0.5) ** 2


# Rows from which the battery scores its layers on a second thread (_scores).  On a 2-core
# Xeon, timing the two paths in turn in one process, the thread lost below about 25,000
# rows at D = 5 and 50,000 at D = 3 (its start and hand-offs cost about 1-2 ms) and won
# from there: at 1e5 rows 34.0 -> 25.9 ms at D = 5, 18.3 -> 16.7 ms at D = 3.  D = 2 has
# two layers, and the two paths stay within 2 % of each other up to 2e5 rows.
_THREAD_ROWS = 50_000


def _scores(layers, weights):
    """The :func:`_edf_statistics` of each layer of ``layers`` in order, in one pair of
    scratch arrays.  From ``_THREAD_ROWS`` rows, on a process that may run on two CPUs
    or more, a one-worker executor started here sorts and scores layer k while this
    thread forms layer k + 1; layer k + 1 is handed over only once layer k's result is
    in, so at most two layers are alive.  Each statistic is the same arithmetic on the
    same layer, so the bits do not change.  The worker's exception is raised here, and
    its thread is joined before this returns or raises."""
    n = weights.size
    scratch = (np.empty(n), np.empty(n))
    if n < _THREAD_ROWS or _cpus() < 2:
        return [_edf_statistics(u, weights, scratch) for u in layers]
    from concurrent.futures import ThreadPoolExecutor  # loads logging: only on this path

    def score(held):  # the layer leaves the work item before its result is set
        return _edf_statistics(held.pop(), weights, scratch)

    stats, scored = [], None
    with ThreadPoolExecutor(1, thread_name_prefix="codanorm-gof") as worker:
        for u in layers:  # u is formed while the worker scores the layer before
            if scored is not None:
                stats.append(scored.result())
            scored = worker.submit(score, [u])
        stats.append(scored.result())
    return stats


# 1% upper-tail critical values for the modified statistics, from the
# standard tables in D'Agostino & Stephens, "Goodness-of-Fit Techniques"
# (1986).  Case "estimated": normality with both parameters estimated
# (Table 4.7); case "specified": fully specified null (Table 4.2).
_CRITICAL_1PCT = {
    ("estimated", "anderson_darling"): 1.035,
    ("estimated", "cramer_von_mises"): 0.178,
    ("estimated", "watson"): 0.163,
    ("specified", "anderson_darling"): 3.857,
    ("specified", "cramer_von_mises"): 0.743,
    ("specified", "watson"): 0.267,
}


def _modified_statistics(stats, case, n):
    """The three modified statistics of an ``(a2, w2, u2)`` triple, by test name."""
    a2, w2, u2 = stats
    if case == "estimated":
        # Stephens' modifications for normality with mean and variance
        # estimated from the data
        return {
            "anderson_darling": a2 * (1.0 + 0.75 / n + 2.25 / n**2),
            "cramer_von_mises": w2 * (1.0 + 0.5 / n),
            "watson": u2 * (1.0 + 0.5 / n),
        }
    # Stephens' modifications for a fully specified null distribution
    return {
        "anderson_darling": a2,  # unmodified for n >= 5
        "cramer_von_mises": (w2 - 0.4 / n + 0.6 / n**2) * (1.0 + 1.0 / n),
        "watson": (u2 - 0.1 / n + 0.1 / n**2) * (1.0 + 0.8 / n),
    }


@dataclass(slots=True, eq=False, repr=False)
class GofEntry:
    """One test of the battery: which layer and target it examined, the
    modified statistic, and the 1% decision."""

    layer: str
    target: str
    test_name: str
    statistic: float
    critical_1pct: float

    def __post_init__(self):
        self.statistic, self.critical_1pct = float(self.statistic), float(self.critical_1pct)

    @property
    def passed_at_1pct(self):
        return self.statistic <= self.critical_1pct

    @property
    def name(self):
        return f"{self.layer}[{self.target}]:{self.test_name}"

    def __repr__(self):
        verdict = "pass" if self.passed_at_1pct else "REJECT"
        return (
            f"GofEntry({self.name}: {self.statistic:.4f} vs "
            f"{self.critical_1pct:.3f} -> {verdict})"
        )


class GofReport:
    """The full battery: marginals x three statistics, whitened-pair angles,
    and the Mahalanobis radius.  For three parts that is 12 entries."""

    __slots__ = ("entries",)

    def __init__(self, entries):
        self.entries = tuple(entries)

    def __iter__(self):
        return iter(self.entries)

    def __len__(self):
        return len(self.entries)

    def rejections_at_1pct(self):
        return [e for e in self.entries if not e.passed_at_1pct]

    def layer(self, name):
        return [e for e in self.entries if e.layer == name]

    def __repr__(self):
        k = len(self.rejections_at_1pct())
        return f"GofReport({len(self.entries)} tests, {k} rejection(s) at 1%)"


def _gof_layers(sample, fitted):
    """The battery's probability integral transforms, one fresh array of ``n`` per layer
    in report order (the d marginals, the pair angles, the radius), from the sample's
    coordinate-major deviations from the law's mean, read in the law's basis."""
    U = simplex._as_basis(sample.D, fitted.basis).matrix  # a basis on other parts raises
    d, sigma = U.shape[1], fitted.sigma
    centred = _coordinates(sample._clr, U)
    centred -= fitted.mu[:, None]
    # marginal: normality of each coordinate, z-scored with the fitted law
    for x, sd in zip(centred, np.sqrt(np.diag(sigma))):
        yield ndtr(x / sd)
    # angle: uniformity of each whitened pair's direction, in (-pi, pi] before the shift;
    # the pair covariance [[a, b], [b, c]] has the Cholesky factor that whitens it
    for p, q in zip(*np.triu_indices(d, 1)):
        a, b, c = sigma[p, p], sigma[p, q], sigma[q, q]
        x, y = centred[p], centred[q]
        u = np.arctan2((y - b / a * x) / np.sqrt(c - b * b / a), x / np.sqrt(a))
        u += math.pi
        u /= 2.0 * math.pi
        yield u
    # radius: chi-square transform of squared Mahalanobis distances, a block at a time
    yield chdtr(d, _blockwise(lambda block: _mahalanobis2(fitted, block.T), centred.T))


def gof_battery(sample: SimplexSample, fitted: NormalOnSimplex | AlnLaw) -> GofReport:
    """Battery of normality tests for compositional data on coordinates.

    Three layers, each examined with Anderson-Darling, Cramér-von Mises and
    Watson statistics at the 1% level:

    * ``marginal`` — each coordinate, z-scored with the fitted mean and
      standard deviation, against the normal (estimated-parameter critical
      values);
    * ``angle`` — for each coordinate pair, the angle of the centered and
      whitened pair, against uniformity on the circle (specified-null
      values);
    * ``radius`` — squared Mahalanobis distances against the chi-square with
      ``D - 1`` degrees of freedom (specified-null values).

    The fitted law is expected to come from this same sample; the marginal
    critical values assume estimated parameters.  Either label of the law is
    accepted, as both name one probability law.  The sample is read in the
    law's basis, whatever basis it carries.

    From 50,000 rows, on a process that may run on two CPUs or more, a
    one-worker executor sorts and scores each layer while the caller's thread
    forms the next; the statistics have the bits of the one-thread battery,
    and its thread ends before the call returns.  The first such call in a
    process imports ``concurrent.futures`` (about 5 ms).
    """
    _require(fitted, _SimplexGaussian)
    if sample.n < 8:
        raise InsufficientDataError(
            f"battery needs at least 8 observations, got {sample.n}"
        )
    j, k = np.triu_indices(fitted.dim, 1)
    heads = ([("marginal", f"coord{i + 1}", "estimated") for i in range(fitted.dim)]
             + [("angle", f"coord{p + 1}-coord{q + 1}", "specified") for p, q in zip(j, k)]
             + [("radius", "all", "specified")])
    weights = 2.0 * np.arange(1, sample.n + 1) - 1.0
    return GofReport([
        GofEntry(layer, target, test_name, stat, _CRITICAL_1PCT[case, test_name])
        for (layer, target, case), stats in zip(heads, _scores(_gof_layers(sample, fitted),
                                                              weights))
        for test_name, stat in _modified_statistics(stats, case, sample.n).items()
    ])
