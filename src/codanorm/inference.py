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
from .errors import (
    DegenerateVarianceError,
    DimensionMismatchError,
    EmptyDataError,
    InsufficientDataError,
    NonPositivePartError,
    NotSPDError,
    NumericalError,
    SingularCovarianceError,
)
from .laws import NormalOnRPlus, NormalOnSimplex, _mahalanobis2, _require
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
        logs = [as_positive(v).log for v in values]
        if not logs:
            raise EmptyDataError("sample must contain at least one value")
        arr = np.array(logs, dtype=float)
        arr.flags.writeable = False
        self._logs = arr

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
        comps = list(compositions)
        if not comps:
            raise EmptyDataError("sample must contain at least one composition")
        for c in comps[1:]:
            simplex._check_same_space(comps[0], c, "sample members")
        built = SimplexSample._from_clr(np.stack([c._clr for c in comps]), comps[0].kappa, basis)
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
        """Build from an ``(n, D)`` array of positive rows (each is closed)."""
        rows = simplex._checked_rows(np.asarray(rows, dtype=float), "parts")
        return cls._from_clr(simplex.clr_rows(rows), kappa, basis)

    @property
    def rows(self):
        """``(n, D)`` closed part rows; a part below about ``1e-308 * kappa`` is 0.0."""
        return simplex._clr_inv_rows(self._clr, self._kappa)

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
        return self._clr @ self._basis.matrix

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
    A constant sample has no spread to estimate and is rejected.
    """
    if sample.n < 2:
        raise InsufficientDataError(f"need at least 2 observations, got {sample.n}")
    mu = float(sample.logs.mean())
    sigma2 = float(sample.logs.var(ddof=1))
    if sigma2 == 0.0:
        raise DegenerateVarianceError(
            "all observations are identical; no spread to estimate"
        )
    return NormalOnRPlus(mu, sigma2)


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
    if sample.n < 2:
        raise InsufficientDataError(f"need at least 2 observations, got {sample.n}")
    v = float(sample.logs.std(ddof=1))
    if v == 0.0:
        raise DegenerateVarianceError(
            "all observations are identical; interval undefined"
        )
    from scipy.special import stdtrit  # lazy: scipy.special costs ~0.3 s to import

    ybar = float(sample.logs.mean())
    half = -float(stdtrit(sample.n - 1, alpha / 2.0)) * v / math.sqrt(sample.n)
    if not math.isfinite(half):
        raise NumericalError(f"t interval past the float range for alpha={alpha!r}, n={sample.n}")
    return PositiveValue.from_log(ybar - half), PositiveValue.from_log(ybar + half)


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

def fit_nsd(sample: SimplexSample) -> NormalOnSimplex:
    """Maximum likelihood fit of the normal law on the simplex.

    Coordinate sample mean and covariance (divisor ``n - 1``) in the sample's
    own basis; the fitted center equals the closed geometric mean of the
    data.  Requires ``n >= D`` so the covariance has a chance of being
    nonsingular.
    """
    if sample.n < sample.D:
        raise InsufficientDataError(
            f"need at least D={sample.D} observations, got {sample.n}"
        )
    coords = sample.coords
    mu = coords.mean(axis=0)
    centered = coords - mu
    sigma = (centered.T @ centered) / (sample.n - 1)
    try:
        return NormalOnSimplex(mu, sigma, sample.basis)
    except NotSPDError as exc:
        raise SingularCovarianceError(
            f"coordinate covariance is singular: {exc}"
        ) from None


# --------------------------------------------------------------------------
# goodness of fit
# --------------------------------------------------------------------------

def _edf_statistics(u):
    """Anderson-Darling, Cramér-von Mises and Watson statistics of
    probability-integral-transformed values ``u`` against uniformity."""
    u = np.sort(np.asarray(u, dtype=float))
    # guard the logs; exact 0/1 can only arise from floating-point saturation
    u = np.clip(u, 1e-15, 1.0 - 1e-15)
    n = u.size
    i = np.arange(1, n + 1)
    a2 = -n - np.mean((2.0 * i - 1.0) * (np.log(u) + np.log1p(-u[::-1])))
    w2 = float(np.sum((u - (2.0 * i - 1.0) / (2.0 * n)) ** 2) + 1.0 / (12.0 * n))
    u2 = w2 - n * (float(u.mean()) - 0.5) ** 2
    return float(a2), w2, float(u2)


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


def _modified_statistics(u, case, n):
    """The three modified statistics of ``u``, by test name."""
    a2, w2, u2 = _edf_statistics(u)
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


def gof_battery(sample: SimplexSample, fitted: NormalOnSimplex) -> GofReport:
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
    critical values assume estimated parameters.
    """
    _require(fitted, NormalOnSimplex)
    if sample.n < 8:
        raise InsufficientDataError(
            f"battery needs at least 8 observations, got {sample.n}"
        )
    if fitted.dim != sample.D - 1:
        raise DimensionMismatchError(
            f"law has {fitted.dim} coordinates, data have {sample.D - 1}"
        )
    from scipy.special import chdtr, ndtr  # lazy: scipy.special costs ~0.3 s to import

    coords = sample.coords
    n, d = coords.shape
    mu = fitted.mu
    sigma = fitted.sigma
    # (layer, target, case, u) of every layer in turn; marginal: normality per coordinate
    layers = [
        ("marginal", f"coord{j + 1}", "estimated",
         ndtr((coords[:, j] - mu[j]) / math.sqrt(sigma[j, j])))
        for j in range(d)
    ]
    # angle layer: uniformity of the whitened pair direction; the Cholesky
    # factor of the pair covariance [[a, b], [b, c]] in closed form, every pair at once
    j, k = np.triu_indices(d, 1)
    a, b, c = sigma[j, j], sigma[j, k], sigma[k, k]
    x, y = coords[:, j] - mu[j], coords[:, k] - mu[k]
    theta = np.arctan2((y - (b / a) * x) / np.sqrt(c - b * b / a), x / np.sqrt(a))  # (-pi, pi]
    layers += [
        ("angle", f"coord{j[p] + 1}-coord{k[p] + 1}", "specified", u)
        for p, u in enumerate((theta.T + math.pi) / (2.0 * math.pi))
    ]
    # radius layer: chi-square transform of squared Mahalanobis distances
    layers.append(("radius", "all", "specified", chdtr(d, _mahalanobis2(fitted, coords))))
    return GofReport([
        GofEntry(layer, target, test_name, stat, _CRITICAL_1PCT[case, test_name])
        for layer, target, case, u in layers
        for test_name, stat in _modified_statistics(u, case, n).items()
    ])
