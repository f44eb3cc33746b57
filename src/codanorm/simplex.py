"""Euclidean geometry of the simplex of positive compositions.

A composition is a vector of strictly positive parts carrying relative
information only; it lives on the simplex of constant sum ``kappa``.  With
perturbation as addition and powering as scalar multiplication the simplex is
a real Euclidean space of dimension ``D - 1``:

    x (+) y = C(x1*y1, ..., xD*yD)        a (.) x = C(x1**a, ..., xD**a)

where ``C`` is the closure operation rescaling to constant sum.  The package
works in orthonormal log-ratio coordinates: a contrast matrix ``U`` of shape
``(D, D-1)`` with orthonormal, zero-sum columns maps a composition to

    ilr(x) = U.T @ clr(x),     clr(x) = ln(x) - mean(ln(x))

an ordinary vector in R^(D-1), and every metric concept (inner product,
norm, distance) agrees with the Euclidean one computed there.

A :class:`Composition` holds only its clr image, as the positive line holds
logs: perturbation adds clr images, powering scales them, and the metric and
``ilr`` read them, with no closure.  Parts are computed on demand, each row
shifted by its largest log before ``exp``: none overflows, and a part below
about ``1e-308 * kappa`` reads as 0.0.  One validator checks part rows on the
way into a closure and on its output, where it rejects parts that underflow.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import (
    ClosureError,
    DimensionMismatchError,
    EmptyDataError,
    InvalidSelectionError,
    NonPositivePartError,
)
from .rplus import _exp_or_inf

__all__ = [
    "Composition",
    "ContrastBasis",
    "PermutationMap",
    "SelectionMatrix",
    "closure",
    "uniform",
    "perturb",
    "power",
    "ait_inner",
    "ait_norm",
    "ait_distance",
    "clr",
    "clr_inv",
    "alr",
    "alr_inv",
    "ilr",
    "ilr_inv",
    "default_basis",
    "random_basis",
    "permute",
    "subcomposition",
    "center_of",
    "measure_ratio",
    "closure_rows",
    "clr_rows",
    "ilr_rows",
    "ilr_inv_rows",
]

#: Relative tolerance for accepting (and re-normalizing) an almost-closed sum.
CLOSURE_TOL = 1e-12

#: Compositions at Aitchison distance below this are considered equal.
EQ_DISTANCE_TOL = 1e-10


def _checked_rows(rows, where):
    """The one validator of part rows: an ``(n, D)`` array with ``D >= 2``
    whose entries are all strictly positive and finite."""
    if rows.ndim != 2 or rows.shape[1] < 2:
        raise DimensionMismatchError(
            f"{where} must be an (n, D) array with D >= 2, got shape {rows.shape}"
        )
    # min and max propagate NaN, which then fails both comparisons
    if rows.size and not (0.0 < rows.min() and rows.max() < math.inf):
        bad = np.argwhere(~((rows > 0.0) & (rows < math.inf)))[:5].tolist()
        raise NonPositivePartError(
            f"{where} must be strictly positive and finite; offending (row, part) {bad}"
        )
    return rows


def _one_row(values, where):
    """``values`` as a ``(1, n)`` float array, after checking it is 1-d."""
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise DimensionMismatchError(f"{where} must be a 1-d vector, got shape {arr.shape}")
    return arr[None]


class Composition:
    """``D`` strictly positive parts summing to ``kappa``, held as their clr image.

    The constructor demands a vector that is already closed up to a relative
    tolerance of 1e-12; use :func:`closure` to close arbitrary positive
    vectors.  ``parts`` and ``proportions`` are computed on each access.

    Equality is geometric: two compositions with the same number of parts and
    the same ``kappa`` are equal when their Aitchison distance is below 1e-10.
    Instances are therefore unhashable.
    """

    __slots__ = ("_clr", "_kappa")

    def __init__(self, parts, kappa=1.0):
        row = _one_row(parts, "parts")[0]
        closed, total = closure(row, kappa), row.sum()
        if abs(total - closed.kappa) > CLOSURE_TOL * closed.kappa:
            raise ClosureError(
                f"parts sum to {total!r}, not kappa={closed.kappa!r}; close the vector first"
            )
        self._clr, self._kappa = closed._clr, closed.kappa

    @classmethod
    def _from_clr(cls, clr, kappa):
        """Wrap a clr image as it is (any row offset reads the same parts)."""
        if not np.isfinite(clr).all():
            raise NonPositivePartError(f"the clr image must be finite, got {clr}")
        obj = object.__new__(cls)
        clr.flags.writeable = False
        obj._clr = clr
        obj._kappa = float(kappa)
        return obj

    @property
    def parts(self):
        """Read-only array of the ``D`` parts."""
        parts = _clr_inv_rows(self._clr[None], self._kappa)[0]
        parts.flags.writeable = False
        return parts

    @property
    def kappa(self):
        """Closure constant (the common sum)."""
        return self._kappa

    @property
    def D(self):
        """Number of parts."""
        return self._clr.size

    @property
    def proportions(self):
        """Parts rescaled to sum to one (independent of ``kappa``)."""
        return _clr_inv_rows(self._clr[None], 1.0)[0]

    def __eq__(self, other):
        if not isinstance(other, Composition):
            return NotImplemented
        if self.D != other.D:
            return False
        if abs(self._kappa - other._kappa) > CLOSURE_TOL * self._kappa:
            return False
        return ait_distance(self, other) < EQ_DISTANCE_TOL

    __hash__ = None

    def __repr__(self):
        inner = ", ".join(f"{v:.6g}" for v in self.parts)
        if self._kappa == 1.0:
            return f"Composition([{inner}])"
        return f"Composition([{inner}], kappa={self._kappa:g})"


# --------------------------------------------------------------------------
# construction
# --------------------------------------------------------------------------

def closure(values, kappa=1.0) -> Composition:
    """Close a vector of positive values to constant sum ``kappa``."""
    return Composition._from_clr(clr_rows(closure_rows(_one_row(values, "parts"), kappa))[0], kappa)


def uniform(D, kappa=1.0) -> Composition:
    """The neutral element of perturbation: all parts equal."""
    D = int(D)
    if D < 2:
        raise DimensionMismatchError(f"need at least 2 parts, got {D}")
    return Composition._from_clr(np.zeros(D), _checked_kappa(kappa))


def _check_same_space(x: Composition, y: Composition, what="operands"):
    if x.D != y.D:
        raise DimensionMismatchError(
            f"{what} have different numbers of parts: {x.D} vs {y.D}"
        )
    if abs(x.kappa - y.kappa) > CLOSURE_TOL * x.kappa:
        raise DimensionMismatchError(
            f"{what} live on different simplices: kappa {x.kappa!r} vs {y.kappa!r}"
        )


# --------------------------------------------------------------------------
# vector space operations
# --------------------------------------------------------------------------

def perturb(x: Composition, y: Composition) -> Composition:
    """Perturbation (the group operation), ``C(x * y)``: adds the clr images."""
    _check_same_space(x, y)
    return Composition._from_clr(x._clr + y._clr, x.kappa)


def power(a, x: Composition) -> Composition:
    """Powering (the scalar action), ``C(x**a)``: scales the clr image by ``a``."""
    a = float(a)
    if not np.isfinite(a):
        raise NonPositivePartError(f"exponent must be finite, got {a!r}")
    return Composition._from_clr(a * x._clr, x.kappa)


def ait_inner(x: Composition, y: Composition) -> float:
    """Aitchison inner product, the Euclidean dot product of clr images."""
    _check_same_space(x, y)
    return float(np.dot(x._clr, y._clr))


def ait_norm(x: Composition) -> float:
    """Norm induced by :func:`ait_inner`."""
    return float(np.linalg.norm(x._clr))


def ait_distance(x: Composition, y: Composition) -> float:
    """Distance between compositions; invariant under perturbation by a
    common composition and under permutation of the parts."""
    _check_same_space(x, y)
    return float(np.linalg.norm(x._clr - y._clr))


# --------------------------------------------------------------------------
# log-ratio maps
# --------------------------------------------------------------------------

def clr(x: Composition) -> np.ndarray:
    """Centered log-ratio image: ``ln(parts)`` recentred to zero sum.

    Scale invariant, so the result does not depend on ``kappa``.
    """
    return x._clr.copy()


def clr_inv(v, kappa=1.0) -> Composition:
    """The closure of ``exp(v)``, built as the clr image ``v - mean(v)``; inverts
    :func:`clr`.  With no ``exp`` taken, entries far from the centre (``[800, -800]``)
    are valid; a non-finite image raises :class:`NonPositivePartError`."""
    row = _one_row(v, "clr image")[0]
    if row.size < 2:
        raise DimensionMismatchError(f"need at least 2 parts, got {row.size}")
    with np.errstate(over="ignore", invalid="ignore"):  # _from_clr rejects inf and NaN
        centred = row - row.mean()
    return Composition._from_clr(centred, _checked_kappa(kappa))


def alr(x: Composition) -> np.ndarray:
    """Additive log-ratio image ``ln(x_i / x_D)`` for ``i < D``.

    Oblique coordinates: convenient, but they do not preserve the metric.
    """
    return x._clr[:-1] - x._clr[-1]


def alr_inv(v, kappa=1.0) -> Composition:
    """Inverse of :func:`alr`: :func:`clr_inv` of ``v`` with a last log part 0
    appended, so it too takes entries far from the centre."""
    return clr_inv(np.append(_one_row(v, "coordinates")[0], 0.0), kappa)


class ContrastBasis:
    """Orthonormal basis of the clr subspace, held as a ``(D, D-1)`` matrix.

    Each column is the clr image of one basis composition; columns must sum
    to zero (within 1e-12 per entry set) and be orthonormal (within 1e-10).
    """

    __slots__ = ("_matrix",)

    def __init__(self, matrix):
        m = np.array(matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1] + 1 or m.shape[1] < 1:
            raise DimensionMismatchError(
                f"contrast matrix must have shape (D, D-1) with D >= 2, got {m.shape}"
            )
        if not np.all(np.isfinite(m)):
            raise NonPositivePartError("contrast matrix entries must be finite")
        col_sums = m.sum(axis=0)
        if np.max(np.abs(col_sums)) > 1e-12 * m.shape[0]:
            raise ClosureError(
                f"contrast columns must sum to zero, got column sums {col_sums}"
            )
        gram = m.T @ m
        if np.max(np.abs(gram - np.eye(m.shape[1]))) > 1e-10:
            raise InvalidSelectionError("contrast columns must be orthonormal")
        m.flags.writeable = False
        self._matrix = m

    @property
    def matrix(self):
        """The ``(D, D-1)`` contrast matrix ``U``."""
        return self._matrix

    @property
    def D(self):
        return self._matrix.shape[0]

    @property
    def dim(self):
        """Dimension of the coordinate space, ``D - 1``."""
        return self._matrix.shape[1]

    def __repr__(self):
        return f"ContrastBasis(D={self.D})"


@functools.lru_cache(maxsize=None)
def default_basis(D) -> ContrastBasis:
    """The standard sequential-balance basis.

    Column ``i`` (1-based) contrasts the geometric mean of the first ``i``
    parts against part ``i + 1``:

        U[:, i-1] = (1, ..., 1, -i, 0, ..., 0) / sqrt(i * (i + 1))

    with ``i`` leading ones.  Coordinate ``i`` of a composition is then
    ``ln(x1 * ... * xi / x_{i+1}**i) / sqrt(i * (i + 1))``.
    """
    D = int(D)
    if D < 2:
        raise DimensionMismatchError(f"need at least 2 parts, got {D}")
    U = np.zeros((D, D - 1))
    for i in range(1, D):
        U[:i, i - 1] = 1.0 / np.sqrt(i * (i + 1))
        U[i, i - 1] = -i / np.sqrt(i * (i + 1))
    return ContrastBasis(U)


def random_basis(D, rng) -> ContrastBasis:
    """A uniformly random orthonormal contrast basis (for testing invariance
    of basis-independent quantities)."""
    U0 = default_basis(D).matrix
    q, r = np.linalg.qr(rng.standard_normal((D - 1, D - 1)))
    q *= np.sign(np.diag(r))  # make the rotation unique given the QR input
    return ContrastBasis(U0 @ q)


def _as_basis(D, basis):
    if basis is None:
        return default_basis(D)
    if not isinstance(basis, ContrastBasis):
        basis = ContrastBasis(basis)
    if basis.D != D:
        raise DimensionMismatchError(
            f"basis is for {basis.D} parts but composition has {D}"
        )
    return basis


def ilr(x: Composition, basis: ContrastBasis | None = None) -> np.ndarray:
    """Orthonormal coordinates ``U.T @ clr(x)``; an isometry onto R^(D-1)."""
    return x._clr @ _as_basis(x.D, basis).matrix


def ilr_inv(coords, basis: ContrastBasis | None = None, kappa=1.0) -> Composition:
    """Composition with the given orthonormal coordinates."""
    row = _one_row(coords, "coordinates")[0]
    return Composition._from_clr(_as_basis(row.size + 1, basis).matrix @ row, _checked_kappa(kappa))


# --------------------------------------------------------------------------
# part reorderings and subcompositions
# --------------------------------------------------------------------------

class PermutationMap:
    """A bijection of part indices ``0..D-1``.

    ``image[i]`` is the source index placed at position ``i``, i.e. applying
    the map sends parts ``x`` to ``x[image]``.
    """

    __slots__ = ("_image",)

    def __init__(self, image):
        img = np.array(image, dtype=int)
        if img.ndim != 1 or img.size < 2:
            raise InvalidSelectionError(f"permutation must be a 1-d list, got shape {img.shape}")
        if sorted(img.tolist()) != list(range(img.size)):
            raise InvalidSelectionError(
                f"not a permutation of 0..{img.size - 1}: {img.tolist()}"
            )
        img.flags.writeable = False
        self._image = img

    @property
    def image(self):
        return self._image

    @property
    def D(self):
        return self._image.size

    @property
    def matrix(self):
        """The ``D x D`` 0/1 matrix ``P`` with ``P @ x == x[image]``."""
        return np.eye(self.D)[self._image]

    def __repr__(self):
        return f"PermutationMap({self._image.tolist()})"


def permute(x: Composition, p: PermutationMap) -> Composition:
    """Reorder the parts of ``x`` according to ``p``."""
    if p.D != x.D:
        raise DimensionMismatchError(f"permutation is on {p.D} parts, composition has {x.D}")
    return Composition._from_clr(x._clr[p.image], x.kappa)


class SelectionMatrix:
    """Choice of ``C`` distinct parts out of ``D`` (with ``2 <= C < D``),
    used to form subcompositions and to transport laws onto them."""

    __slots__ = ("_indices", "_D")

    def __init__(self, indices, D):
        D = int(D)
        idx = np.array(indices, dtype=int)
        if idx.ndim != 1:
            raise InvalidSelectionError(f"indices must be a 1-d list, got shape {idx.shape}")
        if len(set(idx.tolist())) != idx.size:
            raise InvalidSelectionError(f"indices must be distinct, got {idx.tolist()}")
        if idx.size < 2 or idx.size >= D:
            raise InvalidSelectionError(
                f"a subcomposition keeps between 2 and D-1 of the {D} parts, got {idx.size}"
            )
        if np.any(idx < 0) or np.any(idx >= D):
            raise InvalidSelectionError(f"indices out of range 0..{D - 1}: {idx.tolist()}")
        idx.flags.writeable = False
        self._indices = idx
        self._D = D

    @property
    def indices(self):
        return self._indices

    @property
    def D(self):
        return self._D

    @property
    def C(self):
        return self._indices.size

    @property
    def matrix(self):
        """The ``C x D`` 0/1 selection matrix ``S`` with ``S @ x == x[indices]``."""
        return np.eye(self._D)[self._indices]

    def __repr__(self):
        return f"SelectionMatrix({self._indices.tolist()}, D={self._D})"


def subcomposition(x: Composition, sel: SelectionMatrix) -> Composition:
    """Keep the selected parts and re-close to the same ``kappa``."""
    if sel.D != x.D:
        raise DimensionMismatchError(f"selection is on {sel.D} parts, composition has {x.D}")
    kept = x._clr[sel.indices]
    return Composition._from_clr(kept - kept.mean(), x.kappa)


# --------------------------------------------------------------------------
# descriptive geometry
# --------------------------------------------------------------------------

def center_of(data) -> Composition:
    """Closed geometric mean of a collection of compositions.

    This is the natural mean of the geometry: it equals the perturbation
    average ``(1/n) (.) (x1 (+) ... (+) xn)``.
    """
    data = list(data)
    if not data:
        raise EmptyDataError("cannot take the center of an empty collection")
    first = data[0]
    for x in data[1:]:
        _check_same_space(first, x, "collection members")
    return Composition._from_clr(np.mean([x._clr for x in data], axis=0), first.kappa)


def measure_ratio(x: Composition) -> float:
    """Density of the natural simplex measure relative to Lebesgue measure on
    the unit simplex: ``1 / (sqrt(D) * x1 * ... * xD)``.

    Lebesgue measure here is the ``(D-1)``-dimensional volume of the free
    parts (one part is redundant); it is computed from the clr image, so the
    value does not depend on ``kappa``.  Past the largest float it is ``math.inf``.
    """
    return _exp_or_inf(float(_log_measure_ratio(x._clr[None])[0]))


def _log_measure_ratio(clr) -> np.ndarray:
    """Log of :func:`measure_ratio` for each clr row: as a clr row sums to zero,
    ``-sum(ln x_i) = D * logsumexp(clr)`` for the unit-simplex parts, taken with each
    row shifted by its maximum so that no ``exp`` overflows.  Column by column is
    fastest and leaves no ``(n, D)`` temporary."""
    top = functools.reduce(np.maximum, clr.T)
    total = sum(np.exp(column - top) for column in clr.T)
    return -0.5 * math.log(clr.shape[1]) + clr.shape[1] * (top + np.log(total))


# --------------------------------------------------------------------------
# vectorized row helpers
# --------------------------------------------------------------------------

def closure_rows(rows, kappa=1.0) -> np.ndarray:
    """Close each row of a 2-d array of positive values to sum ``kappa``.

    Both the input and the closed output are checked, so a part that
    underflows to zero in the closure is rejected, never returned.
    """
    kappa = _checked_kappa(kappa)
    rows = _checked_rows(np.asarray(rows, dtype=float), "parts")
    return _checked_rows(_close_rows(rows, kappa), "closed parts")


def _checked_kappa(kappa) -> float:
    kappa = float(kappa)
    if not 0.0 < kappa < math.inf:
        raise NonPositivePartError(f"kappa must be strictly positive, got {kappa!r}")
    return kappa


def _close_rows(rows, kappa) -> np.ndarray:
    """The closure formula itself, without checks (``@ ones`` sums short rows fastest)."""
    return rows * (kappa / (rows @ np.ones(rows.shape[1])))[:, None]


def _clr_inv_rows(logs, kappa) -> np.ndarray:
    """Closed part rows of log rows, each shifted by its maximum (taken column by column,
    which is fastest) before ``exp``: no part overflows, one below ``1e-308 * kappa`` is 0."""
    return _close_rows(np.exp(logs - functools.reduce(np.maximum, logs.T)[:, None]), kappa)


def clr_rows(rows) -> np.ndarray:
    """clr image of each row of an ``(n, D)`` array of positive parts."""
    logs = np.log(np.asarray(rows, dtype=float))
    # sum / D is what ``mean`` computes, without its per-call overhead
    return logs - logs.sum(axis=1, keepdims=True) / logs.shape[1]


def ilr_rows(rows, basis: ContrastBasis | None = None) -> np.ndarray:
    """Orthonormal coordinates of each row; returns ``(n, D-1)``."""
    rows = np.asarray(rows, dtype=float)
    basis = _as_basis(rows.shape[1], basis)
    return clr_rows(rows) @ basis.matrix


def ilr_inv_rows(coords, basis: ContrastBasis | None = None, kappa=1.0) -> np.ndarray:
    """Part rows with the given coordinate rows; returns ``(n, D)``.  Unchecked, to stay
    cheap over quadrature grids and large samples: a part below about ``1e-308 * kappa``
    is 0.0, and only a row whose clr image overflows (coordinates near 1e308) is NaN."""
    coords = np.asarray(coords, dtype=float)
    if coords.ndim != 2:
        raise DimensionMismatchError(f"expected an (n, d) array, got {coords.shape}")
    basis = _as_basis(coords.shape[1] + 1, basis)
    return _clr_inv_rows(coords @ basis.matrix.T, _checked_kappa(kappa))
