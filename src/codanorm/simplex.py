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

Functions ending in ``_rows`` operate on a 2-d array whose rows are part
vectors (or coordinate vectors) and are the only implementation of each map:
the scalar functions taking or returning a :class:`Composition` shape their
argument as one row, call the ``_rows`` kernel and wrap the result.  One
validator checks part rows, both on the way into a closure and on the closed
output, where it rejects parts that underflow to zero.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import (
    ClosureError,
    DimensionMismatchError,
    EmptyDataError,
    InvalidSelectionError,
    NonPositivePartError,
)

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
    """A closed vector of ``D`` strictly positive parts summing to ``kappa``.

    The constructor demands a vector that is already closed up to a relative
    tolerance of 1e-12 (it re-normalizes the residual rounding error exactly);
    use :func:`closure` to close arbitrary positive vectors.

    Equality is geometric: two compositions with the same number of parts and
    the same ``kappa`` are equal when their Aitchison distance is below 1e-10.
    Instances are therefore unhashable.
    """

    __slots__ = ("_parts", "_kappa")

    def __init__(self, parts, kappa=1.0):
        row = _one_row(parts, "parts")
        closed = closure_rows(row, kappa)[0]
        kappa = float(kappa)
        total = row.sum()
        if abs(total - kappa) > CLOSURE_TOL * kappa:
            raise ClosureError(
                f"parts sum to {total!r}, not kappa={kappa!r}; close the vector first"
            )
        closed.flags.writeable = False
        self._parts = closed
        self._kappa = kappa

    @classmethod
    def _trusted(cls, parts, kappa):
        """Wrap parts that a row kernel has already closed and checked."""
        obj = object.__new__(cls)
        parts.flags.writeable = False
        obj._parts = parts
        obj._kappa = float(kappa)
        return obj

    @property
    def parts(self):
        """Read-only array of the ``D`` parts."""
        return self._parts

    @property
    def kappa(self):
        """Closure constant (the common sum)."""
        return self._kappa

    @property
    def D(self):
        """Number of parts."""
        return self._parts.size

    @property
    def proportions(self):
        """Parts rescaled to sum to one (independent of ``kappa``)."""
        return self._parts / self._kappa

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
        inner = ", ".join(f"{v:.6g}" for v in self._parts)
        if self._kappa == 1.0:
            return f"Composition([{inner}])"
        return f"Composition([{inner}], kappa={self._kappa:g})"


# --------------------------------------------------------------------------
# construction
# --------------------------------------------------------------------------

def closure(values, kappa=1.0) -> Composition:
    """Close a vector of positive values to constant sum ``kappa``."""
    return Composition._trusted(closure_rows(_one_row(values, "parts"), kappa)[0], kappa)


def uniform(D, kappa=1.0) -> Composition:
    """The neutral element of perturbation: all parts equal."""
    D = int(D)
    if D < 2:
        raise DimensionMismatchError(f"need at least 2 parts, got {D}")
    return Composition(np.full(D, float(kappa) / D), kappa)


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
    """Perturbation (the group operation): componentwise product, then closure."""
    _check_same_space(x, y)
    return closure(x.parts * y.parts, x.kappa)


def power(a, x: Composition) -> Composition:
    """Powering (the scalar action): componentwise power ``x**a``, then closure."""
    a = float(a)
    if not np.isfinite(a):
        raise NonPositivePartError(f"exponent must be finite, got {a!r}")
    return closure(x.parts ** a, x.kappa)


def ait_inner(x: Composition, y: Composition) -> float:
    """Aitchison inner product, the Euclidean dot product of clr images."""
    _check_same_space(x, y)
    return float(np.dot(clr(x), clr(y)))


def ait_norm(x: Composition) -> float:
    """Norm induced by :func:`ait_inner`."""
    return float(np.linalg.norm(clr(x)))


def ait_distance(x: Composition, y: Composition) -> float:
    """Distance between compositions; invariant under perturbation by a
    common composition and under permutation of the parts."""
    _check_same_space(x, y)
    return float(np.linalg.norm(clr(x) - clr(y)))


# --------------------------------------------------------------------------
# log-ratio maps
# --------------------------------------------------------------------------

def clr(x: Composition) -> np.ndarray:
    """Centered log-ratio image: ``ln(parts)`` recentred to zero sum.

    Scale invariant, so the result does not depend on ``kappa``.
    """
    return clr_rows(x.parts[None])[0]


def clr_inv(v, kappa=1.0) -> Composition:
    """Close ``exp(v)``; inverts :func:`clr` for zero-sum ``v``."""
    return closure(np.exp(np.asarray(v, dtype=float)), kappa)


def alr(x: Composition) -> np.ndarray:
    """Additive log-ratio image ``ln(x_i / x_D)`` for ``i < D``.

    Oblique coordinates: convenient, but they do not preserve the metric.
    """
    logs = np.log(x.parts)
    return logs[:-1] - logs[-1]


def alr_inv(v, kappa=1.0) -> Composition:
    """Inverse of :func:`alr`: append a unit last part and close."""
    row = _one_row(v, "coordinates")[0]
    return closure(np.exp(np.append(row, 0.0)), kappa)


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


@lru_cache(maxsize=None)
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
    return ilr_rows(x.parts[None], basis)[0]


def ilr_inv(coords, basis: ContrastBasis | None = None, kappa=1.0) -> Composition:
    """Composition with the given orthonormal coordinates."""
    parts = ilr_inv_rows(_one_row(coords, "coordinates"), basis, kappa)
    return Composition._trusted(_checked_rows(parts, "closed parts")[0], kappa)


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
    return Composition(x.parts[p.image], x.kappa)


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
    return closure(x.parts[sel.indices], x.kappa)


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
    return _geometric_center(np.stack([x.parts for x in data]), first.kappa)


def _geometric_center(rows, kappa) -> Composition:
    """Closed geometric mean of the part rows of a positive ``(n, D)`` array."""
    return closure(np.exp(np.log(rows).mean(axis=0)), kappa)


def measure_ratio(x: Composition) -> float:
    """Density of the natural simplex measure relative to Lebesgue measure on
    the unit simplex: ``1 / (sqrt(D) * x1 * ... * xD)``.

    Lebesgue measure here is the ``(D-1)``-dimensional volume of the free
    parts (one part is redundant); the proportions are used, so the value
    does not depend on ``kappa``.
    """
    return float(np.exp(_log_measure_ratio_rows(x.proportions[None])[0]))


def _log_measure_ratio_rows(rows) -> np.ndarray:
    """Log of :func:`measure_ratio` for each row of unit-simplex points,
    ``-ln(D)/2 - sum(ln x_i)``: the log-factor turning a natural density
    into a Lebesgue one."""
    return -0.5 * math.log(rows.shape[1]) - np.sum(np.log(rows), axis=1)


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
    """The closure formula itself, without checks."""
    return rows * (kappa / rows.sum(axis=1, keepdims=True))


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
    """Part rows with the given coordinate rows; returns ``(n, D)``.

    Unchecked, to stay cheap over quadrature grids and large samples: a row
    whose parts overflow or underflow comes back with NaN or zero parts.
    """
    coords = np.asarray(coords, dtype=float)
    if coords.ndim != 2:
        raise DimensionMismatchError(f"expected an (n, d) array, got {coords.shape}")
    basis = _as_basis(coords.shape[1] + 1, basis)
    return _close_rows(np.exp(coords @ basis.matrix.T), _checked_kappa(kappa))
