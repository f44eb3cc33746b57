"""Vector-space geometry of the strictly positive real line.

The positive reals form a one-dimensional Euclidean space once "addition" is
taken to be ordinary multiplication and "scalar multiplication" is powering:

    x (+) y = x * y          a (.) x = x ** a

``log`` is then a linear isometry onto the real line, which is why everything
here is stored and computed on the log scale.  The natural (translation
invariant) measure of this space is not Lebesgue measure but has density
``1/x`` with respect to it; :func:`measure_ratio` and
:func:`interval_measure` expose that fact directly.
"""

from __future__ import annotations

import math

from .errors import BadIntervalError, NonPositivePartError

__all__ = [
    "PositiveValue",
    "as_positive",
    "rp_add",
    "rp_scale",
    "rp_inner",
    "rp_norm",
    "rp_distance",
    "rp_coord",
    "rp_coord_inv",
    "measure_ratio",
    "interval_measure",
]

#: Two values are considered equal when their log coordinates agree this closely.
LOG_EQ_TOL = 1e-12


def _exp_or_inf(t) -> float:
    """``math.exp(t)``, or ``math.inf`` where that passes the largest float."""
    try:
        return math.exp(t)
    except OverflowError:
        return math.inf


class PositiveValue:
    """A strictly positive real, stored by its log coordinate.

    Parameters
    ----------
    value : float
        Strictly positive finite number.

    Notes
    -----
    Equality compares log coordinates within ``LOG_EQ_TOL`` (1e-12), so
    instances are deliberately unhashable.
    """

    __slots__ = ("_log",)

    def __init__(self, value):
        value = float(value)
        if not math.isfinite(value) or value <= 0.0:
            raise NonPositivePartError(
                f"expected a strictly positive finite value, got {value!r}"
            )
        self._log = math.log(value)

    @classmethod
    def from_log(cls, log_coord):
        """Build a value directly from its log coordinate (always valid)."""
        log_coord = float(log_coord)
        if not math.isfinite(log_coord):
            raise NonPositivePartError(
                f"log coordinate must be finite, got {log_coord!r}"
            )
        obj = object.__new__(cls)
        obj._log = log_coord
        return obj

    @property
    def value(self):
        """The plain float this object represents: ``math.inf`` past the
        largest float, 0.0 below the smallest."""
        return _exp_or_inf(self._log)

    @property
    def log(self):
        """Coordinate of the value in the log isometry."""
        return self._log

    def __float__(self):
        return self.value

    def __eq__(self, other):
        if isinstance(other, PositiveValue):
            return abs(self._log - other._log) <= LOG_EQ_TOL
        return NotImplemented

    # tolerance-based equality is not compatible with hashing
    __hash__ = None

    def __repr__(self):
        return f"PositiveValue({self.value:.17g})"


def as_positive(x) -> PositiveValue:
    """Coerce a float or :class:`PositiveValue` to a :class:`PositiveValue`."""
    if isinstance(x, PositiveValue):
        return x
    return PositiveValue(x)


def rp_add(x, y) -> PositiveValue:
    """Group operation of the space: ordinary product ``x * y``."""
    return PositiveValue.from_log(as_positive(x).log + as_positive(y).log)


def rp_scale(a, x) -> PositiveValue:
    """Scalar action ``x ** a`` for real ``a``."""
    return PositiveValue.from_log(float(a) * as_positive(x).log)


def rp_inner(x, y) -> float:
    """Inner product ``ln(x) * ln(y)`` making the space Euclidean."""
    return as_positive(x).log * as_positive(y).log


def rp_norm(x) -> float:
    """Norm induced by :func:`rp_inner`, i.e. ``|ln x|``."""
    return abs(as_positive(x).log)


def rp_distance(x, y) -> float:
    """Distance ``|ln y - ln x|``; translation invariant under :func:`rp_add`."""
    return abs(as_positive(y).log - as_positive(x).log)


def rp_coord(x) -> float:
    """Coordinate of ``x`` with respect to the unit basis element ``e``."""
    return as_positive(x).log


def rp_coord_inv(coord) -> PositiveValue:
    """Inverse of :func:`rp_coord`: the value whose log coordinate is ``coord``."""
    return PositiveValue.from_log(coord)


def measure_ratio(x) -> float:
    """Density ``1/x`` of the natural measure relative to Lebesgue measure."""
    return math.exp(-as_positive(x).log)


def interval_measure(a, b) -> float:
    """Natural measure of the interval ``(a, b)``, equal to ``ln(b) - ln(a)``.

    Raises
    ------
    BadIntervalError
        If the endpoints are not ordered ``0 < a < b``.
    """
    try:
        a = as_positive(a)
        b = as_positive(b)
    except NonPositivePartError as exc:
        raise BadIntervalError(
            f"interval endpoints must satisfy 0 < a < b: {exc}"
        ) from exc
    if not a.log < b.log:
        raise BadIntervalError(
            f"interval endpoints must satisfy a < b, got a={a.value!r}, b={b.value!r}"
        )
    return b.log - a.log
