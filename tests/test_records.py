"""The contract of the result records and the scalar-law container: coerced
field types, no instance ``__dict__``, identity equality on the records, and
value equality on the laws."""

import numpy as np
import pytest

from codanorm import (
    CoordinateDensityGrid,
    DegenerateScaleError,
    GofEntry,
    HistogramArtifact,
    LognormalLaw,
    McEstimate,
    NonPositivePartError,
    NormalOnRPlus,
    NormalOnSimplex,
    PositiveValue,
    SeededStream,
    TernaryDensityGrid,
    closure,
)
from codanorm.laws import (
    LebesgueMoments,
    NaiveInterval,
    RPlusMoments,
    SimplexMoments,
    _ScalarLogGaussian,
)

_ONE = PositiveValue.from_log(0.0)
_AXIS = np.array([0.0, 1.0])
_SIMPLEX_LAW = NormalOnSimplex([0.0, 0.0], np.eye(2))

# (class, constructor arguments, {field: its type after construction})
CASES = [
    (_ScalarLogGaussian, (np.float32(0.5), 2), {"mu": float, "sigma2": float}),
    (RPlusMoments, (_ONE, _ONE, _ONE, np.float64(1.0)),
     {"mean": PositiveValue, "metric_variance": float}),
    (LebesgueMoments, (1, 2, 3, np.float64(4.0)),
     {"mean": float, "median": float, "mode": float, "variance": float}),
    (NaiveInterval, (-1, np.float64(2.0)),
     {"lower": float, "upper": float, "lower_in_support": bool, "upper_in_support": bool}),
    (SimplexMoments, (closure([1.0, 2.0, 3.0]), 2), {"metric_variance": float}),
    (GofEntry, ("marginal", "coord1", "watson", np.float64(0.1), 1),
     {"layer": str, "statistic": float, "critical_1pct": float}),
    (SeededStream, (np.int64(3), True), {"seed": int, "stream_id": int}),
    (McEstimate, (np.float64(0.5), np.float64(0.1), np.int64(100)),
     {"estimate": float, "standard_error": float, "n": int}),
    (HistogramArtifact,
     ("logratio", _AXIS, _AXIS, _AXIS, _AXIS, _AXIS, _AXIS, _AXIS, 2, NormalOnRPlus(0, 1)),
     {"metric": str, "edges": np.ndarray, "n": int}),
    (TernaryDensityGrid, (4, 0.1, _AXIS, _AXIS, _AXIS, _AXIS, [], _SIMPLEX_LAW),
     {"resolution": int, "values": np.ndarray, "maxima": list}),
    (CoordinateDensityGrid, (_AXIS, _AXIS, np.eye(2), _SIMPLEX_LAW),
     {"values": np.ndarray, "law": NormalOnSimplex}),
]


@pytest.mark.parametrize("cls, args, types", CASES, ids=[c[0].__name__ for c in CASES])
def test_record_contract(cls, args, types):
    one, twin = cls(*args), cls(*args)
    assert {name: type(getattr(one, name)) for name in types} == types
    assert not hasattr(one, "__dict__")
    if cls is _ScalarLogGaussian:
        # a law compares by class and parameters, and is unhashable
        assert one == twin
        assert NormalOnRPlus(0, 1) == NormalOnRPlus(0.0, 1.0)
        assert NormalOnRPlus(0, 1) != LognormalLaw(0, 1)
        with pytest.raises(TypeError):
            hash(NormalOnRPlus(0, 1))
        with pytest.raises(DegenerateScaleError):
            NormalOnRPlus(0, sigma2=-1)
    else:
        # a record is equal only to itself
        assert one == one and one != twin
        assert hash(one) != hash(twin)
    if cls is SeededStream:
        with pytest.raises(NonPositivePartError):
            SeededStream(-1)
