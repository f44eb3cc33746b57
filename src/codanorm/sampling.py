"""Seeded random generation for the four laws, plus a Monte-Carlo averager.

Draws are made on coordinates (standard normal, then affine) and mapped back
to the space, so every output is automatically a valid element.  Because a
law referred to Lebesgue measure is the *same probability law* as its
natural-measure twin, :func:`sample_lognormal` and :func:`sample_aln` are
thin named wrappers producing draw-for-draw identical output to
:func:`sample_nrp` / :func:`sample_nsd` under the same stream — the
equivalence is an executable statement, not a comment.

Reproducibility: a :class:`SeededStream` always builds a fresh PCG64
generator from ``(seed, stream_id)``; normal variates use NumPy's ziggurat
method.  Identical (seed, stream) therefore reproduce identical samples for
a fixed NumPy version, and distinct stream ids give independent streams for
replication-parallel work.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._special import _blockwise
from .errors import InsufficientDataError, NonPositivePartError, NumericalError
from .inference import RPlusSample, SimplexSample
from .laws import (
    AlnLaw,
    LognormalLaw,
    NormalOnRPlus,
    NormalOnSimplex,
    _ScalarLogGaussian,
    _SimplexGaussian,
    _require,
)

__all__ = [
    "SeededStream",
    "McEstimate",
    "sample_nrp",
    "sample_lognormal",
    "sample_nsd",
    "sample_aln",
    "mc_expectation",
]


@dataclass(slots=True, eq=False)
class SeededStream:
    """A named, replayable source of randomness.

    ``seed`` identifies the experiment, ``stream_id`` the replication;
    streams with different ids are statistically independent.  Each call to
    :meth:`generator` restarts the stream from the beginning, which is what
    makes sampling functions pure.
    """

    seed: int
    stream_id: int = 0

    def __post_init__(self):
        seed, stream_id = self.seed, self.stream_id
        self.seed, self.stream_id = int(seed), int(stream_id)
        if self.seed < 0:
            raise NonPositivePartError(f"seed must be non-negative, got {seed!r}")
        if self.stream_id < 0:
            raise NonPositivePartError(f"stream_id must be non-negative, got {stream_id!r}")

    def generator(self) -> np.random.Generator:
        """A fresh generator positioned at the start of this stream."""
        return np.random.default_rng(
            np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream_id,))
        )

    def child(self, stream_id) -> "SeededStream":
        """The sibling stream with another id (same seed)."""
        return SeededStream(self.seed, stream_id)


def _check_n(n, minimum=1):
    n = int(n)
    if n < minimum:
        raise InsufficientDataError(f"need n >= {minimum}, got {n}")
    return n


def sample_nrp(law: NormalOnRPlus, n, stream: SeededStream) -> RPlusSample:
    """``n`` draws ``exp(mu + sigma * Z)`` from a normal law on the line."""
    _require(law, _ScalarLogGaussian)
    n = _check_n(n)
    logs = law.mu + law.sigma * stream.generator().standard_normal(n)
    return RPlusSample.from_logs(logs)


def sample_lognormal(law: LognormalLaw, n, stream: SeededStream) -> RPlusSample:
    """Identical draws to :func:`sample_nrp` with the same parameters and
    stream: the lognormal is the same probability law."""
    return sample_nrp(law, n, stream)


def sample_nsd(law: NormalOnSimplex, n, stream: SeededStream, kappa=1.0) -> SimplexSample:
    """``n`` compositional draws held as their clr rows ``(mu + L Z) U'``, a block of rows
    at a time with the bits of whole-array products."""
    _require(law, _SimplexGaussian)
    n = _check_n(n)
    z = stream.generator().standard_normal((n, law.dim))
    return SimplexSample._from_clr(_blockwise(_clr_block, z, law), kappa, law.basis)


def _clr_block(z, law):
    # coordinate-major (d, n): L @ z.T is z @ L.T transposed, the same BLAS call and bits,
    # and mu is added along the long axis.  Up to d = 5 a block's products stay below
    # OpenBLAS's threading threshold, while a whole 1e5-row product leaves a worker
    # spinning for about 135 ms of CPU after the call
    coords = law._chol @ z.T
    coords += law.mu[:, None]
    return coords.T @ law.basis.matrix.T


def sample_aln(law: AlnLaw, n, stream: SeededStream, kappa=1.0) -> SimplexSample:
    """Identical draws to :func:`sample_nsd` with the same parameters and
    stream: the Lebesgue-referred law is the same probability law."""
    return sample_nsd(law, n, stream, kappa)


@dataclass(slots=True, eq=False)
class McEstimate:
    """A Monte-Carlo average and its standard error."""

    estimate: float
    standard_error: float
    n: int

    def __post_init__(self):
        self.estimate, self.standard_error = float(self.estimate), float(self.standard_error)
        self.n = int(self.n)


def _draws(law, n, stream, kappa=1.0):
    """``n`` draws from ``law`` as the numbers ``sample`` writes: positive values (``exp``
    of the logs) on the line, ``(n, D)`` part rows closed to ``kappa`` on the simplex.  A
    draw with a number past the largest float or below the smallest normal float (``inf``,
    NaN, 0.0 or a subnormal that has lost its digits, which no reader refits) raises
    :class:`NumericalError`."""
    with np.errstate(over="ignore", invalid="ignore"):  # counted below
        if isinstance(law, _ScalarLogGaussian):
            values = np.exp(sample_nrp(law, n, stream).logs)
        else:
            values = sample_nsd(law, n, stream, kappa).rows
    normal = np.isfinite(values) & (values >= np.finfo(float).tiny)
    outside = np.count_nonzero(~normal.reshape(len(values), -1).all(axis=1))
    if outside:
        raise NumericalError(f"{outside} of {len(values)} draws lie outside the float range")
    return values


def mc_expectation(f, law, n, stream: SeededStream, vectorized=False) -> McEstimate:
    """Monte-Carlo estimate of ``E[f(X)]`` under any of the four laws.

    With ``vectorized=False`` (default) ``f`` receives one observation at a
    time — a :class:`~codanorm.rplus.PositiveValue` for scalar laws, a
    :class:`~codanorm.simplex.Composition` for simplex laws.  With
    ``vectorized=True`` it receives the whole sample at once as an array —
    the ``n`` positive values (``exp`` of the logs) for scalar laws, the
    ``(n, D)`` part rows for simplex laws — and must return ``n`` values; use
    this for large ``n``.  There a positive value past the largest float or below
    the smallest normal one raises :class:`NumericalError`, as its ``exp`` has lost
    the log it came from; a :class:`~codanorm.rplus.PositiveValue` keeps the log.
    """
    n = _check_n(n, minimum=100)
    _require(law, (_ScalarLogGaussian, _SimplexGaussian))
    line = isinstance(law, _ScalarLogGaussian)
    if vectorized:  # the line's values are checked as ``sample`` checks them
        vals = f(_draws(law, n, stream) if line else sample_nsd(law, n, stream).rows)
    else:
        sample = (sample_nrp if line else sample_nsd)(law, n, stream)
        vals = [f(x) for x in (sample.values() if line else sample.compositions())]
    vals = np.asarray(vals, dtype=float)
    if vals.shape != (n,):
        raise NonPositivePartError(f"f must produce one real value per draw, got shape {vals.shape}")
    return McEstimate(vals.mean(), vals.std(ddof=1) / math.sqrt(n), n)
