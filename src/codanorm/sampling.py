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

from .errors import InsufficientDataError, NonPositivePartError
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
    """``n`` compositional draws held as their clr rows ``(mu + L Z) U'``."""
    _require(law, _SimplexGaussian)
    n = _check_n(n)
    z = stream.generator().standard_normal((n, law.dim))
    clr = (law.mu + z @ law._chol.T) @ law.basis.matrix.T
    return SimplexSample._from_clr(clr, kappa, law.basis)


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


def mc_expectation(f, law, n, stream: SeededStream, vectorized=False) -> McEstimate:
    """Monte-Carlo estimate of ``E[f(X)]`` under any of the four laws.

    With ``vectorized=False`` (default) ``f`` receives one observation at a
    time — a :class:`~codanorm.rplus.PositiveValue` for scalar laws, a
    :class:`~codanorm.simplex.Composition` for simplex laws.  With
    ``vectorized=True`` it receives the whole sample at once as an array
    (log vector / part-row matrix) and must return ``n`` values; use this
    for large ``n``.
    """
    n = _check_n(n, minimum=100)
    _require(law, (_ScalarLogGaussian, _SimplexGaussian))
    if isinstance(law, _ScalarLogGaussian):
        sample = sample_nrp(law, n, stream)
        if vectorized:
            vals = np.asarray(f(np.exp(sample.logs)), dtype=float)
        else:
            vals = np.array([f(v) for v in sample.values()], dtype=float)
    else:
        sample = sample_nsd(law, n, stream)
        if vectorized:
            vals = np.asarray(f(sample.rows), dtype=float)
        else:
            vals = np.array([f(c) for c in sample.compositions()], dtype=float)
    if vals.shape != (n,):
        raise NonPositivePartError(
            f"f must produce one real value per draw, got shape {vals.shape}"
        )
    return McEstimate(vals.mean(), vals.std(ddof=1) / math.sqrt(n), n)
