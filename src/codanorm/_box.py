"""The normal mass of a box, ``P(lower < X < upper)`` for a centred normal ``X``
at d >= 2, on numpy and ``math`` alone.

* d = 2: the d = 1 mass of the second coordinate given the first
  (``_special.normal_mass``), integrated against the first's density by
  :func:`_adaptive_legendre`, the package's one accuracy-controlled rule in one
  dimension: 12-node Gauss-Legendre pieces from graded first ends
  (:func:`_graded_ends`), halved adaptively to a relative tolerance.  The D = 2
  classical ALN mean (``laws.aln_classical_mean``) is its other user.
* d >= 3: Genz's separation of variables (*J. Comput. Graph. Stat.* 1, 1992)
  with Genz-Bretz variable ordering, integrated over 10 random shifts of a
  rank-1 lattice built by fast component-by-component construction (Nuyens &
  Cools, MCQMC 2004) under the tent transform; the point count grows by sqrt 2
  until 3 standard errors over the shifts are within 1e-5.

The lattice code is adapted from Genz's MATLAB routines and their Python port:
Copyright (C) 2013, Alan Genz; Python implementation Copyright (C) 2022,
Robert Kern; all rights reserved; used under the three-clause BSD licence,
which disclaims every warranty.

``probability_of_box`` imports this module on its first box of two or more
coordinates, and ``aln_classical_mean`` on its first two-part law, so ``import
codanorm`` neither loads nor compiles it.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from ._special import _BLOCK, _GL_RULE, _Estimate, ndtr, ndtri, normal_mass
from .errors import QuadratureUnstableError

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_SHIFTS = 10  # random shifts of the lattice; their spread gives the standard error
_BOX_TOLERANCE = 1e-5  # on 3 standard errors over the shifts
_BOX_POINTS_PER_DIM = 1_000_000  # no further round once d times this many are spent


def normal_box(sigma, lower, upper, seed) -> _Estimate:
    """``P(lower < X < upper)`` for ``X ~ N(0, sigma)`` at d >= 2 (bounds may be
    infinite, each ``lower < upper``): the conditional rule at d = 2, the shifted
    lattice from d = 3, its shifts drawn from ``default_rng(seed)`` on each call.
    Needing more than ``1e6 d`` points raises :class:`QuadratureUnstableError`."""
    if len(sigma) == 2:
        return _bivariate_box(sigma, lower, upper)
    return _lattice_box(sigma, lower, upper, seed)


# The value's own rounding: z standard deviations out, the integrand's exponent -z^2 / 2
# ~ ln P moves by about z^2 eps with each rounding in it, so 16 eps |ln P| P is both the
# halving's target (a fixed 1e-15 never settles on far tails) and part of its error.
def _tolerance(p):
    return 16.0 * 2.0 ** -52 * max(1.0, -math.log(p)) * p if p > 0.0 else 0.0


# Over twice the most pieces (43) that any box of two 80-box sweeps needed: |rho| = 1 -
# 10^-(0.1...4), bounds in +-8, widths 1e-2 to 6, some ends infinite; D = 2 means took at
# most 24.  No piece is halved past it; the first pieces are at most 29 (15 for a mean).
_MAX_PIECES = 100


def _graded_ends(a, b, turns):
    """``a``, ``b`` and each turn ``(c, w)``'s ``c -+ w 2**k``, k = 0..6, between them, sorted."""
    return sorted({a, b}.union(e for c, w in turns for k in range(7)
                               for e in (c - w * 2**k, c + w * 2**k) if a < e < b))


def _adaptive_legendre(f, ends, method) -> _Estimate:
    """``int g`` from ``ends[0]`` to ``ends[-1]`` by ``f(x, w) = w g(x)``, each weight (it carries
    ``1 / sqrt(2 pi)``) first in its product, from first pieces between the ends.  A piece is
    worth its halves' 12-node Gauss-Legendre rules, its error their distance from its own, and
    the one of largest error is halved until the errors sum to ``_tolerance`` or there are
    ``_MAX_PIECES``; a halving evaluates 48 points, each first piece 36."""
    def rule(u, v):
        c, h = 0.5 * (u + v), 0.5 * (v - u)
        return h * sum(f(x, w) for t, w in _GL_RULE for x in (c - h * t, c + h * t))

    def piece(u, v, whole):
        left, right = rule(u, 0.5 * (u + v)), rule(0.5 * (u + v), v)
        return [abs(left + right - whole), u, v, left, right]

    pieces = [piece(u, v, rule(u, v)) for u, v in zip(ends, ends[1:])]
    while True:
        value, error = math.fsum(p[3] + p[4] for p in pieces), math.fsum(p[0] for p in pieces)
        if error <= _tolerance(value) or len(pieces) >= _MAX_PIECES:
            return _Estimate(value, method, 12 * (4 * len(pieces) - len(ends) + 1),
                             error + _tolerance(value), len(pieces))
        pieces.sort()
        _, u, v, left, right = pieces.pop()
        pieces += [piece(u, 0.5 * (u + v), left), piece(0.5 * (u + v), v, right)]


def _bivariate_box(sigma, lower, upper):
    """``int phi(x) normal_mass((l2 - r x) / s, (h2 - r x) / s) dx`` over ``l1 < x < h1`` in
    standard units, ``s = sqrt(1 - r^2)``: the d = 1 mass of the second given the first."""
    sd = np.sqrt(np.diag(sigma))
    (l1, l2), (h1, h2), (w1, w2) = (v.tolist() for v in (lower / sd, upper / sd,
                                                         (upper - lower) / sd))
    if -l1 == h1 == math.inf or -l2 == h2 == math.inf:  # a side is the line: the d = 1 box
        p = normal_mass(l2, h2, w2) if -l1 == h1 == math.inf else normal_mass(l1, h1, w1)
        return _Estimate(p, "conditional-legendre", 1, _tolerance(p), 0)
    r = float(sigma[0, 1] / (sd[0] * sd[1]))
    r = math.copysign(min(abs(r), 1.0 - 2.0 ** -53), r)  # not +-1 by rounding
    s = math.sqrt((1.0 - r) * (1.0 + r))
    a, b = (min(max(x, -39.0), 39.0) for x in (l1, h1))  # phi is 0 past |x| = 38.6
    # a finite bound y's term of the mass turns at x = y / r, within about s / |r|; at
    # 64 s / |r| out its argument is +-64, where the term is 0 or 1 to the last bit
    turns = [(y / r, s / abs(r)) for y in (l2, h2) if math.isfinite(y) and r != 0.0]
    return _adaptive_legendre(lambda x, w: w * math.exp(-0.5 * x * x) * normal_mass(
        (l2 - r * x) / s, (h2 - r * x) / s, w2 / s), _graded_ends(a, b, turns),
        "conditional-legendre")


def _permuted_cholesky(sigma, lower, upper, tol=1e-10):
    """Cholesky factor ``L`` of the correlation matrix, rows in Genz-Bretz order (each
    variable in turn the one of least expected mass given the means of those before),
    each row and its bounds divided by its diagonal, which becomes 1.  A variable of
    conditional sd ``<= (k + 1) tol`` keeps diagonal 0 and unscaled bounds."""
    scale = np.sqrt(np.diag(sigma))
    a = sigma / scale / scale[:, None]  # in a[k:, k:] the covariance left given the first k
    lo, hi = lower / scale, upper / scale
    d = lo.size
    y = np.zeros(d)  # the conditional mean of each variable placed, given its box
    for k in range(d):
        pick, ck, mass, ends = k, 0.0, 1.0, (0.0, 0.0)
        for i in range(k, d):
            if a[i, i] > tol:
                ci, s = math.sqrt(a[i, i]), float(a[i, :k] @ y[:k])
                li, hi_i = (lo[i] - s) / ci, (hi[i] - s) / ci
                de = normal_mass(li, hi_i, (hi[i] - lo[i]) / ci)
                if de <= mass:
                    pick, ck, mass, ends = i, ci, de, (li, hi_i)
        swap = [k, pick]
        a[swap] = a[swap[::-1]]
        a[:, swap] = a[:, swap[::-1]]
        lo[swap], hi[swap] = lo[swap[::-1]], hi[swap[::-1]]
        if ck <= (k + 1) * tol:
            a[k:, k] = 0.0
            y[k] = 0.5 * (lo[k] + hi[k])
            continue
        col = a[k + 1:, k] / ck
        a[k + 1:, k] = col
        a[k + 1:, k + 1:] -= np.outer(col, col)
        lm, hm = ends
        if mass > tol:
            y[k] = (math.exp(-0.5 * lm * lm) - math.exp(-0.5 * hm * hm)) / (_SQRT_2PI * mass)
        else:
            y[k] = hm if lm < -10.0 else lm if hm > 10.0 else 0.5 * (lm + hm)
        a[k, :k] /= ck
        a[k, k] = 1.0
        lo[k] /= ck
        hi[k] /= ck
    return a, lo, hi


def _prime_at_most(n):
    while any(n % f == 0 for f in range(2, math.isqrt(n) + 1)):
        n -= 1
    return n


def _primitive_root(p):
    """The least generator of the multiplicative group modulo the prime ``p``."""
    factors, m, f = [], p - 1, 2
    while f * f <= m:
        if m % f == 0:
            factors.append(f)
            while m % f == 0:
                m //= f
        f += 1
    factors += [m] if m > 1 else []
    g = 2
    while any(pow(g, (p - 1) // f, p) == 1 for f in factors):
        g += 1
    return g


@functools.lru_cache(maxsize=None)
def _cbc_generator(dim, n):
    """Generating vector of a rank-1 lattice of ``n`` (prime) points in ``dim``
    dimensions, each component in turn minimizing the worst-case error of the product
    kernel ``prod_j (1 + w_j B2({k z_j / n}))``, ``B2(x) = x^2 - x + 1/6``, weights
    1, 1, 0.8, 0.8**2, ..., by fast CBC: ordered by powers of a generator of the units
    modulo ``n``, the sums for all choices are one circular convolution (Nuyens & Cools)."""
    from numpy.fft import fft, ifft

    m = (n - 1) // 2
    g = _primitive_root(n)
    perm = np.ones(m, dtype=np.int64)  # g**j mod n, by doubling the run known so far
    step, g_step = 1, g
    while step < m:
        perm[step:2 * step] = perm[:min(step, m - step)] * g_step % n
        step, g_step = 2 * step, g_step * g_step % n
    perm = np.minimum(n - perm, perm)
    pn = perm / n
    kernel = pn * pn - pn + 1.0 / 6.0
    fk = fft(kernel)
    gen, prod, w = np.arange(1, dim + 1), 1.0, 0
    for s in range(1, dim):  # the factor of component s - 1, then the sums for every choice
        weight = 0.8 ** max(s - 2, 0)
        prod = prod * (1.0 + weight * np.hstack([kernel[:w + 1][::-1], kernel[w + 1:][::-1]]))
        crit = ifft(fk * fft(prod)).real
        # equally good choices come in pairs; the first of them, whatever the FFT's rounding
        w = int(np.flatnonzero(crit <= crit.min() + 1e-12 * np.abs(crit).max())[0])
        gen[s] = perm[w]
    gen.flags.writeable = False
    return gen


def _lattice_box(sigma, lower, upper, seed):
    """The separated integrand over the shifted lattice, the point count raised by
    sqrt 2 a round and the rounds pooled by inverse variance, until 3 standard errors
    are within ``_BOX_TOLERANCE``."""
    from numpy.random import default_rng

    chol, lo, hi = _permuted_cholesky(sigma, lower, upper)
    d = lo.size
    rng = default_rng(seed)
    value, error, target, points, rounds = 0.0, math.inf, 1000 * d, 0, 0
    while points < _BOX_POINTS_PER_DIM * d:
        target, rounds = round(math.sqrt(2.0) * target), rounds + 1
        n = _prime_at_most(target // _SHIFTS)
        means = _lattice_means(chol, lo, hi, _cbc_generator(d - 1, n), n,
                               rng.random((_SHIFTS, d - 1)))
        se3 = 3.0 * math.sqrt(float(np.var(means, ddof=1)) / _SHIFTS)
        weight = 1.0 / (1.0 + (se3 / error) ** 2)
        value += weight * (float(np.mean(means)) - value)
        error = math.sqrt(weight) * se3
        points += _SHIFTS * n
        if error <= _BOX_TOLERANCE:
            return _Estimate(value, "genz-lattice", points, error, rounds)
    raise QuadratureUnstableError(f"box probability {value:.6g} has error {error:.3g} after "
                                  f"{points} points, the limit for d = {d}")


def _lattice_means(chol, lo, hi, gen, n, shifts):
    """Mean of the separated integrand over the ``n`` lattice points ``frac(i gen / n)``,
    ``i = 1..n``, under each shift, in blocks of whole shifts or of ``_BLOCK`` points."""
    sums = np.zeros(len(shifts))
    per = max(1, _BLOCK // n)
    for s0 in range(0, len(shifts), per):  # sums over the lattice, not a row map: no _blockwise
        for p0 in range(0, n, _BLOCK):
            i = np.arange(p0 + 1, min(n, p0 + _BLOCK) + 1)
            z = (np.multiply.outer(gen, i) % n / n)[:, None] + shifts[s0:s0 + per].T[:, :, None]
            z -= z >= 1.0
            z *= 2.0
            z -= 1.0
            x = np.abs(z, out=z).reshape(len(gen), -1)  # the tent transform |2 z - 1|
            sums[s0:s0 + per] += _separated(chol, lo, hi, x).reshape(-1, i.size).sum(axis=1)
    return sums / n


def _separated(chol, lo, hi, x):
    """Genz's integrand at the points ``x`` of the unit cube, one column each: the
    product over the variables of their conditional mass given the ones before, each
    drawn at the quantile ``x`` of its mass.  Where an interval lies mostly above 0 the
    mass and the quantile are taken on the mirrored side, ``-Z`` at ``1 - x``, so a mass
    of two upper tails keeps its digits and the integrand stays smooth."""
    y = np.empty_like(x)
    pv = np.ones(x.shape[1])
    s = np.zeros(1)
    for k in range(lo.size):
        if k:
            u = np.where(up, 1.0 - x[k - 1], x[k - 1])  # the same quantile, mirrored
            u *= dc
            u += c
            yk = ndtri(u)
            yk *= sign
            np.clip(yk, -40.0, 40.0, out=y[k - 1])  # 0 or 1 only where the mass is 0
            s = chol[k, :k] @ y[:k]
        tl, th = lo[k] - s, hi[k] - s
        if chol[k, k] == 0.0:  # no spread left: mass 1 inside the interval, 0 outside
            inside = (tl <= 0.0) & (th >= 0.0)
            tl, th = np.where(inside, -np.inf, 0.0), np.where(inside, np.inf, 0.0)
        up = tl > -th
        sign = np.where(up, -1.0, 1.0)
        phi = ndtr(np.where(up, [-th, -tl], [tl, th]))
        c, dc = phi[0], phi[1] - phi[0]
        pv *= dc
    return pv
