"""The normal and chi-square distribution functions, the normal quantile, the
normal mass of an interval and the Student t quantile that the goodness-of-fit
battery, the probabilities of intervals and boxes and the t interval need, on
numpy and ``math`` alone, the 12-node Gauss-Legendre rule that ``normal_mass`` and
``_box._adaptive_legendre`` share, the record of an estimate with no closed form,
:func:`_blockwise`, the one block loop behind the package's row kernels, and :func:`_cpus`.

* :func:`ndtr`: the rational approximations of Cephes' ``ndtr.c``
  (Moshier, *Methods and Programs for Mathematical Functions*, 1989; the
  form of Cody, *Math. Comp.* 23, 1969) for ``erf`` near 0 and
  ``exp(x^2) erfc(x)`` in the tails, with ``exp(-z^2/2)`` taken from a split
  ``z^2`` so the tail loses no digits to the rounding of ``z^2``.
* :func:`chdtr` at integer degrees of freedom: Abramowitz & Stegun §26.4,
  the finite sum in the upper tail and the power series in the lower tail.
* :func:`stdtrit` at integer degrees of freedom: closed forms for 1 and 2,
  the Cornish-Fisher expansion (A&S 26.7.5) wherever its first omitted term
  is below 1e-16 (every ``p >= 1e-300`` from ``nu = 3.5e5``, the centre from
  ``nu = 1000``), and elsewhere Newton's method in log space on A&S 26.7.3-4:
  the centre mass as a finite sum of ``nu / 2`` terms, the tail as its positive
  remainder, which ``chdtr`` has in the same shape.  Both sums lengthen and lose
  digits with ``nu``: forced past the switch they cost up to 25 ms and 1.7e-12 at
  ``nu = 1e5``, 170 ms and 2e-11 at ``nu = 1e6`` (one call, 2-core Xeon), which is
  why the expansion takes over by its error term, not at a fixed ``nu``.
* :func:`ndtri`: Wichura's AS241 (PPND16, *Appl. Statist.* 37, 1988), the normal
  quantile to about 1e-16 relative from ``p = 1e-300`` to ``1 - 2**-53``.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError

_SQRT2 = math.sqrt(2.0)
_SQRT_HALF = math.sqrt(0.5)
_SQRT2_REST = -9.667293313452913e-17  # sqrt(2) - _SQRT2
_SQRT2_SPLIT = (1.4142135679721832, -5.599088082064441e-09)  # _SQRT2 in two 26-bit halves
_TWO_OVER_SQRT_PI = 2.0 / math.sqrt(math.pi)
# the 12-node Gauss-Legendre rule on [-1, 1]: nodes +-t, weights over sqrt(2 pi)
_GL_RULE = ((0.1252334085114689, 0.09939529061207912), (0.3678314989981802, 0.0931500449833261),
            (0.5873179542866175, 0.08105207652019089), (0.7699026741943047, 0.06386201343193229),
            (0.9041172563704749, 0.042662618577164545), (0.9815606342467192, 0.01882023627673971))

# rows per block of every row kernel: a block's temporaries stay in cache, recycled by the
# allocator instead of faulted in, and its (n, D) @ (D, d) products on one OpenBLAS thread.
# Inside a block no elementwise operation broadcasts a (D,) or (n, 1) operand along the
# short row axis, where numpy's inner loop is D long: such work runs column by column or
# on coordinate-major (D, n) arrays, and each product is the row-major product or that
# product transposed (the same BLAS call, so the same bits at every n, one row included)
_BLOCK = 16384

# Cephes ndtr.c, coefficients from the highest power down:
# erf(x) = x T(x^2) / U(x^2) for |x| <= 1, and
# erfc(x) = exp(-x^2) P(x) / Q(x) for 1 <= x < 8, exp(-x^2) R(x) / S(x) beyond
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
          7.00332514112805075473e3, 5.55923013010394962768e4)
_ERF_U = (1.0, 3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
          2.26290000613890934246e4, 4.92673942608635921086e4)
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
           4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_ERFC_Q = (1.0, 1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
           9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)
_ERFC_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
           6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0)
_ERFC_S = (1.0, 2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
           1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0)


def _horner(coef, x):
    """``sum(coef[k] * x**(n - k))`` by Horner's rule, in place after the first product."""
    out = np.multiply(x, coef[0])
    out += coef[1]
    for c in coef[2:]:
        out *= x
        out += c
    return out


def _ratio(num, den, x):
    out = _horner(num, x)
    out /= _horner(den, x)
    return out


def _blockwise(kernel, rows, *args):
    """``kernel(block, *args)`` over consecutive blocks of ``_BLOCK`` rows (the first axis),
    written into one array laid out as the first block's result (a coordinate-major result
    ``(D, n).T`` stays coordinate-major); at most one block is one direct call.  A row's
    result must not depend on its block, so a lone last row joins the block before it, which
    then has ``_BLOCK + 1`` rows: alone, BLAS would take it down its matrix-vector path."""
    if len(rows) <= _BLOCK + 1:
        return kernel(rows, *args)
    first = kernel(rows[:_BLOCK], *args)
    out = np.empty_like(first, shape=(len(rows),) + first.shape[1:])
    out[:_BLOCK] = first
    cuts = [*range(_BLOCK, len(rows) - 1, _BLOCK), len(rows)]
    for start, stop in zip(cuts, cuts[1:]):
        out[start:stop] = kernel(rows[start:stop], *args)
    return out


def _cpus():
    """How many CPUs this process may run on: the one rule by which the CSV writer's peer
    process and the goodness-of-fit battery's second thread decide whether to start."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


# --------------------------------------------------------------------------
# the normal distribution function
# --------------------------------------------------------------------------

def ndtr(z):
    """Standard normal distribution function, elementwise: within about 1e-15
    relative from ``z = -37`` up (the result is 0 below about ``-38.5``)."""
    return _blockwise(_ndtr_block, np.asarray(z, dtype=float).ravel()).reshape(np.shape(z))


def _ndtr_block(z):
    # 1/2 + erf(z / sqrt 2) / 2, where |z| < sqrt 2; the tails are overwritten below.  The
    # central ratio runs on every value: gathering and scattering the central ones alone
    # costs more than the ratio on the tails (about 16 % of normal values)
    x = np.clip(z, -_SQRT2, _SQRT2)
    x *= _SQRT_HALF
    out = _ratio(_ERF_T, _ERF_U, x * x)
    out *= x
    out *= 0.5
    out += 0.5
    tails = np.flatnonzero(np.abs(z) >= _SQRT2)
    if tails.size:
        zt = z[tails]
        p = _ndtr_lower(np.abs(zt))
        out[tails] = np.subtract(1.0, p, out=p, where=zt > 0.0)
    return out


def _ndtr_lower(w):
    """``ndtr(-w)`` for ``w >= sqrt 2``: ``exp(-w^2/2) * erfcx(w / sqrt 2) / 2``."""
    w = np.minimum(w, 40.0)  # ndtr(-40) is below the smallest float
    x = w * _SQRT_HALF
    out = _ratio(_ERFC_P, _ERFC_Q, x)
    far = x >= 8.0
    if far.any():
        out[far] = _ratio(_ERFC_R, _ERFC_S, x[far])
    # exp(-w^2/2) as exp(-m^2/2) exp(-(w - m)(w + m)/2) with m = w to 1/16, whose
    # square is exact: the rounding of w^2 itself would cost 1.5e-13 at w = 37
    m = np.trunc(w * 16.0)
    m *= 0.0625
    e = w - m
    e *= w + m
    e *= -0.5
    out *= np.exp(e, out=e)
    m *= m
    m *= -0.5
    out *= np.exp(m, out=m)
    out *= 0.5
    return out


# Wichura's AS241 (PPND16), coefficients from the highest power down:
# q A(r) / B(r) with r = 0.180625 - q^2 for |q| = |p - 1/2| <= 0.425, and in the tails,
# with r = sqrt(-ln min(p, 1 - p)), C(r - 1.6) / D(r - 1.6) to r = 5, E(r - 5) / F(r - 5) beyond
_AS241_A = (2.5090809287301226727e3, 3.3430575583588128105e4, 6.7265770927008700853e4,
            4.5921953931549871457e4, 1.3731693765509461125e4, 1.9715909503065514427e3,
            1.3314166789178437745e2, 3.3871328727963666080e0)
_AS241_B = (5.2264952788528545610e3, 2.8729085735721942674e4, 3.9307895800092710610e4,
            2.1213794301586595867e4, 5.3941960214247511077e3, 6.8718700749205790830e2,
            4.2313330701600911252e1, 1.0)
_AS241_C = (7.74545014278341407640e-4, 2.27238449892691845833e-2, 2.41780725177450611770e-1,
            1.27045825245236838258e0, 3.64784832476320460504e0, 5.76949722146069140550e0,
            4.63033784615654529590e0, 1.42343711074968357734e0)
_AS241_D = (1.05075007164441684324e-9, 5.47593808499534494600e-4, 1.51986665636164571966e-2,
            1.48103976427480074590e-1, 6.89767334985100004550e-1, 1.67638483018380384940e0,
            2.05319162663775882187e0, 1.0)
_AS241_E = (2.01033439929228813265e-7, 2.71155556874348757815e-5, 1.24266094738807843860e-3,
            2.65321895265761230930e-2, 2.96560571828504891230e-1, 1.78482653991729133580e0,
            5.46378491116411436990e0, 6.65790464350110377720e0)
_AS241_F = (2.04426310338993978564e-15, 1.42151175831644588870e-7, 1.84631831751005468180e-5,
            7.86869131145613259100e-4, 1.48753612908506148525e-2, 1.36929880922735805310e-1,
            5.99832206555887937690e-1, 1.0)


def ndtri(p):
    """Standard normal quantile, elementwise, for ``0 <= p <= 1``: within about 1e-15
    relative from ``p = 1e-300`` to ``1 - 2**-53``; ``-inf`` at 0 and ``inf`` at 1."""
    return _blockwise(_ndtri_block, np.asarray(p, dtype=float).ravel()).reshape(np.shape(p))


def _ndtri_block(p):
    q = p - 0.5
    r = q * q
    np.subtract(0.180625, r, out=r)
    out = _ratio(_AS241_A, _AS241_B, r)
    out *= q
    tails = np.flatnonzero(np.abs(q) > 0.425)
    if tails.size:
        pt = p[tails]
        m = np.minimum(pt, 1.0 - pt)
        # at m = 0 the tiniest float stands in, and the infinity is set after
        r = np.sqrt(-np.log(np.maximum(m, 5e-324)))
        x = _ratio(_AS241_C, _AS241_D, r - 1.6)
        far = np.flatnonzero(r > 5.0)
        if far.size:
            x[far] = _ratio(_AS241_E, _AS241_F, r[far] - 5.0)
        x[m == 0.0] = np.inf
        out[tails] = np.copysign(x, q[tails])
    return out


def normal_mass(lo, hi, width) -> float:
    """``P(lo < Z < hi)`` for a standard normal ``Z``, with ``width = hi - lo`` as exact
    as the caller knows it.  Where ``width * max(1, |lo|, |hi|) <= 1`` the density
    changes by at most a factor e, and the Gauss-Legendre rule integrates it to
    rounding; elsewhere a difference of ``erfc`` values, of upper tails when ``lo > 0``."""
    if width * max(1.0, abs(lo), abs(hi)) <= 1.0:  # at z = c + step * u, c the end nearer 0
        c, step = (lo, 0.5 * width) if abs(lo) <= abs(hi) else (hi, -0.5 * width)
        # -z^2/2 = -c^2/2 + u (a + u b), exp(-c^2/2) from a split square as in ndtr
        a, b, m = -step * c, -0.5 * step * step, math.trunc(16.0 * c) / 16.0
        mass = sum(w * math.exp(u * (a + u * b)) for t, w in _GL_RULE for u in (1 - t, 1 + t))
        return abs(step) * math.exp(-0.5 * m * m) * math.exp(-0.5 * (c - m) * (c + m)) * mass
    if lo > 0.0:
        return 0.5 * (_erfc_half(lo) - _erfc_half(hi))
    return 0.5 * (_erfc_half(-hi) - _erfc_half(-lo))


def _erfc_half(z) -> float:
    """``erfc(z / sqrt 2)`` with the rounding of ``x = z / sqrt 2`` corrected from ``z = 2`` up,
    where it costs about ``z**2 eps`` relative (1.2e-13 at z = 30; under 4 eps below 2).  The
    rest ``e = z / sqrt 2 - x`` is ``z - x sqrt 2`` over ``sqrt 2``, with ``x sqrt 2`` exact by
    Dekker's product on Veltkamp's splits, and ``erfc(x + e) = erfc(x) - e 2 exp(-x**2) / sqrt
    pi`` to first order."""
    x = z / _SQRT2
    if not 2.0 <= z < 40.0:  # erfc(x) is 0 from z = 38.6, and at an infinite end
        return math.erfc(x)
    s_high, s_low = _SQRT2_SPLIT
    c = 134217729.0 * x  # 2**27 + 1: Veltkamp's split of x
    high = c - (c - x)
    low = x - high
    p = x * _SQRT2
    q = ((high * s_high - p) + high * s_low + low * s_high) + low * s_low  # x * _SQRT2 - p
    e = ((z - p) - q - x * _SQRT2_REST) * _SQRT_HALF
    return math.erfc(x) - e * _TWO_OVER_SQRT_PI * math.exp(-x * x)


# --------------------------------------------------------------------------
# the chi-square distribution function
# --------------------------------------------------------------------------

def chdtr(d, x):
    """Chi-square distribution function with integer ``d >= 1`` degrees of
    freedom, elementwise (0 for ``x <= 0``): within about 5e-15 absolute, and
    relative in the lower tail, up to ``d = 40`` (1e-13 at ``d = 300``); the lower
    tail keeps its relative accuracy while ``(x / (d + 2))^(d/2)`` is a normal float."""
    h = np.clip(x, 0.0, 1e300)  # NaN stays NaN
    h *= 0.5
    if d == 2:
        return -np.expm1(-h)
    a = 0.5 * d
    # lower tail, h < a + 1: e^-h h^a / Gamma(a + 1) * sum_m h^m / ((a + 1)...(a + m)),
    # a polynomial in y = h / (a + 1) < 1 whose coefficients fall from 1; the sum is at
    # least 1, so the terms stop changing it below 2^-60
    series = [1.0]
    while series[-1] > 2.0**-60:
        series.append(series[-1] * (a + 1.0) / (a + len(series)))
    # upper tail: 1 - e^-h sum_k h^(a-1-k) / Gamma(a - k) over the d // 2 exponents
    # a - 1, a - 2, ... >= 0, less erfc(sqrt h) at odd d; a polynomial in v = (a - 1) / h
    finite = [1.0][:d // 2]
    for k in range(1, d // 2):
        finite.append(finite[-1] * (a - k) / (a - 1.0))
    consts = (a, series[::-1], finite[::-1], d % 2 == 1,
              a * math.log(a + 1.0) - math.lgamma(a + 1.0), math.lgamma(a))
    return _blockwise(_chdtr_block, h.ravel(), *consts).reshape(h.shape)


def _chdtr_block(h, a, series, finite, odd, ln_scale, ln_gamma_a):
    out = np.empty_like(h)
    lower = h < a + 1.0
    i = np.flatnonzero(lower)
    if i.size:
        y = h[i] / (a + 1.0)
        p = np.power(y, a)
        p *= np.exp(ln_scale - h[i])
        p *= _horner(series, y)
        out[i] = p
    j = np.flatnonzero(~lower)
    if j.size:
        hu = h[j]
        # erfc(sqrt h) at odd d, as 2 ndtr(-sqrt(2h)) with 2h >= 3 here
        q = 2.0 * _ndtr_lower(np.sqrt(2.0 * hu)) if odd else np.zeros_like(hu)
        if finite:
            top = np.log(hu)
            top *= a - 1.0
            top -= hu
            top -= ln_gamma_a
            np.exp(top, out=top)
            if len(finite) > 1:
                top *= _horner(finite, (a - 1.0) / hu)
            q += top
        out[j] = 1.0 - q
    return out


# --------------------------------------------------------------------------
# the Student t quantile
# --------------------------------------------------------------------------

def _ln_gamma_half_ratio(a):
    """``ln Gamma(a + 1/2) - ln Gamma(a)`` to about 1e-15 absolute for every ``a > 0``
    (the difference of two ``lgamma`` values loses it all at ``a`` near 1e6)."""
    shift = 0.0
    while a < 30.0:  # Gamma(a + 3/2) / Gamma(a + 1) = (a + 1/2) / a * Gamma(a + 1/2) / Gamma(a)
        shift -= math.log1p(0.5 / a)
        a += 1.0

    def stirling(z):  # ln Gamma(z) - ((z - 1/2) ln z - z + ln(2 pi) / 2)
        r = 1.0 / (z * z)
        return (1.0 / 12.0 - r * (1.0 / 360.0 - r * (1.0 / 1260.0 - r / 1680.0))) / z

    return (shift + a * math.log1p(0.5 / a) - 0.5 + 0.5 * math.log(a)
            + stirling(a + 0.5) - stirling(a))


def _newton_in_log(residual, s):
    """Root ``s > 0`` of ``residual(s) -> (r, dr / d ln s)`` by Newton's method in ``ln s``.

    Each residual here is a log mass less its target; in both tails that is
    nearly linear in ``ln s``, and concave, so a step never lands far off."""
    for _ in range(100):
        r, slope = residual(s)
        step = -r / slope
        s *= math.exp(step)
        if abs(step) < 1e-10:  # the step was quadratic: s is within rounding now
            return s
    raise NumericalError(f"quantile iteration did not converge (last step {step!r})")


def _t_residual(nu, p):
    """Residual of ``ln P(T <= -s) = ln p`` (or ``ln P(-s < T <= 0) = ln(1/2 - p)``
    for ``p >= 1/4``, where ``1/2 - p`` is exact) and its slope in ``ln s``.

    A&S 26.7.3-4: with ``c = nu / (nu + s^2)``, ``theta = atan(s / sqrt nu)``,
    ``m = nu // 2`` and ``g_0 = 1``, ``g_k / g_(k-1) = (2k - 1 + odd) / (2k + odd)``,
    ``P(-s < T <= 0) = F sum_(k<m) g_k c^k``, plus ``theta / pi`` at odd ``nu``, with
    ``F = sin(theta) / 2`` at even ``nu`` and ``sin(theta) cos(theta) / pi`` at odd.  The
    rest of the series is ``P(T <= -s)``, and ``F g_m c^m = s f(s) / nu`` for the density
    ``f``.  The tail is that remainder where ``p < 0.05``, and ``1/2`` less the centre mass
    elsewhere: that loses under a digit, and the Newton branch never has ``m`` past about
    840 there, where the remainder would need about ``37.5 nu / s^2`` terms."""
    m, odd = nu // 2, nu % 2
    centre = p >= 0.25
    target = math.log(0.5 - p if centre else p)
    ln_density0 = _ln_gamma_half_ratio(0.5 * nu) - 0.5 * math.log(math.pi * nu)

    def series(k0, n, c):  # sum_(j<n) g_(k0+j) c^j / g_k0: n terms, each below c times the last
        r = np.arange(2 * k0 + 2 + odd, 2 * (k0 + n) + odd, 2, dtype=float)  # 2k + odd
        r = (r - 1.0) / r
        r *= c
        return 1.0 + float(np.cumprod(r, out=r).sum())

    def residual(s):
        q = s * s / nu
        l1, c = math.log1p(q), 1.0 / (1.0 + q)  # l1 = -ln c
        ln_s_density = math.log(s) + ln_density0 - 0.5 * (nu + 1) * l1
        if p < 0.05:  # past n terms the rest is c^n / (1 - c^n) of them at most: below 2^-54
            ln_mass = ln_s_density - math.log(nu) + math.log(series(m, math.ceil(37.5 / l1), c))
        else:
            theta = math.atan2(s, math.sqrt(nu))
            f = math.sin(theta) * (math.cos(theta) / math.pi if odd else 0.5)
            mid = f * series(0, m, c) + odd * theta / math.pi
            ln_mass = math.log(mid if centre else 0.5 - mid)
        slope = math.exp(ln_s_density - ln_mass)
        return ln_mass - target, slope if centre else -slope

    return residual


def stdtrit(nu, p):
    """The ``p`` quantile of Student's t with integer ``nu >= 1`` degrees of
    freedom, for ``0 <= p < 1/2``: taken from the lower tail, so ``p = 1e-300``
    keeps its digits; ``-inf`` past the float range and, its limit, at ``p = 0``."""
    if p == 0.0:
        return -math.inf
    if nu == 1:  # -cot(pi p)
        if p < 1e-300:  # cot x = 1/x to the last bit; 1/pi/p also keeps a subnormal p
            return -(1.0 / math.pi) / p
        return math.tan(math.pi * (p - 0.5)) if p >= 0.25 else -1.0 / math.tan(math.pi * p)
    if nu == 2:
        return (2.0 * p - 1.0) / (math.sqrt(2.0 * p) * math.sqrt(1.0 - p))
    w = -float(ndtri(p))
    # Cornish-Fisher where the first term left out, about 7e-5 ((z^2 + 4) / nu)^5, is below 1e-16
    if nu >= 250.0 * (w * w + 4.0):
        z, r = -w, 1.0 / nu
        z2 = z * z
        g1 = (z2 + 1.0) / 4.0
        g2 = ((5.0 * z2 + 16.0) * z2 + 3.0) / 96.0
        g3 = (((3.0 * z2 + 19.0) * z2 + 17.0) * z2 - 15.0) / 384.0
        g4 = ((((79.0 * z2 + 776.0) * z2 + 1482.0) * z2 - 1920.0) * z2 - 945.0) / 92160.0
        return z * (1.0 + r * (g1 + r * (g2 + r * (g3 + r * g4))))
    return -_newton_in_log(_t_residual(nu, p), w * (1.0 + (w * w + 1.0) / (4.0 * nu)))


# --------------------------------------------------------------------------
# the result record of an integrator
# --------------------------------------------------------------------------

@dataclass(slots=True, eq=False)
class _Estimate:
    """A number with no closed form: its ``value``, the ``method`` that computed it,
    the ``points`` (nodes or integrand evaluations) it took, its ``error`` estimate
    and the ``rounds`` of refinement."""

    value: object
    method: str
    points: int
    error: float
    rounds: int
