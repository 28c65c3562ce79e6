"""Self-contained special-function kernels.

The four functions here are the only transcendental building blocks needed by
the closed-form statistics: the normalized sinc, the Bessel function J0, the
restricted Gauss hypergeometric 2F1(-1/2, -1/2; 1; z) on [0, 1], and the
regularized lower incomplete gamma function P(a, x).

Implementation notes
--------------------
* ``bessel_j0`` evaluates short fits made against mpmath by
  ``tools/fit_j0.py``.  For |x| <= 12, J0 is a degree-18 Chebyshev series
  in (x/12)^2, summed by Clenshaw's recurrence.  Beyond, J0 takes the
  modulus-phase form of Abramowitz & Stegun 9.2.17, J0 = M0 cos(theta0):
  sqrt(x) M0 and x (theta0 - x + pi/4) are degree-8 polynomials in
  (12/x)^2, summed by Horner's rule, so each element costs one cosine.
  Absolute error is below 2e-15 on [0, 1e3].
* ``gauss_2f1_half`` is closed form: 2F1 = (2/pi) [2E(z) - (1 - z) K(z)],
  with the complete elliptic integrals K and E from the arithmetic-geometric
  mean (Abramowitz & Stegun 17.6).  Nine AGM steps reach full precision on
  all of [0, 1), so there is no convergence test; z = 1 takes the exact
  Gauss-summation value 4/pi.
* ``reg_lower_gamma`` takes an array ``x`` and follows the classic series /
  continued-fraction split at x = a + 1: a series loop over the elements
  below the split and a modified Lentz loop over those above, each dropping
  elements as they converge.  The shared prefactor x^a e^-x / Gamma(a)
  is taken in logs as a log(x/a) - (x - a) + g(a), with the scalar
  g(a) = a log a - a - ln Gamma(a) from Stirling's series (DLMF 5.11.1,
  seven terms) from a = 10 on and from ``math.lgamma`` below.  Where
  |x - a| < a/2, log(x/a) is log1p((x - a)/a), so the terms that reach
  ~a log a never meet in the array part and nothing cancels near x = a.
  P is within 2e-15 of mpmath for shapes from 1e-3 to 1e3.

All functions are pure.  Apart from the shape ``a`` of ``reg_lower_gamma``,
they accept scalars or numpy arrays of any shape; a scalar argument gives
a float.  ``bessel_j0``, ``gauss_2f1_half`` and ``reg_lower_gamma`` raise
:class:`DomainError` on NaN; sinc(+-inf) = J0(+-inf) = 0 and P(a, inf) = 1.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError

__all__ = [
    "sinc_norm",
    "bessel_j0",
    "gauss_2f1_half",
    "reg_lower_gamma",
    "GAUSS_2F1_AT_ONE",
]

# Exact value of 2F1(-1/2,-1/2;1;1) by Gauss summation: Gamma(1)Gamma(2)/Gamma(3/2)^2.
GAUSS_2F1_AT_ONE = 4.0 / math.pi


# From 2^52 on every float is an integer, so sin(pi x) is exactly 0.
_SINC_INTEGRAL = 2.0 ** 52


def sinc_norm(x):
    """Normalized sinc sin(pi*x)/(pi*x), with sinc_norm(0) = 1.

    Accepts scalars or arrays; always in [-1, 1] (NaN passes through).
    Where |x| >= 2^52, x is an integer and the value is exactly 0, as is
    the limit at +-inf; below, the bits are ``np.sinc``'s.
    """
    arr = np.asarray(x, dtype=float)
    integral = np.abs(arr) >= _SINC_INTEGRAL
    return np.where(integral, 0.0, np.sinc(np.where(integral, 0.0, arr)))[()]


# Coefficients of J0, written by tools/fit_j0.py (which also checks them):
# J0 below the crossover as a Chebyshev series in u = 2 (x/12)^2 - 1, and
# above it sqrt(x) M0(x) and x (theta0(x) - x + pi/4) as polynomials in
# s = (12/x)^2, lowest power first.
_J0_CROSSOVER = 12.0
_J0_SMALL = (
    0.022693993532219042,
    -0.1531079146967097,
    0.11797479223272866,
    -0.02634356430873913,
    0.2558150206349379,
    -0.2622140996006976,
    0.12087152677762113,
    -0.033585400670970274,
    0.006391731997575882,
    -0.0008959418782227382,
    9.699406281444883e-05,
    -8.388165890824513e-06,
    5.943867351531636e-07,
    -3.520358344422562e-08,
    1.770892390763905e-09,
    -7.667379201172956e-11,
    2.8893672713887814e-12,
    -9.567692157274823e-14,
    2.8070565443618097e-15,
)
_J0_MODULUS = (
    0.7978845608028653,
    -0.00034630406284620813,
    3.9830978831584825e-06,
    -1.4505336058595643e-07,
    1.0849416418506373e-08,
    -1.3662439925335107e-09,
    2.4435977482562743e-10,
    -4.659437774805481e-11,
    5.696772956347805e-12,
)
_J0_PHASE = (
    -0.12499999999999988,
    0.00045211226849710726,
    -1.0106592413614647e-05,
    5.485786510917828e-07,
    -5.456136194356462e-08,
    8.543299315427734e-09,
    -1.7925054832447324e-09,
    3.7762399207326464e-10,
    -4.873200634996681e-11,
)


def _shaped(arr: np.ndarray, flat: np.ndarray):
    """``flat``, the values of the flattened ``arr``, as a float for a
    scalar ``arr`` and in ``arr``'s shape otherwise."""
    return float(flat[0]) if arr.ndim == 0 else flat.reshape(arr.shape)


def _clenshaw(coef, u):
    """sum_k coef[k] T_k(u) by Clenshaw's recurrence."""
    u2 = u + u
    b1 = b2 = 0.0
    for c in coef[:0:-1]:
        b1, b2 = u2 * b1 - b2 + c, b1
    return u * b1 - b2 + coef[0]


def _horner(coef, s):
    """sum_k coef[k] s^k by Horner's rule."""
    acc = coef[-1]
    for c in coef[-2::-1]:
        acc = acc * s + c
    return acc


def bessel_j0(x):
    """Bessel function of the first kind, order zero.

    Even in x; absolute error below 1e-14 on [0, 1e3] (2e-15 measured
    against mpmath); exactly 1 at 0 and 0 at +-inf.  Raises
    :class:`DomainError` on NaN.  Accepts scalars or arrays of any shape.

    For |x| <= 12 the value is a Chebyshev series in 2 (x/12)^2 - 1.  Above,
    J0 = M0 cos(theta0) with the modulus M0 = sqrt(J0^2 + Y0^2) and the phase
    theta0 = x - pi/4 + atan(Q0/P0) of the Hankel expansion; sqrt(x) M0 and
    x (theta0 - x + pi/4) are polynomials in (12/x)^2, truncated from their
    Chebyshev interpolants.
    """
    arr = np.asarray(x, dtype=float)
    ax = np.abs(arr.reshape(-1))
    if np.isnan(ax).any():
        raise DomainError("bessel_j0 is undefined at NaN")
    out = np.zeros_like(ax)  # the limit at +-inf, which the branches skip

    small = ax <= _J0_CROSSOVER
    xs = ax[small]
    if xs.size:
        u = xs * xs * (2.0 / (_J0_CROSSOVER * _J0_CROSSOVER)) - 1.0
        out[small] = _clenshaw(_J0_SMALL, u)

    large = ~small & (ax < math.inf)
    xl = ax[large]
    if xl.size:
        inv = 1.0 / xl
        s = inv * inv * (_J0_CROSSOVER * _J0_CROSSOVER)
        # the small phase terms first, so the argument is rounded only once
        phase = _horner(_J0_PHASE, s) * inv - 0.25 * math.pi
        out[large] = _horner(_J0_MODULUS, s) * np.sqrt(inv) * np.cos(xl + phase)
    return _shaped(arr, out)


# AGM steps for 2F1: the slowest start, z = 1 - 2^-53 (b_0 = 2^-26.5), has
# converged to the last bit after eight; the ninth is spare.
_AGM_STEPS = 9


def gauss_2f1_half(z):
    """Gauss hypergeometric 2F1(-1/2, -1/2; 1; z) for z in [0, 1].

    Monotone nondecreasing from 1 at z = 0 to 4/pi at z = 1.  Raises
    :class:`DomainError` outside [0, 1] and on NaN (the argument is a
    squared correlation magnitude and cannot leave the unit interval).

    Evaluated in closed form as (2/pi) [2E(z) - (1 - z) K(z)] with the
    complete elliptic integrals from the arithmetic-geometric mean: starting
    from a_0 = 1, b_0 = sqrt(1 - z), c_n = (a_{n-1} - b_{n-1}) / 2,

        2F1 = (1 - sum_{n>=1} 2^n c_n^2) / M(1, sqrt(1 - z))

    (Abramowitz & Stegun 17.6).  A fixed number of steps reaches full
    precision on all of [0, 1), so every element costs the same; relative
    error is a few ulp.  Accepts scalars or arrays of any shape.
    """
    arr = np.asarray(z, dtype=float)
    z = arr.reshape(-1)
    if not np.all((z >= 0.0) & (z <= 1.0)):
        raise DomainError("gauss_2f1_half requires 0 <= z <= 1")
    a = np.ones_like(z)
    b = np.sqrt(1.0 - z)
    f = np.ones_like(z)
    weight = 1.0
    for _ in range(_AGM_STEPS):
        c = 0.5 * (a - b)
        a, b = 0.5 * (a + b), np.sqrt(a * b)
        weight *= 2.0
        f -= weight * c * c
    f /= a
    # at z = 1 the AGM of (1, 0) is 0: K diverges and only the limit is exact
    f[z == 1.0] = GAUSS_2F1_AT_ONE
    return _shaped(arr, f)


# Stirling's series for ln Gamma (DLMF 5.11.1): the coefficients
# B_2k / (2k (2k - 1)) of a^-(2k-1), k = 1..7.  From a = 10 on, the first
# omitted term is below 3e-17; below it, ln Gamma comes from math.lgamma.
_STIRLING_FROM = 10.0
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156)


def _stirling_gap(a: float) -> float:
    """g(a) = a log a - a - ln Gamma(a), which is O(log a)."""
    if a < _STIRLING_FROM:
        return a * math.log(a) - a - math.lgamma(a)
    return 0.5 * math.log(a / (2.0 * math.pi)) - _horner(_STIRLING, 1.0 / (a * a)) / a


def _log_prefactor(a: float, x):
    """log(x^a e^-x / Gamma(a)), the factor shared by P(a, x) and Q(a, x).

    Written out as a ln x - x - ln Gamma(a), the terms reach ~a log a and
    cancel to O(log a) near x = a.  As a log(x / a) - (x - a) + g(a), they
    meet only in the scalar g, and where |x - a| < a/2, log(x / a) =
    log1p((x - a) / a) leaves a rounding of ~eps |x - a|.  The argument of
    log1p is clipped, because np.where evaluates both forms.
    """
    d = x - a
    half = 0.5 * a
    log_ratio = np.where(np.abs(d) < half, np.log1p(np.clip(d, -half, half) / a),
                         np.log(x) - math.log(a))
    return a * log_ratio - d + _stirling_gap(a)


# Term limit of the series and continued-fraction loops of P(a, x); both
# stop at a fixed 1e-15 relative step long before it up to a ~ 2e10 (the
# terms needed near x = a grow as sqrt(a)), and raise on reaching it.
_MAX_TERMS = 10 ** 6


def _unconverged(a: float) -> DomainError:
    return DomainError(f"reg_lower_gamma did not converge for a = {a} "
                       f"within {_MAX_TERMS} terms")


def reg_lower_gamma(a: float, x):
    """Regularized lower incomplete gamma P(a, x) = gamma(a, x) / Gamma(a).

    A CDF in x for fixed, finite a > 0: zero at x = 0, nondecreasing, 1 at
    x = inf.  Raises :class:`DomainError` for x < 0, for NaN ``a`` or
    ``x``, and where a loop below does not converge within its term limit.
    Accepts a scalar ``x`` (returns a float) or an array of any shape.

    Elements with x < a + 1 sum the series of P; the others evaluate the
    continued fraction of the complement Q by the modified Lentz method.
    Both loops run over all elements of their branch at once and drop each
    element as it converges, so an array call does the work of the scalar
    calls it replaces, at one interpreter pass per term instead of per
    element and term.
    """
    if not 0.0 < a < math.inf:
        raise DomainError("reg_lower_gamma requires finite a > 0")
    arr = np.asarray(x, dtype=float)
    flat = arr.reshape(-1)
    if not np.all(flat >= 0.0):
        raise DomainError("reg_lower_gamma requires x >= 0 (NaN is rejected)")
    out = np.where(flat == 0.0, 0.0, 1.0)
    inner = (flat > 0.0) & (flat < math.inf)
    series = inner & (flat < a + 1.0)
    fraction = inner & ~series
    for mask, branch in ((series, _lower_series), (fraction, _upper_fraction)):
        idx = np.flatnonzero(mask)
        if idx.size:
            xs = flat[idx]
            out[idx] = branch(a, xs, np.exp(_log_prefactor(a, xs)))
    return _shaped(arr, out)


def _lower_series(a, x, prefactor):
    """P(a, x) = prefactor * sum_k x^k / (a (a+1) ... (a+k)), for x < a + 1."""
    out = np.empty_like(x)
    idx = np.arange(x.size)
    ap = a
    term = np.full_like(x, 1.0 / a)
    total = term.copy()
    for _ in range(_MAX_TERMS):
        ap += 1.0
        term = term * (x / ap)
        total = total + term
        done = term < total * 1e-15  # both positive for 0 < x < a + 1
        if done.any():
            out[idx[done]] = total[done]
            keep = ~done
            idx, x, term, total = idx[keep], x[keep], term[keep], total[keep]
            if not idx.size:
                return np.minimum(1.0, out * prefactor)
    raise _unconverged(a)


def _upper_fraction(a, x, prefactor):
    """P(a, x) = 1 - Q(a, x), Q from its continued fraction, for x >= a + 1."""
    tiny = 1e-300
    out = np.empty_like(x)
    idx = np.arange(x.size)
    b = x + 1.0 - a
    c = np.full_like(x, 1.0 / tiny)
    d = 1.0 / b
    h = d
    for i in range(1, _MAX_TERMS):
        an = -i * (i - a)
        b = b + 2.0
        d = an * d + b
        d = np.where(np.abs(d) < tiny, tiny, d)
        c = b + an / c
        c = np.where(np.abs(c) < tiny, tiny, c)
        d = 1.0 / d
        delta = d * c
        h = h * delta
        done = np.abs(delta - 1.0) < 1e-15
        if done.any():
            out[idx[done]] = h[done]
            keep = ~done
            idx, b, c, d, h = idx[keep], b[keep], c[keep], d[keep], h[keep]
            if not idx.size:
                return np.maximum(0.0, 1.0 - prefactor * out)
    raise _unconverged(a)
