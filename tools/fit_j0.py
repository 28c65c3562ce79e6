"""Fit the coefficients of ``contris.specfun.bessel_j0`` against mpmath.

    python tools/fit_j0.py          # print the coefficient block of specfun.py
    python tools/fit_j0.py --check  # exit 1 unless specfun.py holds that block

Below the crossover X = 12, J0(x) is a Chebyshev series in u = 2 (x/X)^2 - 1.
Above it, J0 is taken in modulus-phase form (Abramowitz & Stegun 9.2.17),
J0(x) = M(x) cos(theta(x)) with M = sqrt(J0^2 + Y0^2) and
theta = atan2(Y0, J0).  In terms of the Hankel P0 and Q0,
M = sqrt(2 / (pi x)) sqrt(P0^2 + Q0^2) and theta = x - pi/4 + atan(Q0 / P0),
so sqrt(x) M and x (theta - x + pi/4) are smooth functions of s = (X/x)^2.
Each is fitted as a Chebyshev series in u = 2 s - 1 and written out as a
polynomial in s, whose coefficients are small enough for Horner's rule.

Coefficients are Chebyshev interpolants at NODES points of the first kind,
computed at 40 significant digits and rounded to double.  The series are
cut where the first dropped term is below 1e-16 on J0's scale (7e-17 below
the crossover, about 3e-18 above).  Needs mpmath, and numpy through
contris for --check; runs offline in under a second.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import mpmath as mp

CROSSOVER = 12
SMALL_DEGREE = 18
LARGE_DEGREE = 8
NODES = 48
DIGITS = 40


def _chebyshev(values, thetas):
    """Coefficients of the interpolant through values at cos(thetas)."""
    n = len(values)
    coef = []
    for k in range(n):
        c = 2 * mp.fsum(v * mp.cos(k * t) for v, t in zip(values, thetas)) / n
        coef.append(c / 2 if k == 0 else c)
    return coef


def _power_in_s(coef):
    """Monomial coefficients in s of sum_k coef[k] T_k(2 s - 1)."""
    def at(poly, i):
        return poly[i] if 0 <= i < len(poly) else 0

    basis = [[mp.mpf(1)], [mp.mpf(-1), mp.mpf(2)]]
    while len(basis) < len(coef):
        # T_{k+1} = 2 (2 s - 1) T_k - T_{k-1}
        t1, t0 = basis[-1], basis[-2]
        basis.append([4 * at(t1, i - 1) - 2 * at(t1, i) - at(t0, i)
                      for i in range(len(t1) + 1)])
    return [mp.fsum(c * at(poly, i) for c, poly in zip(coef, basis))
            for i in range(len(coef))]


def fit():
    """(small, modulus, phase) as tuples of floats: the Chebyshev series of
    J0 below the crossover, and the polynomials in s above it."""
    with mp.workdps(DIGITS):
        thetas = [mp.pi * (j + mp.mpf(1) / 2) / NODES for j in range(NODES)]
        # s = (x/X)^2 below the crossover and (X/x)^2 above it
        s = [(1 + mp.cos(t)) / 2 for t in thetas]
        small = [mp.besselj(0, CROSSOVER * mp.sqrt(v)) for v in s]
        modulus, phase = [], []
        for v in s:
            x = CROSSOVER / mp.sqrt(v)
            j0, y0 = mp.besselj(0, x), mp.bessely(0, x)
            shift = mp.atan2(y0, j0) - x + mp.pi / 4
            shift -= 2 * mp.pi * mp.nint(shift / (2 * mp.pi))
            modulus.append(mp.sqrt(x * (j0 * j0 + y0 * y0)))
            phase.append(x * shift)
        small = _chebyshev(small, thetas)[:SMALL_DEGREE + 1]
        modulus, phase = (_power_in_s(_chebyshev(values, thetas)[:LARGE_DEGREE + 1])
                          for values in (modulus, phase))
        return tuple(tuple(float(c) for c in coef) for coef in (small, modulus, phase))


NAMES = ("_J0_SMALL", "_J0_MODULUS", "_J0_PHASE")


def render(coefs) -> str:
    lines = []
    for name, coef in zip(NAMES, coefs):
        lines += [f"{name} = ("] + [f"    {c!r}," for c in coef] + [")"]
    return "\n".join(lines)


def check(coefs) -> bool:
    """True when specfun.py holds exactly these coefficients."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    from contris import specfun
    return (specfun._J0_CROSSOVER == CROSSOVER
            and all(tuple(getattr(specfun, name)) == coef
                    for name, coef in zip(NAMES, coefs)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="compare with specfun.py instead of printing")
    args = parser.parse_args(argv)
    coefs = fit()
    if not args.check:
        print(render(coefs))
        return 0
    if check(coefs):
        print("fit_j0: specfun.py coefficients match the fit")
        return 0
    print("fit_j0: specfun.py coefficients differ from the fit; paste the output "
          "of `python tools/fit_j0.py` over them", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
