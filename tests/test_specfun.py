import math
import subprocess
import sys
import warnings
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contris import specfun
from contris.errors import DomainError
from contris.specfun import (
    GAUSS_2F1_AT_ONE,
    bessel_j0,
    gauss_2f1_half,
    reg_lower_gamma,
    sinc_norm,
)

# frozen oracle values (ascending series / erf, evaluated at 40 digits)
J0_AT_ONE = 0.76519768655796655145
J0_FIRST_ZERO = 2.4048255576957727686
F21_AT_QUARTER = 1.063544409973364951
ERF_SQRT_HALF = 0.68268949213708589717


def j0_series_oracle(x: float) -> float:
    """Ascending series for J0 in extended precision.

    The working precision grows with x because the series cancels terms as
    large as e^x before settling.
    """
    with mp.workdps(60 + int(0.45 * abs(x))):
        xm = mp.mpf(x)
        q = -(xm / 2) ** 2
        term = mp.mpf(1)
        total = mp.mpf(1)
        k = 0
        while abs(term) > mp.mpf(10) ** -40:
            k += 1
            term *= q / (k * k)
            total += term
        return float(total)


class TestSincNorm:
    def test_removable_singularity(self):
        assert sinc_norm(0.0) == 1.0

    def test_half(self):
        assert sinc_norm(0.5) == pytest.approx(2.0 / math.pi, rel=1e-14)

    def test_first_zero(self):
        assert abs(sinc_norm(1.0)) < 1e-15

    @given(st.floats(-100, 100))
    def test_even_and_bounded(self, x):
        assert sinc_norm(x) == sinc_norm(-x)
        assert abs(sinc_norm(x)) <= 1.0 + 1e-15

    def test_integral_arguments_and_infinity(self):
        # every float of magnitude 2^52 and above is an integer, where
        # sin(pi x) = 0; np.sinc returns NaN once pi x overflows
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = sinc_norm([math.inf, -math.inf, 2.0 ** 52, -3e300])
        assert np.array_equal(out, np.zeros(4))
        xs = np.linspace(-2.0 ** 52, 2.0 ** 52, 1001)[1:-1]
        assert np.array_equal(sinc_norm(xs), np.sinc(xs))
        assert math.isnan(sinc_norm(math.nan))


class TestBesselJ0:
    def test_at_zero(self):
        assert bessel_j0(0.0) == 1.0

    def test_at_one(self):
        assert bessel_j0(1.0) == pytest.approx(J0_AT_ONE, abs=1e-12)

    def test_first_zero(self):
        assert abs(bessel_j0(J0_FIRST_ZERO)) < 1e-9

    def test_series_oracle_grid(self):
        xs = np.linspace(0.0, 50.0, 1000)
        ref = np.array([j0_series_oracle(x) for x in xs])
        assert np.max(np.abs(bessel_j0(xs) - ref)) < 1e-10

    def test_mpmath_dense_grid(self):
        # absolute error on [0, 1e3], with extra points within +-1 of the
        # crossover x = 12 between the two series
        xs = np.concatenate([np.linspace(0.0, 1e3, 10001),
                             12.0 + np.linspace(-1.0, 1.0, 401),
                             np.nextafter(12.0, [0.0, 13.0])])
        with mp.workdps(30):
            ref = np.array([float(mp.besselj(0, x)) for x in xs])
        assert np.max(np.abs(bessel_j0(xs) - ref)) <= 1e-14

    def test_fit_tool_reproduces_coefficients(self):
        tool = Path(__file__).resolve().parents[1] / "tools" / "fit_j0.py"
        result = subprocess.run([sys.executable, str(tool), "--check"],
                                capture_output=True, text=True, timeout=60)
        assert result.returncode == 0, result.stderr

    def test_large_arguments(self):
        # spot checks across the asymptotic branch out to 1e3
        for x in [12.5, 30.0, 101.3, 500.0, 1000.0]:
            assert bessel_j0(x) == pytest.approx(j0_series_oracle(x), abs=1e-10)

    @given(st.floats(-60, 60))
    def test_even_and_bounded(self, x):
        assert bessel_j0(x) == bessel_j0(-x)
        assert abs(bessel_j0(x)) <= 1.0 + 1e-12

    def test_array_input(self):
        xs = np.array([0.0, 1.0, 20.0])
        out = bessel_j0(xs)
        assert out.shape == xs.shape
        assert out[0] == 1.0

    def test_infinity_and_nan(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert bessel_j0(math.inf) == 0.0 and bessel_j0(-math.inf) == 0.0
            out = bessel_j0([1.0, math.inf, -math.inf])
        assert out[0] == bessel_j0(1.0) and np.all(out[1:] == 0.0)
        for x in (math.nan, [1.0, math.nan]):
            with pytest.raises(DomainError):
                bessel_j0(x)

    def test_blocked_array_matches_scalar_calls_bit_for_bit(self):
        # 9e4 elements of a 2-D array in one call, over both branches; every
        # 7th element is checked, which keeps the scalar calls to ~1 s
        xs = np.random.default_rng(7).uniform(-40.0, 40.0, (300, 300))
        out = bessel_j0(xs)
        assert out.shape == xs.shape
        sample = xs.ravel()[::7]
        assert np.array_equal(out.ravel()[::7], [bessel_j0(x) for x in sample])


class TestGauss2F1Half:
    def test_at_origin(self):
        assert gauss_2f1_half(0.0) == 1.0

    def test_at_one(self):
        assert gauss_2f1_half(1.0) == pytest.approx(GAUSS_2F1_AT_ONE, rel=1e-15)

    def test_at_quarter(self):
        assert gauss_2f1_half(0.25) == pytest.approx(F21_AT_QUARTER, rel=1e-10)

    @staticmethod
    def mp_2f1(zs):
        with mp.workdps(40):
            return np.array([float(mp.hyp2f1(-0.5, -0.5, 1, float(z))) for z in zs])

    def test_near_endpoint(self):
        zs = 1.0 - 10.0 ** -np.arange(1.0, 17.0)
        assert np.max(np.abs(gauss_2f1_half(zs) / self.mp_2f1(zs) - 1.0)) <= 1e-14

    def test_mpmath_dense_grid(self):
        zs = np.linspace(0.0, 1.0, 1025)
        assert np.max(np.abs(gauss_2f1_half(zs) / self.mp_2f1(zs) - 1.0)) <= 1e-14

    def test_blocked_array_matches_scalar_calls(self):
        # 9e4 elements of a 2-D array in one call, the endpoints and values
        # near 1 among them; every 7th element is checked
        rng = np.random.default_rng(11)
        zs = rng.uniform(0.0, 1.0, (300, 300))
        zs[0, :49] = 1.0 - 10.0 ** -rng.uniform(1.0, 16.0, 49)
        zs[0, 49:51] = (0.0, 1.0)
        out = gauss_2f1_half(zs)
        assert out.shape == zs.shape
        sample = zs.ravel()[::7]
        assert np.array_equal(out.ravel()[::7], [gauss_2f1_half(z) for z in sample])

    def test_monotone_and_bounded(self):
        zs = np.linspace(0.0, 1.0, 513)
        vals = gauss_2f1_half(zs)
        assert np.all(np.diff(vals) >= -1e-14)
        assert np.all(vals >= 1.0 - 1e-14)
        assert np.all(vals <= GAUSS_2F1_AT_ONE + 1e-14)

    @given(st.floats(0, 1), st.floats(0, 1))
    @settings(max_examples=50)
    def test_pairwise_monotone(self, z1, z2):
        lo, hi = min(z1, z2), max(z1, z2)
        assert gauss_2f1_half(lo) <= gauss_2f1_half(hi) + 1e-13

    @pytest.mark.parametrize("z", [-0.1, 1.1, -1e-9, math.nan, [0.5, math.nan]])
    def test_domain(self, z):
        with pytest.raises(DomainError):
            gauss_2f1_half(z)


class TestRegLowerGamma:
    def test_exponential_cdf(self):
        for x in [0.1, 1.0, 3.7, 20.0]:
            assert reg_lower_gamma(1.0, x) == pytest.approx(1.0 - math.exp(-x), rel=1e-12)

    def test_at_zero(self):
        assert reg_lower_gamma(3.2, 0.0) == 0.0

    def test_half_half(self):
        assert reg_lower_gamma(0.5, 0.5) == pytest.approx(ERF_SQRT_HALF, rel=1e-12)

    @pytest.mark.parametrize("a", [0.3, 1.0, 2.7, 17.0, 250.0])
    def test_cdf_contract(self, a):
        xs = np.linspace(0.0, a + 40.0 * math.sqrt(a), 150)
        vals = [reg_lower_gamma(a, x) for x in xs]
        assert vals[0] == 0.0
        assert all(0.0 <= v <= 1.0 for v in vals)
        assert all(b >= c - 1e-13 for b, c in zip(vals[1:], vals[:-1]))
        assert vals[-1] >= 1.0 - 1e-8

    # 437 is about the largest gamma shape the default sweep fits; 9.5 and
    # 10 lie either side of the switch to Stirling's series
    @pytest.mark.parametrize("a", [0.3, 1.0, 2.7, 9.5, 10.0, 17.0, 250.0, 437.0, 1000.0])
    def test_array_against_mpmath(self, a):
        xs = np.concatenate([
            np.linspace(0.0, a + 40.0 * math.sqrt(a), 300),
            a * np.logspace(-6.0, 0.5, 200)])
        with mp.workdps(40):
            ref = np.array([float(mp.gammainc(a, 0, x, regularized=True)) for x in xs])
        assert np.max(np.abs(reg_lower_gamma(a, xs) - ref)) <= 5e-15

    def test_stirling_coefficients(self):
        # B_2k / (2k (2k - 1)), k = 1..7, each rounded to double
        for k, coef in enumerate(specfun._STIRLING, start=1):
            with mp.workdps(40):
                ref = float(mp.bernoulli(2 * k) / (2 * k * (2 * k - 1)))
            assert abs(coef - ref) <= math.ulp(ref), k

    def test_near_float_maximum(self):
        # (x - a) / a overflows for a < 1 unless clipped before log1p
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert reg_lower_gamma(0.3, 1e308) == 1.0
            assert reg_lower_gamma(5.0, 1.7e308) == 1.0

    @pytest.mark.parametrize("a", [0.3, 2.7, 250.0])
    def test_array_matches_scalar_calls(self, a):
        xs = np.linspace(0.0, a + 40.0 * math.sqrt(a), 400).reshape(20, 20)
        out = reg_lower_gamma(a, xs)
        assert out.shape == xs.shape
        assert np.array_equal(out, [[reg_lower_gamma(a, float(x)) for x in row] for row in xs])
        assert isinstance(reg_lower_gamma(a, 1.0), float)

    # P(100, 100) sums 90 series terms; P(100, 101.5) takes 39 fraction steps
    @pytest.mark.parametrize("x", [100.0, 101.5], ids=["series", "fraction"])
    def test_unconverged_loop_raises(self, monkeypatch, x):
        monkeypatch.setattr(specfun, "_MAX_TERMS", 20)
        with pytest.raises(DomainError, match="a = 100.0 within 20 terms"):
            reg_lower_gamma(100.0, x)

    def test_converged_loop_unchanged_under_term_limit(self, monkeypatch):
        # 13 series terms at P(1, 0.5), 14 at P(0.5, 0.5)
        expected = [reg_lower_gamma(1.0, 0.5), reg_lower_gamma(0.5, 0.5)]
        monkeypatch.setattr(specfun, "_MAX_TERMS", 20)
        assert [reg_lower_gamma(1.0, 0.5), reg_lower_gamma(0.5, 0.5)] == expected

    def test_at_infinity(self):
        assert reg_lower_gamma(2.0, math.inf) == 1.0
        assert np.array_equal(reg_lower_gamma(0.3, [0.0, math.inf]), [0.0, 1.0])

    def test_domain(self):
        for a, x in [(0.0, 1.0), (-1.0, 1.0), (1.0, -0.5), (2.0, math.nan),
                     (math.nan, 1.0), (math.inf, 1.0), (2.0, [1.0, math.nan])]:
            with pytest.raises(DomainError):
                reg_lower_gamma(a, x)
