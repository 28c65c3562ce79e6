import math

import numpy as np
import pytest

from contris import quadrature
from contris.errors import DomainError, QuadratureFailure
from contris.quadrature import QuadratureSpec, adaptive_gauss_kronrod


class TestAdaptiveGaussKronrod:
    def test_polynomial_exact(self):
        value, err = adaptive_gauss_kronrod(lambda x: x ** 2, [0.0, 1.0])
        assert value == pytest.approx(1.0 / 3.0, rel=1e-14)
        assert err < 1e-12

    def test_sine(self):
        value, _ = adaptive_gauss_kronrod(np.sin, [0.0, math.pi])
        assert value == pytest.approx(2.0, rel=1e-12)

    def test_oscillatory(self):
        # needs adaptive refinement: ~60 periods across the interval
        value, _ = adaptive_gauss_kronrod(lambda x: np.cos(119.5 * x), [0.0, math.pi])
        assert value == pytest.approx(math.sin(119.5 * math.pi) / 119.5, rel=1e-10)

    def test_empty_interval(self):
        assert adaptive_gauss_kronrod(np.sin, [1.0, 1.0]) == (0.0, 0.0)

    def test_nonsense_rel_tol_rejected(self):
        # rel_tol >= 1 bounds nothing; the spec refuses it before any rule runs
        with pytest.raises(DomainError):
            QuadratureSpec(rel_tol=10.0)

    def test_budget_exhaustion(self, monkeypatch):
        monkeypatch.setattr(quadrature, "_MAX_SEGMENTS", 8)
        spec = QuadratureSpec(rel_tol=1e-13)
        with pytest.raises(QuadratureFailure) as info:
            adaptive_gauss_kronrod(
                lambda x: 1.0 / np.sqrt(np.abs(x - 1.0 / 3.0) + 1e-300), [0.0, 1.0], spec)
        assert math.isfinite(info.value.estimate)

    def test_kinked_integrand(self):
        value, _ = adaptive_gauss_kronrod(lambda x: np.abs(x - 0.5), [0.0, 0.5, 1.0])
        assert value == pytest.approx(0.25, rel=1e-12)

    def test_duplicate_breakpoints_skipped(self):
        value, _ = adaptive_gauss_kronrod(np.cos, [0.0, 0.7, 0.7, 1.0])
        assert value == pytest.approx(math.sin(1.0), rel=1e-12)

    @pytest.mark.parametrize("breakpoints", [
        [0.0, math.nan, 1.0], [0.0, 1.0, math.nan], [0.0, math.inf],
    ], ids=["nan_inside", "nan_last", "inf_last"])
    def test_non_finite_breakpoint_rejected(self, breakpoints):
        # a NaN edge fails both comparisons, so its intervals would be skipped
        with pytest.raises(DomainError):
            adaptive_gauss_kronrod(np.cos, breakpoints)


class TestQuadratureSpec:
    def test_defaults(self):
        spec = QuadratureSpec()
        assert spec.rel_tol == 1e-8 and spec.nodes_4d == 32

    @pytest.mark.parametrize("kwargs", [
        {"rel_tol": 0.0}, {"rel_tol": -1e-8}, {"nodes_4d": 4},
        {"rel_tol": 1.0}, {"rel_tol": math.inf}, {"rel_tol": math.nan},
        {"nodes_4d": 32.5}, {"nodes_4d": math.nan}, {"nodes_4d": 32.0},
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(DomainError):
            QuadratureSpec(**kwargs)
