import dataclasses
import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from contris.cli import default_system
from contris.errors import CovarianceRepairFailure, DegenerateGeometry, DomainError
from contris.sysmodel import (
    BsArrayConfig,
    CorrelationKind,
    IsotropicCorrelation,
    LinkBudget,
    SurfaceGeometry,
    bs_correlation_matrix,
    clip_spectrum,
    derive_gains,
    steering_vector,
)

from conftest import BETA_UR, WAVELENGTH, jakes, sinc_model

# frozen layout values for (d_rb, d_x, d_y) = (5, 30, 1)
D_D_DEFAULT = 30.0166620396072688
D_UR_DEFAULT = 25.0199920063936072
BETA_D_DEFAULT = 1.3671797810418105e-12
BETA_RB_DEFAULT = 6.48262638677105e-05


class TestSurfaceGeometry:
    def test_canonical_orders_sides(self):
        assert SurfaceGeometry(0.3, 1.2).canonical() == (1.2, 0.3)
        assert SurfaceGeometry(1.2, 0.3).canonical() == (1.2, 0.3)

    def test_area(self):
        assert SurfaceGeometry(2.0, 0.1).area_m2 == pytest.approx(0.2)

    @pytest.mark.parametrize("w,h", [(0.0, 1.0), (1.0, -2.0), (math.inf, 1.0),
                                     (1.0, math.nan)])
    def test_invalid(self, w, h):
        with pytest.raises(DomainError):
            SurfaceGeometry(w, h)

    # each side is positive and finite, but the area underflows to 0 or
    # overflows; at the float maximum the diagonal overflows as well
    @pytest.mark.parametrize("side", [1e-200, 1e200, sys.float_info.max])
    def test_area_out_of_range(self, side):
        with pytest.raises(DomainError, match="area"):
            SurfaceGeometry(side, side)

    # numpy sides whose area overflows raise the same error, and no warning
    @pytest.mark.parametrize("kind", [float, np.float64], ids=["float", "float64"])
    def test_area_overflow_warns_nothing(self, kind):
        side = kind(sys.float_info.max)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="area"):
                SurfaceGeometry(side, side)

    def test_largest_finite_area_keeps_a_finite_diagonal(self):
        geom = SurfaceGeometry(sys.float_info.max, 1.0)
        assert math.isfinite(geom.area_m2) and math.isfinite(geom.diagonal_m)


def gains_of(**link):
    """``derive_gains`` of the default system under the given link fields."""
    return derive_gains(dataclasses.replace(default_system(), link=LinkBudget(**link)))


# unit exponents and c0 = d0 = 1 make each gain 1/d, so the gains read back
# the layout distances
UNIT_LAW = dict(c0=1.0, d0_m=1.0, alpha_d=1.0, alpha_rb=1.0, alpha_ur=1.0)


class TestLinkDistances:
    """The distances that ``derive_gains`` takes from the layout."""

    def test_pythagorean_triangle(self):
        gains = gains_of(d_rb_m=4.0, d_x_m=0.0, d_y_m=3.0, **UNIT_LAW)
        assert 1.0 / gains.beta_d == pytest.approx(3.0)
        assert 1.0 / gains.beta_ur == pytest.approx(5.0)
        assert gains.beta_rb == 0.25

    def test_coincident_points_rejected(self):
        with pytest.raises(DegenerateGeometry):
            gains_of(d_rb_m=5.0, d_x_m=5.0, d_y_m=0.0)
        with pytest.raises(DegenerateGeometry):
            gains_of(d_rb_m=5.0, d_x_m=0.0, d_y_m=0.0)

    def test_default_layout(self):
        gains = gains_of(**UNIT_LAW)
        assert 1.0 / gains.beta_d == pytest.approx(D_D_DEFAULT, rel=1e-12)
        assert 1.0 / gains.beta_ur == pytest.approx(D_UR_DEFAULT, rel=1e-12)


class TestLinkBudget:
    @pytest.mark.parametrize("kwargs", [
        {"c0": math.nan}, {"d0_m": math.inf}, {"alpha_d": math.nan}, {"alpha_ur": -1.0},
        {"d_x_m": math.nan}, {"d_rb_m": math.inf},
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(DomainError):
            LinkBudget(**kwargs)

    @pytest.mark.parametrize("snr", [0.0, math.inf, math.nan])
    def test_invalid_transmit_snr(self, snr):
        with pytest.raises(DomainError):
            dataclasses.replace(default_system(), transmit_snr=snr)


class TestPathLoss:
    """The law c0 * (d / d0)^(-alpha) that ``derive_gains`` applies per link."""

    def test_reference_distance(self):
        # the direct link is 1 m long, the reference distance
        gains = gains_of(c0=1e-3, alpha_d=6.0, d_x_m=0.0, d_y_m=1.0)
        assert gains.beta_d == pytest.approx(1e-3)

    def test_power_of_ten(self):
        assert gains_of(c0=1e-3, alpha_rb=2.0, d_rb_m=10.0).beta_rb == pytest.approx(1e-5)

    def test_surface_terminal_gain(self):
        # frozen high-precision evaluation at d = 25.0200 m
        assert gains_of(c0=1e-3, alpha_rb=1.7, d_rb_m=25.0200).beta_rb == pytest.approx(
            4.19673532901e-6, rel=1e-10)

    def test_nonpositive_distance(self):
        with pytest.raises(DegenerateGeometry):
            gains_of(d_rb_m=0.0)

    def test_overflow_rejected(self):
        # (1e-200)^(-6) leaves the floating-point range, and so does
        # 1e308 * 0.5^(-1.7) although the power does not
        with pytest.raises(DegenerateGeometry, match="overflows"):
            gains_of(d_x_m=1e-200, d_y_m=0.0)
        with pytest.raises(DegenerateGeometry, match="overflows"):
            gains_of(c0=1e308, d_rb_m=0.5)

    @given(st.floats(0.1, 100), st.floats(0.1, 100))
    def test_strictly_decreasing(self, d1, d2):
        lo, hi = sorted([d1, d2])
        if hi > lo * (1 + 1e-12):
            assert gains_of(d_rb_m=hi).beta_rb < gains_of(d_rb_m=lo).beta_rb


class TestCorrelationAt:
    @pytest.mark.parametrize("model", [jakes(), sinc_model(), jakes(0.0), sinc_model(0.3)])
    def test_zero_separation(self, model):
        assert model.rho(0.0) == 1.0

    def test_sinc_first_zero(self):
        assert abs(sinc_model(1.0).rho(WAVELENGTH / 2.0)) < 1e-15

    def test_jakes_first_zero(self):
        r = WAVELENGTH * 2.4048255577 / (2.0 * math.pi)
        assert abs(jakes(1.0).rho(r)) < 1e-9

    def test_kappa_zero_everywhere_one(self):
        rs = np.linspace(0.0, 5.0, 64)
        assert np.all(jakes(0.0).rho(rs) == 1.0)
        assert np.all(sinc_model(0.0).rho(rs) == 1.0)

    def test_bounded(self):
        rs = np.linspace(0.0, 3.0, 1024)
        for model in (jakes(), sinc_model()):
            assert np.max(np.abs(model.rho(rs))) <= 1.0 + 1e-12

    def test_jakes_first_lobe_monotone_in_kappa(self):
        # within the first lobe a stronger scaling decorrelates faster
        first_zero_r = WAVELENGTH * 2.4048255577 / (2.0 * math.pi)
        rs = np.linspace(1e-4, first_zero_r * 0.999, 50)
        lo, hi = jakes(0.5).rho(rs), jakes(1.0).rho(rs)
        assert np.all(hi <= lo + 1e-12)

    @pytest.mark.parametrize("model", [jakes(1e307), sinc_model(1e307)], ids=["jakes", "sinc"])
    def test_overflowing_argument_takes_the_limit(self, model):
        # kappa r / lambda overflows to inf, where both kernels are 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.array_equal(model.rho([0.0, 1.0]), [1.0, 0.0])

    @pytest.mark.parametrize("kind, kappa", [(CorrelationKind.SINC, 1e308),
                                             (CorrelationKind.JAKES, 3e307)],
                             ids=["sinc", "jakes"])
    def test_overflowing_scale_rejected(self, kind, kappa):
        # 2 kappa (sinc) or 2 pi kappa (Jakes) past the float range would make
        # rho(0) inf * 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="kappa"):
                IsotropicCorrelation(kind, kappa, WAVELENGTH)

    def test_invalid_parameters(self):
        for kappa, wavelength in ((-0.1, WAVELENGTH), (1.0, 0.0), (math.nan, WAVELENGTH),
                                  (math.inf, WAVELENGTH), (1.0, math.inf)):
            with pytest.raises(DomainError):
                IsotropicCorrelation(CorrelationKind.JAKES, kappa, wavelength)


class TestSteeringVector:
    def test_single_element(self):
        a = steering_vector(BsArrayConfig(m_x=1, m_z=1))
        assert a.shape == (1,)
        assert a[0] == pytest.approx(1.0 + 0.0j)

    def test_broadside_all_ones(self):
        arr = BsArrayConfig(m_x=4, m_z=3, theta_a_rad=math.pi / 2,
                            phi_a_rad=math.pi / 2)
        a = steering_vector(arr)
        assert np.allclose(a, 1.0, atol=1e-12)

    def test_unit_modulus_and_norm(self):
        arr = BsArrayConfig(m_x=8, m_z=4, spacing_wavelengths=0.5,
                            theta_a_rad=math.pi / 2, phi_a_rad=math.pi / 4)
        a = steering_vector(arr)
        assert a.size == 32
        assert np.max(np.abs(np.abs(a) - 1.0)) < 1e-12
        assert abs(np.vdot(a, a).real - 32.0) < 1e-9 * 32.0

    def test_invalid_angles(self):
        with pytest.raises(DomainError):
            BsArrayConfig(theta_a_rad=-0.1)
        with pytest.raises(DomainError):
            BsArrayConfig(phi_a_rad=4.0)
        with pytest.raises(DomainError):
            BsArrayConfig(theta_a_rad=math.nan)

    @pytest.mark.parametrize("kwargs", [
        {"m_x": 0}, {"m_x": 0.5}, {"m_z": 2.0}, {"spacing_wavelengths": math.inf},
        {"m_x": 10 ** 20}, {"m_x": np.int64(2 ** 40), "m_z": np.int64(2 ** 40)},
    ])
    def test_invalid_counts_and_spacing(self, kwargs):
        with pytest.raises(DomainError):
            BsArrayConfig(**kwargs)


class TestBsCorrelationMatrix:
    def test_single_antenna(self):
        r = bs_correlation_matrix(BsArrayConfig(m_x=1, m_z=1), jakes())
        assert r.shape == (1, 1)
        assert r[0, 0] == pytest.approx(1.0)

    def test_perfect_correlation_rank_one(self):
        r = bs_correlation_matrix(BsArrayConfig(m_x=4, m_z=2), jakes(0.0))
        assert np.allclose(r, 1.0, atol=1e-12)
        assert np.linalg.matrix_rank(r, tol=1e-8) == 1

    @pytest.mark.parametrize("model", [jakes(), sinc_model()])
    def test_contract(self, model):
        arr = BsArrayConfig(m_x=8, m_z=4)
        r = bs_correlation_matrix(arr, model)
        assert np.all(np.diag(r) == 1.0)
        assert np.linalg.eigvalsh(r).min() >= -1e-12 * arr.m

    @pytest.mark.parametrize("model", [jakes(), sinc_model()], ids=["jakes", "sinc"])
    @pytest.mark.parametrize("shape", [(8, 4), (16, 8), (12, 12), (5, 3)])
    @pytest.mark.parametrize("spacing", [0.5, 0.37, 1.3])
    def test_exactly_symmetric_with_trace_m(self, model, shape, spacing):
        # the SNR moments read tr(R)^2 as M^2
        arr = BsArrayConfig(m_x=shape[0], m_z=shape[1], spacing_wavelengths=spacing)
        r = bs_correlation_matrix(arr, model)
        assert np.array_equal(r, r.T)
        assert np.trace(r) == arr.m


class TestClipSpectrum:
    def test_spectrum_rules_judge_the_union(self):
        # an exactly zero block beside a positive one is valid, and a
        # roundoff-sized negative eigenvalue is measured against the union
        clipped, mass = clip_spectrum(np.array([0.0, 0.0, -1e-9, 1e-8, 4.0]))
        assert np.array_equal(clipped, [0.0, 0.0, 0.0, 1e-8, 4.0])
        assert mass == pytest.approx(1e-9 / (4.0 + 1.1e-8), rel=1e-12)
        with pytest.raises(CovarianceRepairFailure):
            clip_spectrum(np.zeros(3))
        with pytest.raises(CovarianceRepairFailure):
            clip_spectrum(np.array([-1e-5, 0.5, 1.0]))
        # each of these passes the ratio rule, but together they clip 5e-6
        # of the mass, beyond the 1e-6 limit
        with pytest.raises(CovarianceRepairFailure, match="clipped eigenvalue mass"):
            clip_spectrum(np.array([1.0] + [-5e-7] * 10))


class TestDeriveGains:
    def test_defaults(self):
        gains = derive_gains(default_system())
        assert gains.beta_d == pytest.approx(BETA_D_DEFAULT, rel=1e-9)
        assert gains.beta_rb == pytest.approx(BETA_RB_DEFAULT, rel=1e-9)
        assert gains.beta_ur == pytest.approx(BETA_UR, rel=1e-9)

    def test_zero_exponents_give_reference_gain(self):
        system = default_system()
        link = dataclasses.replace(system.link, alpha_d=0.0, alpha_rb=0.0,
                                   alpha_ur=0.0)
        gains = derive_gains(dataclasses.replace(system, link=link))
        assert gains.beta_d == pytest.approx(link.c0)
        assert gains.beta_rb == pytest.approx(link.c0)
        assert gains.beta_ur == pytest.approx(link.c0)


@pytest.mark.parametrize("build", [
    lambda: IsotropicCorrelation("sinc", 1.0, WAVELENGTH),
    lambda: IsotropicCorrelation("bogus", 1.0, WAVELENGTH),
    lambda: dataclasses.replace(
        default_system(),
        bs_correlation=IsotropicCorrelation(CorrelationKind.JAKES, 1.0, 2.0 * WAVELENGTH)),
], ids=["string_sinc", "string_bogus", "wavelength_mismatch"])
def test_invalid_models_rejected(build):
    with pytest.raises(DomainError):
        build()
