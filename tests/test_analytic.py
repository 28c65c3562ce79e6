import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contris import analytic
from contris.analytic import (
    GammaFit,
    LinkTerms,
    SnrMoments,
    YMoments,
    cv_squared,
    dominant_error_term,
    gamma_fit,
    link_terms,
    mean_snr,
    moment_m1,
    moment_m2_iso,
    moment_m2_quad4,
    outage_probability,
    rect_distance_pdf,
    se_bound,
    second_moment_snr,
    snr_moments,
    snr_pair,
)
from contris.cli import default_system
from contris.errors import DomainError
from contris.quadrature import QuadratureSpec, adaptive_gauss_kronrod
from contris.specfun import gauss_2f1_half
from contris.sysmodel import (
    CorrelationKind,
    IsotropicCorrelation,
    SurfaceGeometry,
    derive_gains,
)

from conftest import BETA_UR, WAVELENGTH, ZeroCorrelation, jakes, sinc_model

# frozen oracle values
UNIT_SQUARE_MEAN_SEPARATION = 0.52140543316472067833  # (2 + sqrt2 + 5 asinh 1)/15
MEAN_SNR_UNIT_CORNER = 4.7724538509055160273          # 3 + sqrt(pi)
MU2_UNIT_CORNER = 64.586807763582740409               # 38 + 15 sqrt(pi)
DET_UNIT_CORNER = 0.18033688011112042592              # 1 / (8 ln 2)


def unit_terms(**overrides) -> LinkTerms:
    base = dict(gamma=1.0, m=1, beta_d=1.0, beta_rb=1.0, beta_ur=1.0,
                quad_r=1.0, quad_r2=1.0, tr_r2=1.0)
    base.update(overrides)
    return LinkTerms(**base)


class TestMomentM1:
    def test_radicals_cancel(self):
        geom = SurfaceGeometry(1.0, 1.0)
        assert moment_m1(geom, 4.0 / math.pi) == pytest.approx(1.0, rel=1e-14)

    def test_linear_in_area(self):
        geom = SurfaceGeometry(2.0, 1.0)
        assert moment_m1(geom, 4.0 / math.pi) == pytest.approx(2.0, rel=1e-14)

    def test_default_area(self):
        geom = SurfaceGeometry(math.sqrt(0.4), math.sqrt(0.4))
        # frozen hand evaluation at beta_ur = 4.196e-6
        assert moment_m1(geom, 4.196e-6) == pytest.approx(7.2614386383e-4, rel=1e-9)

    def test_domain(self):
        with pytest.raises(DomainError):
            moment_m1(SurfaceGeometry(1.0, 1.0), 0.0)


class TestRectDistancePdf:
    def test_support(self):
        geom = SurfaceGeometry(1.3, 0.7)
        assert rect_distance_pdf(geom, geom.diagonal_m + 1e-9) == 0.0
        assert rect_distance_pdf(geom, 100.0) == 0.0

    def test_normalization(self):
        geom = SurfaceGeometry(1.3, 0.7)
        w, h = geom.canonical()
        total, _ = adaptive_gauss_kronrod(
            lambda r: rect_distance_pdf(geom, r),
            [0.0, h, w, geom.diagonal_m],
            QuadratureSpec(rel_tol=1e-12))
        assert abs(total - 1.0) < 1e-10

    def test_unit_square_mean_separation(self):
        geom = SurfaceGeometry(1.0, 1.0)
        mean, _ = adaptive_gauss_kronrod(
            lambda r: r * rect_distance_pdf(geom, r),
            [0.0, 1.0, math.sqrt(2.0)],
            QuadratureSpec(rel_tol=1e-12))
        assert mean == pytest.approx(UNIT_SQUARE_MEAN_SEPARATION, rel=1e-10)

    def test_continuous_at_breakpoints(self):
        geom = SurfaceGeometry(1.3, 0.7)
        for edge in (0.7, 1.3):
            left = rect_distance_pdf(geom, edge - 1e-9)
            right = rect_distance_pdf(geom, edge + 1e-9)
            assert left == pytest.approx(right, abs=1e-6)

    def test_orientation_invariance(self):
        tall = SurfaceGeometry(0.7, 1.3)
        wide = SurfaceGeometry(1.3, 0.7)
        rs = np.linspace(0.0, wide.diagonal_m, 57)
        assert np.allclose(rect_distance_pdf(tall, rs), rect_distance_pdf(wide, rs))


class TestMomentM2:
    def test_perfect_correlation_closed_form(self):
        geom = SurfaceGeometry(math.sqrt(0.2), math.sqrt(0.2))
        expect = BETA_UR * geom.area_m2 ** 2
        assert moment_m2_iso(geom, jakes(0.0), BETA_UR) == pytest.approx(expect, rel=1e-8)
        assert moment_m2_quad4(geom, jakes(0.0), BETA_UR) == pytest.approx(expect, rel=1e-8)

    def test_zero_correlation_gives_m1_squared(self):
        geom = SurfaceGeometry(math.sqrt(0.2), math.sqrt(0.2))
        m1 = moment_m1(geom, BETA_UR)
        m2 = moment_m2_iso(geom, ZeroCorrelation(), BETA_UR)
        assert m2 == pytest.approx(m1 ** 2, rel=1e-8)

    def test_quad4_zero_correlation_gives_m1_squared(self):
        # the difference nodes never reach zero separation, and the weights
        # integrate the difference density exactly
        geom = SurfaceGeometry(0.6, 0.3)
        m1 = moment_m1(geom, BETA_UR)
        m2 = moment_m2_quad4(geom, ZeroCorrelation(), BETA_UR)
        assert m2 == pytest.approx(m1 ** 2, rel=1e-12)

    def test_quad4_white_field_at_overflowing_kappa(self):
        # 5 kappa L / lambda overflows, so the node count takes its cap; the
        # correlation is 0 at every node and the field is white
        geom = SurfaceGeometry(math.sqrt(0.4), math.sqrt(0.4))
        m2 = moment_m2_quad4(geom, jakes(1e307), 1.0)
        assert m2 == pytest.approx(moment_m1(geom, 1.0) ** 2, rel=1e-12)

    def test_cross_oracle_agreement(self):
        geom = SurfaceGeometry(0.6, 0.3)
        iso = moment_m2_iso(geom, jakes(1.0), BETA_UR)
        brute = moment_m2_quad4(geom, jakes(1.0), BETA_UR)
        assert abs(iso - brute) / brute < 1e-4

    def test_orientation_invariance(self):
        wide = SurfaceGeometry(0.8, 0.25)
        tall = SurfaceGeometry(0.25, 0.8)
        assert moment_m2_iso(wide, sinc_model(), BETA_UR) == pytest.approx(
            moment_m2_iso(tall, sinc_model(), BETA_UR), rel=1e-10)

    def test_variance_nonnegative(self):
        geom = SurfaceGeometry(0.5, 0.4)
        m1 = moment_m1(geom, BETA_UR)
        for model in (sinc_model(0.5), jakes(1.0)):
            assert moment_m2_quad4(geom, model, BETA_UR) >= m1 ** 2 * (1.0 - 1e-9)

    # Surfaces small enough that the oscillation rule keeps nodes_4d nodes
    # per axis (5 L kappa / wavelength <= 8 at kappa = 1).
    SMALL_SURFACES = (SurfaceGeometry(0.06, 0.06), SurfaceGeometry(0.08, 0.004))

    @staticmethod
    def tensor_sum(geom, model, n):
        """The plain n^4 tensor Gauss-Legendre sum of the m2 integrand."""
        t, wt = np.polynomial.legendre.leggauss(n)
        w, h = geom.canonical()
        x, y = 0.5 * w * (t + 1.0), 0.5 * h * (t + 1.0)
        x1, y1, x2, y2 = np.meshgrid(x, y, x, y, indexing="ij")
        rho = model.rho(np.hypot(x1 - x2, y1 - y2))
        kernel = 0.25 * math.pi * BETA_UR * gauss_2f1_half(np.clip(rho * rho, 0.0, 1.0))
        weights = np.einsum("i,j,k,l->ijkl", 0.5 * w * wt, 0.5 * h * wt,
                            0.5 * w * wt, 0.5 * h * wt)
        return float((weights * kernel).sum())

    @pytest.mark.parametrize("n", [8, 9])
    @pytest.mark.parametrize("geom", SMALL_SURFACES, ids=["square", "20to1"])
    @pytest.mark.parametrize("model", [sinc_model(0.0), sinc_model(1.0), jakes(0.0), jakes(1.0)],
                             ids=["sinc0", "sinc1", "jakes0", "jakes1"])
    def test_quad4_equals_unreduced_tensor_sum(self, n, geom, model):
        reduced = moment_m2_quad4(geom, model, BETA_UR, QuadratureSpec(nodes_4d=n))
        assert reduced == pytest.approx(self.tensor_sum(geom, model, n), rel=1e-13)

    @staticmethod
    def kernel_points(monkeypatch, *args):
        points = []
        rho = IsotropicCorrelation.rho
        monkeypatch.setattr(IsotropicCorrelation, "rho",
                            lambda self, r: points.append(np.size(r)) or rho(self, r))
        moment_m2_quad4(*args)
        return sum(points)

    @pytest.mark.parametrize("n", [8, 9, 32])
    @pytest.mark.parametrize("geom", SMALL_SURFACES, ids=["square", "20to1"])
    def test_quad4_kernel_points(self, n, geom, monkeypatch):
        # one kernel evaluation per pair of x and y difference nodes
        points = self.kernel_points(monkeypatch, geom, jakes(1.0), BETA_UR,
                                    QuadratureSpec(nodes_4d=n))
        assert points == n * n

    def test_quad4_keeps_node_counts_above_the_cap(self, monkeypatch):
        # the oscillation rule asks for 387 x nodes on this side; the cap
        # bounds that raise, but not a node count the caller sets
        geom = SurfaceGeometry(4.0, 0.05)
        assert self.kernel_points(monkeypatch, geom, jakes(1.0), BETA_UR) == 320 * 32
        points = self.kernel_points(monkeypatch, geom, jakes(1.0), BETA_UR,
                                    QuadratureSpec(nodes_4d=400))
        assert points == 400 * 400

    CRITERION_1 = [(aspect, kind, kappa) for aspect in (1.0, 2.0, 20.0)
                   for kind in (CorrelationKind.SINC, CorrelationKind.JAKES)
                   for kappa in (0.1, 0.5, 1.0)]

    @pytest.mark.parametrize("aspect, kind, kappa", CRITERION_1,
                             ids=[f"{a:g}to1-{k.value}-{c:g}" for a, k, c in CRITERION_1])
    def test_quad4_converged_on_criterion_1(self, aspect, kind, kappa):
        width = math.sqrt(0.2 * aspect)
        geom = SurfaceGeometry(width, 0.2 / width)
        model = IsotropicCorrelation(kind, kappa, WAVELENGTH)
        brute = moment_m2_quad4(geom, model, BETA_UR)
        finer = moment_m2_quad4(geom, model, BETA_UR, QuadratureSpec(nodes_4d=64))
        assert abs(brute - moment_m2_iso(geom, model, BETA_UR)) <= 1e-6 * brute
        assert abs(brute - finer) <= 1e-6 * brute

    def test_decorrelation_shrinks_m2(self):
        geom = SurfaceGeometry(math.sqrt(0.2), math.sqrt(0.2))
        values = [moment_m2_iso(geom, sinc_model(k), BETA_UR)
                  for k in (0.0, 0.25, 0.5, 1.0)]
        assert all(b <= a + 1e-18 for a, b in zip(values, values[1:]))


def recursion(m1, m2):
    y = YMoments(m1, m2)
    return y.m3, y.m4


class TestMomentRecursion:
    def test_gamma_shape_two(self):
        assert recursion(2.0, 6.0) == pytest.approx((24.0, 120.0), rel=1e-14)

    def test_exponential(self):
        assert recursion(1.0, 2.0) == pytest.approx((6.0, 24.0), rel=1e-14)

    def test_deterministic_limit(self):
        m3, m4 = recursion(3.0, 9.0)
        assert m3 == pytest.approx(27.0, rel=1e-14)
        assert m4 == pytest.approx(81.0, rel=1e-14)

    def test_negative_variance_rejected(self):
        with pytest.raises(DomainError):
            YMoments(2.0, 3.9)

    @pytest.mark.parametrize("k", [0.5, 1.0, 2.0, 7.0])
    @pytest.mark.parametrize("theta", [0.1, 1.0, 10.0])
    def test_exact_gamma_moments(self, k, theta):
        m1 = k * theta
        m2 = k * (k + 1.0) * theta ** 2
        m3, m4 = recursion(m1, m2)
        assert m3 == pytest.approx(k * (k + 1) * (k + 2) * theta ** 3, rel=1e-12)
        assert m4 == pytest.approx(k * (k + 1) * (k + 2) * (k + 3) * theta ** 4, rel=1e-12)

    def test_ymoments_consistency_enforced(self):
        assert [f.name for f in dataclasses.fields(YMoments)] == ["m1", "m2"]
        assert YMoments.from_first_two(1.0, 2.0) == YMoments(1.0, 2.0)


class TestSnrMoments:
    def test_mean_direct_only(self):
        terms = unit_terms(gamma=2.0, m=4, beta_d=3.0, beta_rb=0.0)
        assert snr_pair(terms, YMoments(1.0, 2.0)).mu1 == pytest.approx(24.0)

    def test_mean_unit_corner(self):
        assert snr_pair(unit_terms(), YMoments(1.0, 2.0)).mu1 == pytest.approx(
            MEAN_SNR_UNIT_CORNER, rel=1e-14)

    def test_second_moment_direct_only(self):
        # an array of two antennas: tr(R) = 2, and tr(R^2) lies in [2, 4]
        terms = unit_terms(gamma=2.0, m=2, beta_d=3.0, beta_rb=0.0, tr_r2=3.0)
        assert snr_pair(terms, YMoments(1.0, 2.0)).mu2 == pytest.approx(
            4.0 * 9.0 * (3.0 + 4.0))

    def test_second_moment_unit_corner(self):
        assert snr_pair(unit_terms(), YMoments(1.0, 2.0)).mu2 == pytest.approx(
            MU2_UNIT_CORNER, rel=1e-14)

    def test_config_level_second_moment_inequality(self):
        system = default_system()
        gains = derive_gains(system)
        m1 = moment_m1(system.geometry, gains.beta_ur)
        m2 = moment_m2_iso(system.geometry, system.correlation, gains.beta_ur)
        mu1, mu2 = dataclasses.astuple(snr_pair(link_terms(system), YMoments(m1, m2)))
        assert mu1 == mean_snr(system, m1, m2)
        assert mu2 >= mu1 ** 2

    @pytest.mark.parametrize("kind,kappa", [(CorrelationKind.JAKES, 1.0),
                                            (CorrelationKind.SINC, 0.3)])
    def test_snr_moments_equal_config_level_wrappers(self, kind, kappa):
        system = default_system()
        model = dataclasses.replace(system.correlation, kind=kind, kappa=kappa)
        system = dataclasses.replace(system, correlation=model)
        beta_ur = derive_gains(system).beta_ur
        m1 = moment_m1(system.geometry, beta_ur)
        m2 = moment_m2_iso(system.geometry, system.correlation, beta_ur)
        expected = (mean_snr(system, m1, m2),
                    second_moment_snr(system, YMoments(m1, m2)))
        assert dataclasses.astuple(snr_moments(system)) == expected

    def test_snr_moments_invariants(self):
        pair = SnrMoments(mu1=2.0, mu2=5.0)
        assert pair.mu2 >= pair.mu1 ** 2
        with pytest.raises(DomainError):
            SnrMoments(mu1=2.0, mu2=3.9)
        with pytest.raises(DomainError):
            SnrMoments(mu1=0.0, mu2=1.0)

    def test_snr_moments_make_no_eigensolve(self, monkeypatch):
        def eigh(*args, **kwargs):
            raise AssertionError("the analytic chain needs no eigensolve")

        monkeypatch.setattr(np.linalg, "eigh", eigh)
        snr_moments(default_system())

    @pytest.mark.parametrize("quad_r", [0.0, -1e-15])
    def test_invisible_steering_vector_gives_finite_moments(self, monkeypatch, quad_r):
        # a steering vector in R_d's null space has a^H R a = 0 and Ra = 0
        # up to roundoff
        terms = dataclasses.replace(link_terms(default_system()),
                                    quad_r=quad_r, quad_r2=1e-30)
        monkeypatch.setattr(analytic, "link_terms", lambda cfg: terms)
        pair = snr_moments(default_system())
        assert math.isfinite(pair.mu1) and math.isfinite(pair.mu2)

    def test_link_terms_quadratics(self):
        system = default_system()
        terms = link_terms(system)
        assert terms.m == 32
        assert terms.quad_r > 0.0
        assert terms.quad_r2 > 0.0
        # tr(R^2) >= tr(R)^2 / M = M by Cauchy-Schwarz on the spectrum
        assert terms.tr_r2 >= terms.m


class TestGammaFit:
    def test_exponential(self):
        fit = gamma_fit(1.0, 2.0)
        assert (fit.alpha_g, fit.beta_g) == pytest.approx((1.0, 1.0))

    def test_shape_two(self):
        fit = gamma_fit(2.0, 6.0)
        assert (fit.alpha_g, fit.beta_g) == pytest.approx((2.0, 1.0))

    def test_zero_variance_rejected(self):
        with pytest.raises(DomainError):
            gamma_fit(1.0, 1.0)

    @given(st.floats(1e-3, 1e6), st.floats(1e-6, 1e3))
    @settings(max_examples=60)
    def test_round_trip(self, mu1, rel_var):
        mu2 = mu1 ** 2 * (1.0 + rel_var)
        fit = gamma_fit(mu1, mu2)
        assert fit.mean == pytest.approx(mu1, rel=1e-12)
        assert fit.variance == pytest.approx(mu2 - mu1 ** 2, rel=1e-12)


class TestOutage:
    def test_at_zero(self):
        assert outage_probability(GammaFit(2.0, 1.0), 0.0) == 0.0

    def test_exponential_unit(self):
        assert outage_probability(GammaFit(1.0, 1.0), 1.0) == pytest.approx(
            1.0 - math.exp(-1.0), rel=1e-12)

    def test_cdf_contract(self):
        fit = GammaFit(3.7, 0.01)
        xs = np.linspace(0.0, 3000.0, 200)
        vals = outage_probability(fit, xs)
        assert np.all((vals >= 0.0) & (vals <= 1.0))
        assert np.all(np.diff(vals) >= -1e-13)

    def test_monotone_on_dense_grid(self):
        fit = gamma_fit(6.0, 40.0)
        vals = outage_probability(fit, fit.mean * np.logspace(-1.0, 1.0, 10_000))
        assert np.all(np.isfinite(vals)) and vals.min() >= 0.0 and vals.max() <= 1.0
        assert np.all(np.diff(vals) >= 0.0)

    def test_infinite_threshold(self):
        assert outage_probability(GammaFit(2.0, 1.0), math.inf) == 1.0

    @pytest.mark.parametrize("x", [-1.0, math.nan, [1.0, math.nan]])
    def test_domain(self, x):
        with pytest.raises(DomainError):
            outage_probability(GammaFit(2.0, 1.0), x)


class TestBoundAndHardening:
    def test_se_bound_values(self):
        assert se_bound(1.0) == pytest.approx(1.0)
        assert se_bound(3.0) == pytest.approx(2.0)

    def test_det_values(self):
        assert dominant_error_term(1.0, 2.0) == pytest.approx(DET_UNIT_CORNER, rel=1e-14)
        assert dominant_error_term(5.0, 25.0) == 0.0

    def test_cv_squared_gamma_identity(self):
        fit = gamma_fit(7.0, 56.0)
        mu2 = 56.0
        assert cv_squared(7.0, mu2) == pytest.approx(1.0 / fit.alpha_g, rel=1e-12)

    def test_cv_squared_zero_variance(self):
        assert cv_squared(4.0, 16.0) == 0.0

    def test_cv_squared_scale_invariance(self):
        c = 1e6
        assert cv_squared(1.3, 2.9) == pytest.approx(
            cv_squared(c * 1.3, c * c * 2.9), rel=1e-9)

    @given(st.floats(1e-3, 1e3), st.floats(0.0, 10.0))
    @settings(max_examples=40)
    def test_cv_matches_det_relation(self, mu1, rel_var):
        mu2 = mu1 ** 2 * (1.0 + rel_var)
        det = dominant_error_term(mu1, mu2)
        cv2 = cv_squared(mu1, mu2)
        assert det == pytest.approx(
            cv2 * mu1 ** 2 / (2.0 * math.log(2.0) * (1.0 + mu1) ** 2), rel=1e-12)


@pytest.mark.parametrize("call", [
    lambda: GammaFit(math.inf, 1.0),
    lambda: SnrMoments(math.inf, math.inf),
    lambda: SnrMoments(2.0, math.nan),
    lambda: moment_m1(SurfaceGeometry(1.0, 1.0), math.inf),
    lambda: moment_m2_iso(SurfaceGeometry(1.0, 1.0), jakes(), math.inf),
    lambda: moment_m2_quad4(SurfaceGeometry(1.0, 1.0), jakes(), math.inf),
    lambda: se_bound(math.nan),
    lambda: se_bound(math.inf),
    lambda: cv_squared(1.0, math.nan),
    lambda: dominant_error_term(math.nan, 1.0),
    lambda: dominant_error_term(1.0, math.nan),
    lambda: dominant_error_term(1.0, math.inf),
    lambda: rect_distance_pdf(SurfaceGeometry(1.0, 1.0), math.nan),
], ids=["gamma_alpha_inf", "snr_moments_inf", "snr_mu2_nan", "m1_beta_inf",
        "m2_iso_beta_inf", "m2_quad4_beta_inf", "se_bound_nan", "se_bound_inf",
        "cv2_mu2_nan", "det_mu1_nan", "det_mu2_nan", "det_mu2_inf", "distance_pdf_nan"])
def test_non_finite_inputs_rejected(call):
    with pytest.raises(DomainError):
        call()


# every taker of a (first, second) moment pair applies one rule: second >= first^2
MOMENT_PAIR_TAKERS = {
    "YMoments": YMoments,
    "YMoments.from_first_two": YMoments.from_first_two,
    "SnrMoments": SnrMoments,
    "cv_squared": cv_squared,
    "dominant_error_term": dominant_error_term,
    "gamma_fit": gamma_fit,
}


@pytest.mark.parametrize("name", MOMENT_PAIR_TAKERS)
def test_one_rule_for_a_moment_pair(name):
    take = MOMENT_PAIR_TAKERS[name]
    with pytest.raises(DomainError):
        take(1.0, 1.0 - 1e-13)
    if take is gamma_fit:
        # zero variance is a valid pair, but no gamma distribution has it
        with pytest.raises(DomainError):
            take(1.0, 1.0)
    else:
        take(1.0, 1.0)
    with pytest.raises(DomainError):
        take(0.0, 1.0)
