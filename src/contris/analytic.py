"""Closed-form and quadrature statistics of the optimally phased surface.

The SNR moments come from three stages:

1. :func:`link_terms`: the link gains and the direct channel's quadratic
   forms of R (a^H R a, ||R a||^2, tr R^2; R has a unit diagonal, tr R = M).
2. :class:`YMoments`: the mean of the surface amplitude Y (the integral of
   the field magnitude) in closed form; its second moment, for isotropic
   correlation, as one integral of the hypergeometric kernel against the
   distance density of two uniform points in the rectangle, cross-checked
   by a tensor Gauss-Legendre rule whose sum over cell offsets also gives a
   grid's exact second moment; m3 and m4 from (m1, m2) by the gamma-shape
   recursion, since higher-order amplitude correlations have no closed form.
3. :func:`snr_pair`: the SNR's mean and second moment from the two.

Then the gamma fit, outage CDF, spectral-efficiency bound and its dominant
error term, and the squared coefficient of variation (channel hardening).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .mcsim import GridSpec
from .quadrature import QuadratureSpec, adaptive_gauss_kronrod
from .specfun import gauss_2f1_half, reg_lower_gamma
from .sysmodel import (
    IsotropicCorrelation,
    SurfaceGeometry,
    SystemConfig,
    bs_correlation_matrix,
    derive_gains,
    steering_vector,
)

__all__ = [
    "YMoments",
    "SnrMoments",
    "GammaFit",
    "LinkTerms",
    "link_terms",
    "moment_m1",
    "rect_distance_pdf",
    "moment_m2_iso",
    "moment_m2_quad4",
    "moment_m2_grid",
    "snr_pair",
    "mean_snr",
    "second_moment_snr",
    "snr_moments",
    "gamma_fit",
    "outage_probability",
    "se_bound",
    "dominant_error_term",
    "cv_squared",
]


def _variance(first: float, second: float) -> float:
    """second - first^2 of a pair of first and second moments.

    The one rule for a valid pair, which every function and dataclass here
    that takes one applies: the first moment positive and finite, the second
    finite and at least first^2.  A zero variance is valid.
    """
    if not (0.0 < first < math.inf and math.isfinite(second)):
        raise DomainError("need a positive, finite first moment and a finite second")
    variance = second - first ** 2
    if variance < 0.0:
        raise DomainError(f"the moment pair implies a negative variance, {variance:.3e}")
    return variance


@dataclass(frozen=True)
class YMoments:
    """First two moments of the aggregate surface amplitude, and the third
    and fourth that the gamma-shape recursion derives from them."""

    m1: float
    m2: float

    def __post_init__(self):
        _variance(self.m1, self.m2)

    @classmethod
    def from_first_two(cls, m1: float, m2: float) -> "YMoments":
        # kept for the callers in perfbench/
        return cls(m1, m2)

    @property
    def m3(self) -> float:
        return (2.0 * self.m2 - self.m1 ** 2) * self.m2 / self.m1

    @property
    def m4(self) -> float:
        m1, m2 = self.m1, self.m2
        return (3.0 * m2 - 2.0 * m1 ** 2) * (2.0 * m2 - m1 ** 2) * m2 / m1 ** 2


@dataclass(frozen=True)
class SnrMoments:
    """Mean and second moment of the linear SNR."""

    mu1: float
    mu2: float

    def __post_init__(self):
        _variance(self.mu1, self.mu2)


@dataclass(frozen=True)
class GammaFit:
    """Shape/rate parameters of the moment-matched gamma distribution."""

    alpha_g: float
    beta_g: float

    def __post_init__(self):
        if not (0.0 < self.alpha_g < math.inf and 0.0 < self.beta_g < math.inf):
            raise DomainError("gamma parameters must be positive and finite")

    @property
    def mean(self) -> float:
        return self.alpha_g / self.beta_g

    @property
    def variance(self) -> float:
        return self.alpha_g / self.beta_g ** 2


def moment_m1(geom: SurfaceGeometry, beta_ur: float) -> float:
    """Mean of Y: half sqrt(pi * beta_ur) times the surface area.

    Exact for any correlation model; the mean of a Rayleigh magnitude does
    not depend on the correlation structure.
    """
    if not 0.0 < beta_ur < math.inf:
        raise DomainError("beta_ur must be positive and finite")
    return 0.5 * math.sqrt(math.pi * beta_ur) * geom.area_m2


def rect_distance_pdf(geom: SurfaceGeometry, r):
    """Density of the distance between two uniform points in the rectangle.

    One expression on (0, sqrt(W^2 + H^2)], zero elsewhere, with W >= H the
    canonical sides; it equals the classical branches on [0, H), [H, W) and
    [W, sqrt(W^2 + H^2)].  W (sqrt(r^2 - H^2) - r) is taken as
    -W H^2 / (sqrt(r^2 - H^2) + r) and the angles by atan2, so no large
    terms cancel and the kinks at H and W are well conditioned.
    Vectorized in r; raises :class:`DomainError` for NaN.
    """
    w, h = geom.canonical()
    arr = np.asarray(r, dtype=float)
    if np.isnan(arr).any():
        raise DomainError("r must not be NaN")
    out = np.zeros(arr.shape)
    support = (arr > 0.0) & (arr <= math.hypot(w, h))
    x = arr[support]
    m = np.minimum(x, h)
    # sqrt(r^2 - s^2) clipped at 0, as a product of roots so that r^2
    # cannot overflow
    rho_h = np.sqrt(np.maximum(x - h, 0.0)) * np.sqrt(x + h)
    rho_w = np.sqrt(np.maximum(x - w, 0.0)) * np.sqrt(x + w)
    out[support] = 4.0 / (w * h) ** 2 * x * (
        w * h * (np.arctan2(h, rho_h) - np.arctan2(rho_w, w))
        - w * m * m / (rho_h + x) + h * rho_w - 0.5 * m * m
        - np.maximum(h - x, 0.0) * x - 0.5 * np.maximum(x - w, 0.0) ** 2)
    return out if out.ndim else float(out)


def _hyper_kernel(model, beta_ur: float, r: np.ndarray) -> np.ndarray:
    """g(r) = (pi beta_ur / 4) * 2F1(-1/2, -1/2; 1; rho(r)^2), the kernel of
    all three second-moment rules, and their one check of beta_ur.

    The squared correlation is clamped to [0, 1] to absorb last-bit
    floating overshoot of the correlation model.
    """
    if not 0.0 < beta_ur < math.inf:
        raise DomainError("beta_ur must be positive and finite")
    z = np.clip(np.asarray(model.rho(r), dtype=float) ** 2, 0.0, 1.0)
    return 0.25 * math.pi * beta_ur * gauss_2f1_half(z)


def moment_m2_iso(
    geom: SurfaceGeometry,
    model: IsotropicCorrelation,
    beta_ur: float,
) -> float:
    """Second moment of Y for isotropic correlation, by 1-D quadrature.

    Evaluates W^2 H^2 * integral of g(r) f_s(r) over the distance support in
    one adaptive run that starts from the distance density's kinks (H, W)
    and meets the default :class:`QuadratureSpec` tolerance on the whole
    integral.  Always at least m1^2 up to quadrature error.
    """
    w, h = geom.canonical()
    diag = math.hypot(w, h)

    def integrand(r):
        return _hyper_kernel(model, beta_ur, r) * rect_distance_pdf(geom, r)

    value, _ = adaptive_gauss_kronrod(integrand, [0.0, h, w, diag])
    return w * w * h * h * value


# Oscillation resolution for the oracle's tensor rule: nodes per axis are
# raised, up to _MAX_AXIS_NODES, so that one correlation period (wavelength
# / kappa) receives at least ~5 nodes; otherwise the fixed default
# undersamples electrically large surfaces.
_NODES_PER_PERIOD = 5.0
_MAX_AXIS_NODES = 320


def _axis_nodes(length_m: float, model, base: int) -> int:
    if model.kappa <= 0.0:
        return base
    needed = _NODES_PER_PERIOD * length_m * model.kappa / model.wavelength_m
    return max(base, math.ceil(min(needed, _MAX_AXIS_NODES)))  # needed may be inf


def _tensor_m2(model, beta_ur: float, u, wu, v, wv) -> float:
    """sum_ij wu_i wv_j g(hypot(u_i, v_j)) over weighted per-axis differences."""
    kernel = _hyper_kernel(model, beta_ur, np.hypot(u[:, None], v[None, :]))
    return float(wu @ kernel @ wv)


def moment_m2_quad4(
    geom: SurfaceGeometry,
    model: IsotropicCorrelation,
    beta_ur: float,
    quad: QuadratureSpec = QuadratureSpec(),
) -> float:
    """Second moment of Y by tensor Gauss-Legendre over the coordinate
    differences; a validation path that shares only the kernel with
    :func:`moment_m2_iso`.

    The difference u of two uniform points on a side L has density
    2 (L - u) / L^2, so m2 = 4 int_0^W int_0^H (W - u)(H - v) g(hypot(u, v))
    du dv exactly.  Each axis takes ``quad.nodes_4d`` or more (see
    ``_axis_nodes``) Gauss-Legendre nodes u_k on [0, L] with weights
    (L - u_k) L w_k.  The kernel's kink at zero separation lies on the
    corner u = v = 0, where the rule has no node.
    """
    def axis(length_m):
        t, w = np.polynomial.legendre.leggauss(_axis_nodes(length_m, model, quad.nodes_4d))
        u = 0.5 * length_m * (t + 1.0)
        return u, (length_m - u) * length_m * w

    return _tensor_m2(model, beta_ur, *axis(geom.width_m), *axis(geom.height_m))


def moment_m2_grid(
    geom: SurfaceGeometry,
    model: IsotropicCorrelation,
    beta_ur: float,
    grid: GridSpec,
) -> float:
    """Exact second moment of the Riemann sum of Y on the grid's cell
    centers: cell_area^2 times the kernel summed over all cell pairs.
    Per axis, the offset i L / n occurs in (n - i)(2 - [i = 0]) ordered
    cell pairs."""
    def axis(n, length_m):
        i, cell = np.arange(n), length_m / n
        return i * cell, (n - i) * np.where(i > 0, 2.0, 1.0) * cell * cell

    return _tensor_m2(model, beta_ur, *axis(grid.nx, geom.width_m),
                      *axis(grid.ny, geom.height_m))


@dataclass(frozen=True)
class LinkTerms:
    """Scalars through which the direct channel enters the SNR moments."""

    gamma: float        # transmit SNR Es/sigma^2
    m: int              # BS antenna count
    beta_d: float
    beta_rb: float
    beta_ur: float
    quad_r: float       # a^H R a
    quad_r2: float      # a^H R^2 a
    tr_r2: float        # tr(R^2); tr(R) = m, since R has a unit diagonal


def link_terms(cfg: SystemConfig) -> LinkTerms:
    """Evaluate the direct-channel quadratic forms for a configuration;
    a^H R a is a PSD form, so roundoff below 0 is clamped to 0."""
    gains = derive_gains(cfg)
    r_d = bs_correlation_matrix(cfg.array, cfg.bs_correlation)
    a_b = steering_vector(cfg.array)
    ra = r_d @ a_b
    return LinkTerms(
        gamma=cfg.transmit_snr,
        m=cfg.array.m,
        beta_d=gains.beta_d,
        beta_rb=gains.beta_rb,
        beta_ur=gains.beta_ur,
        quad_r=max(0.0, float(np.real(np.vdot(a_b, ra)))),
        quad_r2=float(np.real(np.vdot(ra, ra))),
        tr_r2=float((r_d * r_d).sum()),
    )


def snr_pair(terms: LinkTerms, y: YMoments) -> SnrMoments:
    """The optimal SNR's mean and second moment, as :class:`SnrMoments`,
    from the direct-channel terms and the Y moments.

    At a^H R a = 0 the term in ||Ra||^2 / a^H R a takes its limit 0, since
    ||Ra||^2 <= lambda_max a^H R a."""
    t = terms
    m1, m2 = y.m1, y.m2
    quad_r = max(t.quad_r, 0.0)
    mu1 = t.gamma * (
        t.m * t.beta_d
        + t.m * t.beta_rb * m2
        + m1 * math.sqrt(math.pi * t.beta_rb * t.beta_d * quad_r))
    cross = (m1 * math.sqrt(math.pi * t.beta_rb * t.beta_d ** 3 * quad_r)
             * (2.0 * t.m + t.quad_r2 / quad_r)) if quad_r > 0.0 else 0.0
    bracket = (
        t.beta_d ** 2 * (t.tr_r2 + t.m ** 2)
        + 2.0 * t.m ** 2 * t.beta_d * t.beta_rb * m2
        + cross
        + t.m ** 2 * t.beta_rb ** 2 * y.m4
        + 2.0 * t.m * y.m3 * math.sqrt(math.pi * t.beta_d * t.beta_rb ** 3 * quad_r)
        + 4.0 * t.beta_d * t.beta_rb * m2 * quad_r)
    return SnrMoments(mu1, t.gamma ** 2 * bracket)


def mean_snr(cfg: SystemConfig, m1: float, m2: float) -> float:
    """Mean of the optimal SNR for a full system configuration."""
    # kept for the callers in perfbench/
    return snr_pair(link_terms(cfg), YMoments(m1, m2)).mu1


def second_moment_snr(cfg: SystemConfig, moments: YMoments) -> float:
    """Second moment of the optimal SNR for a full system configuration."""
    # kept for the callers in perfbench/
    return snr_pair(link_terms(cfg), moments).mu2


def snr_moments(cfg: SystemConfig) -> SnrMoments:
    """Mean and second moment of the optimal SNR for a full system
    configuration: link terms, then the Y moments, then the SNR pair."""
    terms = link_terms(cfg)
    m1 = moment_m1(cfg.geometry, terms.beta_ur)
    m2 = moment_m2_iso(cfg.geometry, cfg.correlation, terms.beta_ur)
    return snr_pair(terms, YMoments(m1, m2))


def gamma_fit(mu1: float, mu2: float) -> GammaFit:
    """Method-of-moments gamma parameters matching (mu1, mu2), mu2 > mu1^2."""
    variance = _variance(mu1, mu2)
    if variance == 0.0:
        raise DomainError("a gamma fit needs a positive variance")
    return GammaFit(alpha_g=mu1 ** 2 / variance, beta_g=mu1 / variance)


def outage_probability(fit: GammaFit, x):
    """P(SNR <= x) under the gamma approximation; vectorized in x.

    Raises :class:`DomainError` for a negative or NaN threshold.
    """
    return reg_lower_gamma(fit.alpha_g, fit.beta_g * np.asarray(x, dtype=float))


def se_bound(mu1: float) -> float:
    """Jensen upper bound log2(1 + mu1) on the mean spectral efficiency."""
    if not 0.0 <= mu1 < math.inf:
        raise DomainError("mu1 must be finite and >= 0")
    return math.log2(1.0 + mu1)


def dominant_error_term(mu1: float, mu2: float) -> float:
    """Leading Taylor correction omitted by the spectral-efficiency bound."""
    return _variance(mu1, mu2) / (2.0 * math.log(2.0) * (1.0 + mu1) ** 2)


def cv_squared(mu1: float, mu2: float) -> float:
    """Squared coefficient of variation of the effective channel gain.

    Invariant under the scaling (mu1, mu2) -> (c mu1, c^2 mu2), so it does
    not depend on the transmit SNR.
    """
    return _variance(mu1, mu2) / mu1 ** 2
