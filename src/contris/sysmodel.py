"""Physical system model: surface geometry, spatial correlation, link budget,
base-station array and the derived direct-channel correlation matrix.

Conventions
-----------
* Distances entering the correlation models are measured in carrier
  wavelengths, so a scaling of kappa = 1 reproduces the classical
  half-wavelength decorrelation of isotropic scattering.
* The antenna array is a planar grid in a vertical plane, rows along x and
  columns along z, spaced ``spacing_wavelengths`` apart.  The arrival phase
  ramp uses elevation theta (from zenith) and azimuth phi.
* Gains are linear throughout; dB conversion happens at the config boundary.

All types are frozen dataclasses and all operations are pure.
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import CovarianceRepairFailure, DegenerateGeometry, DomainError
from .specfun import bessel_j0, sinc_norm

__all__ = [
    "CorrelationKind",
    "SurfaceGeometry",
    "IsotropicCorrelation",
    "LinkBudget",
    "BsArrayConfig",
    "SystemConfig",
    "ChannelGains",
    "steering_vector",
    "bs_correlation_matrix",
    "derive_gains",
    "clip_spectrum",
    "clipped_eigh",
]

# An eigenvalue more negative than this fraction of the largest one, or
# negative eigenvalues holding more than this fraction of the absolute
# eigenvalue mass, mark a genuinely indefinite model rather than roundoff.
_REJECT_RATIO = 1e-6
_CLIPPED_MASS_LIMIT = 1e-6


class CorrelationKind(str, enum.Enum):
    SINC = "sinc"
    JAKES = "jakes"


@dataclass(frozen=True)
class SurfaceGeometry:
    """Rectangular surface of width W and height H, in meters."""

    width_m: float
    height_m: float

    def __post_init__(self):
        if not (0.0 < self.width_m < math.inf and 0.0 < self.height_m < math.inf):
            raise DomainError("surface dimensions must be positive and finite")
        # a finite area keeps the diagonal finite too: it overflows only
        # where both sides are near the float maximum
        if not 0.0 < self.area_m2 < math.inf:
            raise DomainError("surface area must be positive and finite")

    @property
    def area_m2(self) -> float:
        # Python floats overflow to inf silently, numpy scalars with a warning
        return float(self.width_m) * float(self.height_m)

    @property
    def diagonal_m(self) -> float:
        return math.hypot(self.width_m, self.height_m)

    def canonical(self) -> tuple[float, float]:
        """Dimensions ordered as (long side, short side).

        The isotropic moment formulas assume H <= W; the orientation of the
        rectangle is irrelevant to every distance-based statistic.
        """
        if self.width_m >= self.height_m:
            return self.width_m, self.height_m
        return self.height_m, self.width_m


@dataclass(frozen=True)
class IsotropicCorrelation:
    """Isotropic spatial correlation, either sinc or Jakes shaped.

    kappa = 0 degenerates to perfect correlation (rho identically 1).
    """

    kind: CorrelationKind
    kappa: float
    wavelength_m: float

    def __post_init__(self):
        if not isinstance(self.kind, CorrelationKind):
            raise DomainError(f"kind must be a CorrelationKind, got {self.kind!r}")
        # an infinite kernel scale would make rho(0) inf * 0
        if not (0.0 <= self.kappa and self._scale < math.inf):
            raise DomainError(f"kappa must be >= 0 with a finite {self.kind.value} "
                              f"kernel scale, got {self.kappa!r}")
        if not 0.0 < self.wavelength_m < math.inf:
            raise DomainError("wavelength must be positive and finite")

    @property
    def _scale(self) -> float:
        """The kernel argument per wavelength: 2 kappa (sinc), 2 pi kappa (Jakes)."""
        kappa = float(self.kappa)  # a Python float overflows without a warning
        return 2.0 * kappa if self.kind is CorrelationKind.SINC else 2.0 * math.pi * kappa

    def rho(self, r_m):
        """Correlation coefficient at separation r_m (meters); vectorized."""
        with np.errstate(over="ignore"):  # both kernels take their limit at inf
            arg = self._scale * (np.asarray(r_m, dtype=float) / self.wavelength_m)
        out = sinc_norm(arg) if self.kind is CorrelationKind.SINC else bessel_j0(arg)
        return out if np.ndim(r_m) else float(out)


@dataclass(frozen=True)
class LinkBudget:
    """Path-loss model beta = c0 * (d / d0)^(-alpha) plus the node layout.

    The BS sits at the origin of a baseline running to the surface at
    distance ``d_rb_m``; the terminal is offset ``d_x_m`` along the baseline
    and ``d_y_m`` perpendicular to it.
    """

    c0: float = 1e-3
    d0_m: float = 1.0
    alpha_d: float = 6.0
    alpha_rb: float = 1.7
    alpha_ur: float = 1.7
    d_rb_m: float = 5.0
    d_x_m: float = 30.0
    d_y_m: float = 1.0

    def __post_init__(self):
        if not (0.0 < self.c0 < math.inf and 0.0 < self.d0_m < math.inf):
            raise DomainError("c0 and d0_m must be positive and finite")
        if not all(0.0 <= v < math.inf for v in (self.alpha_d, self.alpha_rb, self.alpha_ur)):
            raise DomainError("path-loss exponents must be finite and >= 0")
        if not all(0.0 <= v < math.inf for v in (self.d_rb_m, self.d_x_m, self.d_y_m)):
            raise DomainError("layout distances must be finite and >= 0")


@dataclass(frozen=True)
class BsArrayConfig:
    """Vertical uniform rectangular array at the base station."""

    m_x: int = 8
    m_z: int = 4
    spacing_wavelengths: float = 0.5
    theta_a_rad: float = math.pi / 2.0
    phi_a_rad: float = math.pi / 4.0

    def __post_init__(self):
        if not all(isinstance(m, numbers.Integral) and m >= 1 for m in (self.m_x, self.m_z)):
            raise DomainError("antenna counts must be integers >= 1")
        # a numpy integer would multiply in its own dtype and wrap
        object.__setattr__(self, "m_x", int(self.m_x))
        object.__setattr__(self, "m_z", int(self.m_z))
        most = np.iinfo(np.intp).max
        if self.m > most:
            raise DomainError(f"m_x * m_z exceeds {most}, the most antennas numpy can index")
        if not 0.0 < self.spacing_wavelengths < math.inf:
            raise DomainError("antenna spacing must be positive and finite")
        if not 0.0 <= self.theta_a_rad <= math.pi:
            raise DomainError("elevation must lie in [0, pi]")
        if not -math.pi < self.phi_a_rad <= math.pi:
            raise DomainError("azimuth must lie in (-pi, pi]")

    @property
    def m(self) -> int:
        return self.m_x * self.m_z


@dataclass(frozen=True)
class SystemConfig:
    """Complete single-terminal system description.

    The surface and the array see one carrier, so both correlation models
    carry the same wavelength.
    """

    geometry: SurfaceGeometry
    correlation: IsotropicCorrelation
    bs_correlation: IsotropicCorrelation
    link: LinkBudget
    array: BsArrayConfig
    transmit_snr: float

    def __post_init__(self):
        if not 0.0 < self.transmit_snr < math.inf:
            raise DomainError("transmit_snr must be positive and finite")
        if self.correlation.wavelength_m != self.bs_correlation.wavelength_m:
            raise DomainError("the surface and array correlations must share one wavelength")


@dataclass(frozen=True)
class ChannelGains:
    beta_d: float
    beta_rb: float
    beta_ur: float


def _element_positions_wavelengths(array: BsArrayConfig) -> tuple[np.ndarray, np.ndarray]:
    # flat index p * m_z + q for row p (horizontal) and column q (vertical)
    p = np.repeat(np.arange(array.m_x), array.m_z)
    q = np.tile(np.arange(array.m_z), array.m_x)
    return p * array.spacing_wavelengths, q * array.spacing_wavelengths


def steering_vector(array: BsArrayConfig) -> np.ndarray:
    """Unit-modulus arrival phase ramp across the array; a^H a = M exactly."""
    x, z = _element_positions_wavelengths(array)
    phase = 2.0 * math.pi * (
        x * math.sin(array.theta_a_rad) * math.cos(array.phi_a_rad)
        + z * math.cos(array.theta_a_rad))
    return np.exp(1j * phase)


def clip_spectrum(eigvals: np.ndarray):
    """Clamp the negative eigenvalues of a correlation spectrum to 0, or
    reject the spectrum as indefinite.

    ``eigvals`` may be the union of the spectra of independent diagonal
    blocks; every rule below is then judged on the union.  Returns
    ``(eigvals_clipped, clipped_mass)``, where clipped_mass is the removed
    fraction of total absolute eigenvalue mass.  Raises
    :class:`CovarianceRepairFailure` when the largest eigenvalue is not
    positive, when any eigenvalue is more negative than ``_REJECT_RATIO``
    times the largest one, or when the clipped mass exceeds
    ``_CLIPPED_MASS_LIMIT``.
    """
    largest = eigvals.max()
    if largest <= 0.0:
        raise CovarianceRepairFailure("correlation matrix has no positive spectrum")
    smallest = eigvals.min()
    if smallest < -_REJECT_RATIO * largest:
        raise CovarianceRepairFailure(
            f"eigenvalue {smallest:.3e} too negative relative to {largest:.3e}")
    total_mass = np.abs(eigvals).sum()
    clipped_mass = float(-eigvals[eigvals < 0.0].sum() / total_mass)
    if clipped_mass > _CLIPPED_MASS_LIMIT:
        raise CovarianceRepairFailure(
            f"clipped eigenvalue mass {clipped_mass:.3e} exceeds {_CLIPPED_MASS_LIMIT:.0e}")
    return np.maximum(eigvals, 0.0), clipped_mass


def clipped_eigh(matrix: np.ndarray):
    """Eigendecompose an exactly symmetric matrix and clip its spectrum.

    Returns ``(eigvals_clipped, eigvecs, clipped_mass)`` with the eigenvalues
    ascending; the spectrum rules are those of :func:`clip_spectrum`.
    """
    eigvals, eigvecs = np.linalg.eigh(matrix)
    clipped, clipped_mass = clip_spectrum(eigvals)
    return clipped, eigvecs, clipped_mass


def bs_correlation_matrix(array: BsArrayConfig, model: IsotropicCorrelation) -> np.ndarray:
    """Antenna correlation matrix from pairwise grid distances: unit
    diagonal, exactly symmetric (the hypot of negated differences is
    exact), and PSD up to roundoff, since J0 and sinc of planar distances
    are positive-definite kernels (Schoenberg 1938)."""
    x, z = _element_positions_wavelengths(array)
    # grid distances in meters so the correlation model applies unchanged
    dx = (x[:, None] - x[None, :]) * model.wavelength_m
    dz = (z[:, None] - z[None, :]) * model.wavelength_m
    dist = np.hypot(dx, dz)
    corr = model.rho(dist)
    np.fill_diagonal(corr, 1.0)
    return corr


def derive_gains(cfg: SystemConfig) -> ChannelGains:
    """Per-link gains c0 * (d / d0)^(-alpha) for the direct, surface-BS and
    terminal-surface distances of the layout, each with its own exponent."""
    link = cfg.link
    distances = (math.hypot(link.d_x_m, link.d_y_m), link.d_rb_m,
                 math.hypot(link.d_rb_m - link.d_x_m, link.d_y_m))
    if 0.0 in distances:
        raise DegenerateGeometry("the terminal, BS and surface must not coincide")
    alphas = (link.alpha_d, link.alpha_rb, link.alpha_ur)
    try:
        gains = [link.c0 * (d / link.d0_m) ** (-alpha)
                 for d, alpha in zip(distances, alphas)]
    except OverflowError:  # the power alone leaves the floating-point range
        gains = [math.inf]
    if math.inf in gains:
        raise DegenerateGeometry("a path gain overflows: a link far below d0_m or a huge c0")
    return ChannelGains(*gains)
