"""Statistics of a continuously phase-controlled reflective surface.

Closed-form moments and bounds for the SNR-optimal design over correlated
Rayleigh fading, a brute-force quadrature cross-check, a deterministic
Monte Carlo simulator and a scenario CLI.
"""

__version__ = "0.1.0"

from . import analytic, cli, mcsim, quadrature, specfun, sysmodel  # noqa: F401
from .errors import (  # noqa: F401
    ConfigError,
    ContrisError,
    CovarianceRepairFailure,
    DegenerateGeometry,
    DomainError,
    QuadratureFailure,
)
