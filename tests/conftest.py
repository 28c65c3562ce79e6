import numpy as np
import pytest

from contris import mcsim
from contris.cli import default_system
from contris.sysmodel import CorrelationKind, IsotropicCorrelation

# one master seed for every cached Monte Carlo run; identical (system, grid,
# n) requests across test modules share the same batch
MASTER_SEED = 1234

# the default carrier's wavelength, and the default system's beta_ur
WAVELENGTH = 299792458.0 / 5.8e9
BETA_UR = 4.196737608386484e-06


def jakes(kappa=1.0):
    return IsotropicCorrelation(CorrelationKind.JAKES, kappa, WAVELENGTH)


def sinc_model(kappa=1.0):
    return IsotropicCorrelation(CorrelationKind.SINC, kappa, WAVELENGTH)


class ZeroCorrelation:
    """Synthetic model: perfectly uncorrelated except at zero separation."""

    kappa = 0.0

    def rho(self, r):
        arr = np.asarray(r, dtype=float)
        return np.where(arr == 0.0, 1.0, 0.0)


@pytest.fixture(scope="session")
def paper_system():
    return default_system()


@pytest.fixture(scope="session")
def batches():
    """Session cache of Monte Carlo batches keyed by run parameters; the
    frozen system is its own key, every field of it."""
    cache = {}

    def get(system, nx, ny, n, seed=MASTER_SEED):
        key = (system, nx, ny, n, seed)
        if key not in cache:
            grid = mcsim.GridSpec(nx, ny)
            cache[key] = mcsim.run_replicates(system, grid, n, seed)
        return cache[key]

    return get


@pytest.fixture(autouse=True)
def fresh_surface_factors():
    """Build unit surface factors anew in every test, so that a test that
    patches the factor path never sees a factor cached by another."""
    mcsim._last_surface.clear()
    yield
    mcsim._last_surface.clear()


@pytest.fixture()
def rng():
    return np.random.default_rng(MASTER_SEED)
