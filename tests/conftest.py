import numpy as np
import pytest

from contris import mcsim
from contris.cli import default_system

# one master seed for every cached Monte Carlo run; identical (system, grid,
# n) requests across test modules share the same batch
MASTER_SEED = 1234


@pytest.fixture(scope="session")
def paper_system():
    return default_system()


@pytest.fixture(scope="session")
def batches():
    """Session cache of Monte Carlo batches keyed by run parameters."""
    cache = {}

    def get(system, nx, ny, n, seed=MASTER_SEED):
        key = (system.geometry.width_m, system.geometry.height_m,
               system.correlation.kind.value, system.correlation.kappa,
               system.bs_correlation.kind.value, system.bs_correlation.kappa,
               system.link, system.array, system.transmit_snr,
               nx, ny, n, seed)
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
