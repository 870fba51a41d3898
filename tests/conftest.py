import numpy as np
import pytest

from cohlim.ito_sampler import CoefficientPair
from cohlim.mode_space import ModeDensity, MomentumGrid, TestFunction


@pytest.fixture
def grid():
    return MomentumGrid(d=1, R=4.0, N=256)


@pytest.fixture
def fine_grid():
    return MomentumGrid(d=1, R=4.0, N=4096)


@pytest.fixture
def gauss(grid):
    return TestFunction.from_profile(
        grid, lambda k: np.exp(-(k ** 2) / 2.0) * np.exp(1j * k), label="gauss"
    )


@pytest.fixture
def rho(grid):
    return ModeDensity.from_profile(grid, lambda k: np.exp(-((k - 1.0) ** 2)))


def make_battery(grid, n, rng=None):
    """Deterministic battery of smooth complex test functions."""
    rng = rng or np.random.default_rng(2024)
    fns = []
    for i in range(n):
        c = rng.uniform(-1.5, 1.5)
        w = rng.uniform(0.6, 1.6)
        m = rng.uniform(-2.0, 2.0)
        a = rng.uniform(0.5, 1.5)
        fns.append(
            TestFunction.from_profile(
                grid,
                lambda k, c=c, w=w, m=m, a=a: a
                * np.exp(-((k - c) ** 2) / (2 * w ** 2))
                * np.exp(1j * m * k),
                label=f"b{i}",
            )
        )
    return fns


def ito_pair(grid):
    """The coefficient pair (S1, S2) = (1, 0): chi(f) is then the plain Ito
    integral of fhat against one Brownian field, so E|chi(f)|^2 = |f|^2 (the
    pair of rho = 1/2, mu_hat(2) = 1)."""
    n = grid.n_cells
    return CoefficientPair(grid, np.ones(n, dtype=complex), np.zeros(n, dtype=complex), 1.0)


# pytest tries to collect the imported TestFunction dataclass as a test class;
# it is library code, not a test.
from cohlim.mode_space import TestFunction as _TF  # noqa: E402

_TF.__test__ = False
