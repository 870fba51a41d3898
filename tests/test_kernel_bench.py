"""Kernel microbenchmarks of the chi samplers at the `chi` benchmark size
(20 000 draws x 4 functions x 4096 cells).

Deselected by default (`kernel_bench` marker); run with
`PYTHONPATH=src python -m pytest -m kernel_bench tests/test_kernel_bench.py`.
"""

import numpy as np
import pytest

from cohlim.config import build_density, build_grid, build_test_function
from cohlim.ito_sampler import build_coefficients, sample_chi, sample_chi_gram

pytestmark = pytest.mark.kernel_bench

SAMPLES = 20_000


@pytest.fixture(scope="module")
def chi_inputs():
    grid = build_grid({"d": 1, "R": 4.0, "N": 4096})
    rho = build_density({"name": "gaussian", "center": 0.5, "width": 1.0}, grid)
    fns = [
        {"name": "gaussian", "center": 0.0, "width": 1.0},
        {"name": "gaussian", "center": 0.5, "width": 0.7, "modulation": 1.0},
        {"name": "gaussian", "center": -1.0, "width": 1.2, "modulation": -0.5},
        {"name": "gaussian", "center": 1.5, "width": 0.5, "modulation": 2.0, "amplitude": 0.8},
    ]
    battery = [build_test_function(obj, grid) for obj in fns]
    return battery, build_coefficients(rho, 0.3 + 0.2j)


@pytest.mark.parametrize("sampler", [sample_chi, sample_chi_gram], ids=["cells", "gram"])
def test_sample_chi_kernel(benchmark, chi_inputs, sampler):
    battery, coeffs = chi_inputs
    rng = np.random.default_rng(1)
    chis = benchmark.pedantic(sampler, args=(battery, coeffs, SAMPLES, rng), rounds=3, iterations=1)
    assert chis.shape == (SAMPLES, len(battery))
