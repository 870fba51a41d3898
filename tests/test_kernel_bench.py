"""Kernel microbenchmarks: the chi samplers at the `chi` benchmark size (20 000
draws x 4 functions x 4096 cells), the battery Gram (G, T) and the factor of
the chi law read from it at the `chi` and `moments` sizes (4 and 16
functions on 4096 cells), `build_q` + `wick_moment` at moment orders 16 and
24 on a precomputed Gram, the Monte Carlo oracle `mc_oracle` at the
`moments` benchmark size (16 functions, 4000 draws, p = q = 8), the Fock and
sigma_mu^2 quadratures (`fock_functional` per function and `variances` of
the battery) on the `chi` battery and on the `dynamics` one (32 768 cells x
3 functions), and `sigma_t` at the `dynamics` benchmark size (32 768 cells x
3 functions x 1001 times) on both of its paths: the photon dispersion takes
the chirp-z level sum, the quadratic one the direct sum.  The output layer:
`Run.write_csv` at the `chi` benchmark size (20 000 samples x 4 functions, 4
float columns), in one process, and on the `dynamics` benchmark's table
(1001 times x 3 columns, about 30 % of the cells in exponent form) beside a
per-row `csv.writer`; the float formatter `repr_chars` on 320 000 floats in
the writer's blocks, chi draws and floats that all take its `repr` fallback,
beside plain `repr` on the same blocks; and `cli.main`'s parse plus config
load on the `dynamics` benchmark config, with the parser built in each round
and taken from the cache.

Deselected by default (`kernel_bench` marker); run with
`PYTHONPATH=src python -m pytest -m kernel_bench tests/test_kernel_bench.py`.
"""

import csv
import json

import numpy as np
import pytest

from cohlim import cli
from cohlim.config import (
    build_density,
    build_dispersion,
    build_grid,
    build_test_function,
    load_config,
    parse_t_grid,
)
from cohlim.dynamics import sigma_t, uniformization_curve
from cohlim.float_text import repr_chars
from cohlim.functionals import fock_functional, variances
from cohlim.ito_sampler import chi_gram_factor, sample_chi, sample_chi_gram
from cohlim.mode_space import battery_gram
from cohlim.moments import build_q, mc_oracle, wick_moment

pytestmark = pytest.mark.kernel_bench

SAMPLES = 20_000
MU2 = 0.3 + 0.2j


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
    return battery, rho


@pytest.fixture(scope="module")
def dynamics_inputs():
    grid = build_grid({"d": 1, "R": 8.0, "N": 32768})
    rho = build_density({"name": "gaussian", "center": 0.0, "width": 1.5}, grid)
    fns = [
        {"name": "gaussian", "center": 0.0, "width": 1.0, "modulation": 0.5},
        {"name": "gaussian", "center": 1.0, "width": 0.6},
        {"name": "gaussian", "center": -2.0, "width": 1.5, "modulation": -1.0},
    ]
    battery = [build_test_function(obj, grid) for obj in fns]
    return battery, rho


@pytest.fixture(params=["chi", "dynamics"])
def quadrature_inputs(request):
    """The battery and density of the `chi` (4 x 4096) or `dynamics` (3 x 32 768) benchmark."""
    return request.getfixturevalue(f"{request.param}_inputs")


def test_variances_kernel(benchmark, quadrature_inputs):
    battery, rho = quadrature_inputs
    sig = benchmark.pedantic(variances, args=(battery, rho, MU2), rounds=20, iterations=1)
    assert sig.shape == (len(battery),)


def test_fock_functional_kernel(benchmark, quadrature_inputs):
    battery, _ = quadrature_inputs

    def kernel():
        return [fock_functional(f) for f in battery]

    values = benchmark.pedantic(kernel, rounds=20, iterations=1)
    assert all(0.0 < fv.value.real <= 1.0 for fv in values)


@pytest.mark.parametrize("sampler", ["cells", "gram"])
def test_sample_chi_kernel(benchmark, chi_inputs, sampler):
    battery, rho = chi_inputs
    rng = np.random.default_rng(1)
    if sampler == "cells":
        chis = benchmark.pedantic(sample_chi, args=(battery, rho, MU2, SAMPLES, rng), rounds=3, iterations=1)
    else:
        gram = battery_gram(battery, rho)
        chis = benchmark.pedantic(sample_chi_gram, args=(gram, MU2, SAMPLES, rng), rounds=3, iterations=1)
    assert chis.shape == (SAMPLES, len(battery))


def gram_inputs(n_fns):
    grid = build_grid({"d": 1, "R": 4.0, "N": 4096})
    rho = build_density({"name": "gaussian", "center": 0.5, "width": 1.0}, grid)
    battery = [
        build_test_function(
            {"name": "gaussian", "center": -3.0 + 6.0 * i / n_fns, "width": 0.7, "modulation": 0.3 * i},
            grid,
        )
        for i in range(n_fns)
    ]
    return battery, rho


@pytest.mark.parametrize("n_fns", [4, 16])
def test_battery_gram_kernel(benchmark, n_fns):
    g, t = benchmark.pedantic(battery_gram, args=gram_inputs(n_fns), rounds=20, iterations=1)
    assert g.shape == t.shape == (n_fns, n_fns)


@pytest.mark.parametrize("n_fns", [4, 16])
def test_chi_gram_factor_kernel(benchmark, n_fns):
    gram = battery_gram(*gram_inputs(n_fns))
    r = benchmark.pedantic(chi_gram_factor, args=(gram, MU2), rounds=20, iterations=1)
    assert r.shape[1] == 2 * n_fns


@pytest.mark.parametrize("order", [16, 24])
def test_wick_moment_kernel(benchmark, order):
    grid = build_grid({"d": 1, "R": 4.0, "N": 4096})
    rho = build_density({"name": "gaussian", "center": 0.0, "width": 2.0}, grid)
    battery = [
        build_test_function(
            {"name": "gaussian", "center": -3.0 + 6.0 * i / order, "width": 0.25, "modulation": 0.3 * i},
            grid,
        )
        for i in range(order)
    ]
    gram = battery_gram(battery, rho)

    def kernel():
        return wick_moment(build_q(gram, order // 2, MU2))

    value = benchmark.pedantic(kernel, rounds=3, iterations=1)
    assert np.isfinite(value)


def test_mc_oracle_kernel(benchmark):
    gram = battery_gram(*gram_inputs(16))
    rng = np.random.default_rng(1)
    est = benchmark.pedantic(mc_oracle, args=(gram, 8, MU2, 4000, rng), rounds=20, iterations=1)
    assert np.isfinite(est.value) and est.stderr > 0


@pytest.mark.parametrize("form", ["photon", "quadratic"], ids=["chirp", "direct"])
def test_sigma_t_kernel(benchmark, dynamics_inputs, form):
    battery, rho = dynamics_inputs
    eps = build_dispersion({"form": form}, rho.grid)
    ts = parse_t_grid("0:100:0.1")
    table = benchmark.pedantic(sigma_t, args=(battery, rho, -1.0, eps, ts), rounds=3, iterations=1)
    assert table.shape == (len(ts), len(battery))


def test_write_draws_kernel(benchmark, tmp_path):
    columns = list(np.random.default_rng(1).standard_normal((4, SAMPLES, 4)))
    header = ["sample", "label", "chi_re", "chi_im", "functional_re", "functional_im"]
    kwargs = {"labels": ["g0", "g1", "g2", "g3"], "numbered": True}
    run = cli.Run({}, tmp_path)
    benchmark.pedantic(run.write_csv, args=("chi_samples.csv", header, columns), kwargs=kwargs, rounds=3, iterations=1)
    assert len((tmp_path / "chi_samples.csv").read_text().splitlines()) == 1 + 4 * SAMPLES


@pytest.fixture(scope="module")
def dynamics_table(dynamics_inputs):
    """The columns of the `dynamics` benchmark's dynamics.csv: t, sigma_t of
    the first function and the uniformization metric at 1001 times."""
    battery, rho = dynamics_inputs
    ts = parse_t_grid("0:100:0.1")
    unif = variances(battery, rho, 0.0)
    sig = sigma_t(battery, rho, -1.0, build_dispersion({"form": "photon"}, rho.grid), ts, unif)
    return [ts, sig[:, 0], uniformization_curve(battery, unif, sig)]


@pytest.mark.parametrize("writer", ["blocks", "csv_writer"])
def test_write_table_kernel(benchmark, tmp_path, dynamics_table, writer):
    header = ["t", "sigma_t", "metric"]
    path = tmp_path / "dynamics.csv"

    def per_row():
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(header)
            for row in zip(*(col.tolist() for col in dynamics_table)):
                out.writerow(row)

    def blocks():
        cli.Run({}, tmp_path).write_csv(path.name, header, dynamics_table)

    cells = np.concatenate(dynamics_table)
    benchmark.extra_info["exponent_form"] = int(np.sum((cells != 0) & (np.abs(cells) < 1e-4)))
    benchmark.pedantic(blocks if writer == "blocks" else per_row, rounds=20, iterations=1)
    assert len(path.read_text().splitlines()) == 1 + len(dynamics_table[0])


@pytest.mark.parametrize("formatter", ["repr_chars", "repr"])
@pytest.mark.parametrize("values", ["chi", "fallback"])
def test_float_format_kernel(benchmark, formatter, values):
    """chi draws, or draws scaled by 1e-6: exponent forms, each of which
    `repr_chars` hands to repr."""
    columns = np.random.default_rng(1).standard_normal((4, SAMPLES, 4)) * (1e-6 if values == "fallback" else 1.0)
    block = cli.CSV_CELLS // 16  # samples of the chi writer's blocks: 4 functions x 4 columns
    blocks = [columns[:, lo : lo + block].ravel() for lo in range(0, SAMPLES, block)]
    benchmark.extra_info["floats"] = columns.size

    def kernel():
        for block in blocks:
            repr_chars(block) if formatter == "repr_chars" else list(map(repr, block.tolist()))

    benchmark.pedantic(kernel, rounds=5, iterations=1)


@pytest.mark.parametrize("parser", ["built", "cached"])
def test_parse_and_load_kernel(benchmark, tmp_path, parser):
    fns = [
        {"name": "gaussian", "label": "h0", "center": 0.0, "width": 1.0, "modulation": 0.5},
        {"name": "gaussian", "label": "h1", "center": 1.0, "width": 0.6},
        {"name": "gaussian", "label": "h2", "center": -2.0, "width": 1.5, "modulation": -1.0},
    ]
    cfg = {
        "experiment": "dynamics",
        "grid": {"d": 1, "R": 8.0, "N": 32768},
        "density": {"name": "gaussian", "center": 0.0, "width": 1.5},
        "mu2": [-1.0, 0.0],
        "dispersion": {"form": "photon"},
        "functions": fns,
    }
    path = tmp_path / "dynamics.json"
    path.write_text(json.dumps(cfg))
    argv = ["dynamics", "--config", str(path), "--out", str(tmp_path / "o"), "--t-grid", "0:100:0.1"]

    def kernel():
        return load_config(cli.parser().parse_args(argv).config)

    setup = cli.parser.cache_clear if parser == "built" else None
    assert benchmark.pedantic(kernel, setup=setup, rounds=20, iterations=1) == cfg
