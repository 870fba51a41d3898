"""End-to-end acceptance battery.

Each test covers one numbered acceptance criterion, prints a single
pass/fail verdict line, and asserts at the stated tolerance.  Seeds are
fixed; tolerances are 5-sigma (or explicitly stated) so the suite is
deterministic in practice.
"""

import math

import numpy as np
from scipy import stats

from cohlim.circle_measure import PhaseMeasure, fourier_moment
from cohlim.dynamics import Dispersion, uniformization_metric
from cohlim.functionals import (
    CoherentModeSet,
    divergence_diagnostic,
    fock_functional,
    n_mode_functional,
    phase_averaged_functional,
    sigma_mu_sq,
)
from cohlim.gns_reps import rep_expectation_averaged
from cohlim.ito_sampler import clt_sample, random_functional, sample_chi
from cohlim.mode_space import ModeDensity, MomentumGrid, TestFunction, inner
from cohlim.moments import permanent_moment, product_moment, wick_moment
from cohlim.open_system import gamma, gamma_radial

from conftest import built_pairs, ito_pair, make_battery, opposite_pair, q_matrix, with_values

TWO_PI = 2.0 * math.pi


def verdict(num, name, ok):
    print(f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({name}) failed"


def std_setup(n=4096, r=4.0):
    grid = MomentumGrid(d=1, R=r, N=n)
    f = TestFunction.from_profile(
        grid, lambda k: np.exp(-(k ** 2) / 2.0) * np.exp(1j * k), label="mod-gauss"
    )
    rho = ModeDensity.from_profile(grid, lambda k: np.exp(-((k - 1.0) ** 2)))
    return grid, f, rho


def test_criterion_1_ito_isometry():
    grid = MomentumGrid(d=1, R=4.0, N=4096)
    battery = make_battery(grid, 20, np.random.default_rng(101))
    m = 20_000
    chis = sample_chi(battery, *ito_pair(grid), m, np.random.default_rng(11))
    est = np.mean(np.abs(chis) ** 2, axis=0)
    tol = 5.0 * math.sqrt(2.0 / m)
    rel = np.array(
        [abs(e - inner(f, f).real) / inner(f, f).real for e, f in zip(est, battery)]
    )
    verdict(1, "ito isometry", bool(np.all(rel < tol)))


def test_criterion_2_clt_ks():
    grid, f, rho = std_setup()
    ok = True
    for seed, mu in ((11, PhaseMeasure.uniform()), (12, opposite_pair())):
        draws = clt_sample(f, rho, mu, 2000, np.random.default_rng(seed))
        sig = math.sqrt(sigma_mu_sq(f, rho, fourier_moment(mu, 2)))
        ks = stats.kstest(draws, "norm", args=(0.0, sig)).statistic
        ok = ok and ks < 1.95 / math.sqrt(2000)
    verdict(2, "finite-mode central limit", ok)


def test_criterion_3_variance_law():
    grid, f, rho = std_setup()
    m = 40_000
    ok = True
    for seed, mu2 in ((21, 0.0), (22, 0.5), (23, -1.0), (24, 0.5j)):
        chis = sample_chi([f], rho, mu2, m, np.random.default_rng(seed))[:, 0]
        target = sigma_mu_sq(f, rho, mu2)
        se = target * math.sqrt(2.0 / m)
        ok = ok and abs(np.var(chis.real, ddof=1) - target) < 5.0 * se
    verdict(3, "variance law", ok)


def test_criterion_4_commuting_diagram():
    grid, _, rho = std_setup()
    battery = make_battery(grid, 10, np.random.default_rng(404))
    m = 10_000
    tol = 4.0 / math.sqrt(m)
    ok = True
    for seed, mu in ((41, PhaseMeasure.uniform()), (42, opposite_pair())):
        mu2 = fourier_moment(mu, 2)
        chis = sample_chi(battery, rho, mu2, m, np.random.default_rng(seed))
        for j, f in enumerate(battery):
            mc = fock_functional(f).value * np.mean(np.exp(1j * chis[:, j].real))
            closed = phase_averaged_functional(f, rho, mu2).value
            ok = ok and abs(mc - closed) < tol
    verdict(4, "sampling commutes with averaging", ok)


def test_criterion_5_quasifree_moments():
    grid, _, rho = std_setup(n=1024)
    battery = make_battery(grid, 4, np.random.default_rng(505))
    mu2 = 0.3 + 0.2j
    m = 40_000
    ok = True
    for seed, (p, q) in ((51, (1, 1)), (52, (2, 0)), (53, (0, 2)), (54, (2, 2)), (55, (3, 1))):
        fs, gs = battery[:p], battery[p : p + q]
        closed = wick_moment(q_matrix(fs, gs, rho, mu2))
        est = product_moment(sample_chi(fs + gs, rho, mu2, m, np.random.default_rng(seed)), p, q)
        ok = ok and est.z_score(closed) < 5.0
    # odd orders vanish: closed form exactly, MC within noise
    for seed, (p, q) in ((56, (1, 0)), (57, (2, 1))):
        fs, gs = battery[:p], battery[p : p + q]
        assert wick_moment(q_matrix(fs, gs, rho, mu2)) == 0.0
        est = product_moment(sample_chi(fs + gs, rho, mu2, m, np.random.default_rng(seed)), p, q)
        ok = ok and est.z_score(0.0) < 5.0
    # permanent route at mu_hat(2) = 0
    q0 = q_matrix(battery[:2], battery[2:4], rho, 0.0)
    ok = ok and abs(
        wick_moment(q0) - permanent_moment(battery[:2], battery[2:4], rho)
    ) < 1e-10
    verdict(5, "quasifree moments", ok)


def test_criterion_6_gns_consistency():
    grid = MomentumGrid(d=1, R=4.0, N=1024)
    rng = np.random.default_rng(606)
    ok = True
    for _ in range(20):
        c, w = rng.uniform(-1.5, 1.5), rng.uniform(0.5, 1.5)
        f = TestFunction.from_profile(
            grid,
            lambda k: np.exp(-((k - c) ** 2) / (2 * w ** 2))
            * np.exp(1j * rng.uniform(-2, 2) * k),
        )
        rho = ModeDensity.from_profile(
            grid, lambda k, a=rng.uniform(0.2, 2.0): a * np.exp(-(k ** 2))
        )
        r = rng.uniform(0.0, 1.0)
        mu2 = r * np.exp(1j * rng.uniform(0.0, TWO_PI))
        lhs = rep_expectation_averaged(f, rho, mu2).value
        rhs = fock_functional(f).value * math.exp(-sigma_mu_sq(f, rho, mu2) / 2.0)
        ok = ok and abs(lhs - rhs) < 1e-9
    verdict(6, "gns consistency", ok)


def test_criterion_7_uniformization():
    grid = MomentumGrid(d=1, R=6.0, N=2 ** 15)
    battery = [
        TestFunction.from_profile(
            grid,
            lambda k, c=c: np.exp(-((k - c) ** 2) / 2.0),
            label=f"c{c}",
        )
        for c in (1.0, 2.0, 3.0)
    ]
    rho = ModeDensity.from_profile(grid, lambda k: np.exp(-((k - 2.0) ** 2)))
    eps = Dispersion.photon(grid)
    metric = uniformization_metric(battery, rho, -1.0, eps, 100.0)
    exact_zero = uniformization_metric(battery, rho, 0.0, eps, 100.0) == 0.0
    verdict(7, "phase uniformization", metric < 1e-4 and exact_zero)


def test_criterion_8_divergence_rates():
    fit1 = divergence_diagnostic(
        built_pairs(
            lambda k: np.exp(-(k ** 2) / 2.0),
            lambda k: np.exp(-(k ** 2)),
            [64, 128, 256, 512, 1024],
        )
    )
    fit2 = divergence_diagnostic(
        built_pairs(
            lambda p: np.exp(-np.sum(p ** 2, axis=-1) / 2.0),
            lambda p: np.exp(-np.sum(p ** 2, axis=-1)),
            [16, 24, 32, 48, 64],
            d=2,
        )
    )
    ok = (
        fit1.conclusive
        and abs(fit1.slope - 0.5) < 0.05
        and fit2.conclusive
        and abs(fit2.slope - 1.0) < 0.1
    )
    verdict(8, "fixed-phase divergence rates", ok)


def test_criterion_9_decoherence():
    grid, _, rho = std_setup()
    g = TestFunction.from_profile(grid, lambda k: np.exp(-(k ** 2)), label="coupling")
    eps = Dispersion.photon(grid)
    dg = 1.0
    rate = inner(g, g, rho).real
    m = 10_000
    chis = sample_chi([g], rho, 0.0, m, np.random.default_rng(91))[:, 0].real
    ok = True
    for t in (0.5, 1.0, 2.0):
        mc = np.mean(np.exp(-1j * t * dg * chis))
        expect = math.exp(-0.5 * t * t * dg * dg * rate)
        ok = ok and abs(mc - expect) / expect < 5.0 / math.sqrt(m)
    # small-time quadratic growth over the infrared-masked cells
    mask = eps.values >= 1e-8
    masked = float(grid.cell_volume * np.sum(np.abs(g.values[mask]) ** 2))
    t0 = 1e-3
    ok = ok and abs(gamma(t0, g, eps) / t0 ** 2 - masked / 2.0) < 0.01 * masked / 2.0
    # d = 3 infrared-singular coupling: linear growth with slope 2 pi^2
    ang = lambda r: 4.0 * np.pi * np.exp(-2.0 * r ** 2) / r ** 2
    slope = gamma_radial(200.0, ang, 40.0) / 200.0
    ok = ok and abs(slope - 2.0 * math.pi ** 2) < 0.05 * 2.0 * math.pi ** 2
    verdict(9, "decoherence envelopes", ok)


def test_criterion_10_state_axioms():
    grid, f, rho = std_setup(n=512)
    battery = make_battery(grid, 4, np.random.default_rng(1010))
    zero = TestFunction(grid, np.zeros(grid.n_cells))
    modes = CoherentModeSet([0.5, -1.0], [2.0, 1.0], [0.3, 1.1])
    mu = opposite_pair()
    mu2 = fourier_moment(mu, 2)

    functionals = {
        "fock": lambda h: fock_functional(h).value,
        "n_mode": lambda h: n_mode_functional(h, modes).value,
        "averaged": lambda h: phase_averaged_functional(h, rho, mu2).value,
        # one sample omega, fixed by the seed
        "random": lambda h: random_functional(
            [h], sample_chi([h], rho, mu2, 1, np.random.default_rng(1001))
        )[0, 0],
    }

    def symplectic(a, b):
        return (TWO_PI) ** (-grid.d) * (
            grid.cell_volume * np.sum(np.conj(a.values) * b.values)
        ).imag

    ok = True
    for name, E in functionals.items():
        # normalization and conjugation axioms, exact
        ok = ok and E(zero) == 1.0
        for h in battery:
            neg = with_values(h, -h.values)
            ok = ok and E(neg) == np.conj(E(h))
        # positivity: the K x K Gram matrix is PSD up to round-off
        gram = np.empty((4, 4), dtype=complex)
        for a in range(4):
            for b in range(4):
                diff = with_values(battery[a], battery[a].values - battery[b].values)
                gram[a, b] = (
                    np.exp(0.5j * symplectic(battery[a], battery[b])) * E(diff)
                )
        eigs = np.linalg.eigvalsh(0.5 * (gram + gram.conj().T))
        ok = ok and eigs.min() > -1e-9
    verdict(10, "state axioms", ok)
