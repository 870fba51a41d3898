import math

import numpy as np
import pytest
from scipy import stats

from cohlim.circle_measure import InadmissibleMeasureError, PhaseMeasure
from cohlim.functionals import fock_functional, sigma_mu_sq
from cohlim.ito_sampler import (
    DegenerateVarianceError,
    build_coefficients,
    chi_gram_factor,
    chi_omega,
    clt_sample,
    draw_brownian,
    ito_integral,
    lyapounov_ratio,
    random_functional,
    sample_chi,
    sample_chi_gram,
)
from cohlim.mode_space import (
    GridMismatchError,
    ModeDensity,
    MomentumGrid,
    TestFunction,
    norm_sq_momentum,
)

from conftest import ito_pair, make_battery


class TestBrownian:
    def test_reproducible(self, grid):
        a = draw_brownian(grid, seed=42)
        b = draw_brownian(grid, seed=42)
        np.testing.assert_array_equal(a.dB1, b.dB1)
        np.testing.assert_array_equal(a.dB2, b.dB2)

    def test_streams_are_independent_draws(self, grid):
        a = draw_brownian(grid, seed=42, stream=0)
        b = draw_brownian(grid, seed=42, stream=1)
        assert not np.array_equal(a.dB1, b.dB1)

    def test_increment_variance(self):
        g = MomentumGrid(d=1, R=4.0, N=50_000)
        s = draw_brownian(g, seed=3)
        assert np.var(s.dB1) == pytest.approx(g.cell_volume, rel=0.05)


class TestIsometry:
    def test_second_moment_matches_norm(self, grid, gauss):
        rng = np.random.default_rng(9)
        est = np.mean(np.abs(sample_chi([gauss], ito_pair(grid), 40_000, rng)[:, 0]) ** 2)
        assert est == pytest.approx(norm_sq_momentum(gauss), rel=0.05)

    def test_mean_is_zero(self, grid, gauss):
        vals = [
            ito_integral(gauss, draw_brownian(grid, seed=s).dB1, grid)
            for s in range(2000)
        ]
        m = np.mean(np.real(vals))
        se = np.std(np.real(vals)) / math.sqrt(len(vals))
        assert abs(m) < 5 * se

    def test_linear_in_integrand(self, grid, gauss):
        s = draw_brownian(grid, seed=1)
        doubled = gauss.with_values(2.0 * gauss.values)
        assert ito_integral(doubled, s.dB1, grid) == pytest.approx(
            2.0 * ito_integral(gauss, s.dB1, grid)
        )

    def test_shape_mismatch_raises(self, grid, gauss):
        with pytest.raises(GridMismatchError):
            ito_integral(gauss, np.zeros(3), grid)


class TestCoefficients:
    @pytest.mark.parametrize("mu2", [0.0, 0.5, 0.3 + 0.2j, 1j, -0.999, 1.0])
    def test_variance_identity_pointwise(self, rho, mu2):
        # |S1 u + i S2 u'|-construction: Var(Re chi) integrand must equal
        # rho (|fhat|^2 + Re mu2 fhat^2) for every complex sample value
        coeffs = build_coefficients(rho, mu2)
        vals = np.full(rho.grid.n_cells, 0.7 - 0.4j)
        var = np.real(coeffs.S1 * vals) ** 2 + np.real(1j * coeffs.S2 * vals) ** 2
        expect = rho.values * (np.abs(vals) ** 2 + np.real(mu2 * vals ** 2))
        np.testing.assert_allclose(var, expect, atol=1e-12)

    def test_alternate_branch_at_minus_one(self, rho):
        coeffs = build_coefficients(rho, -1.0)
        np.testing.assert_allclose(coeffs.S1, 1j * np.sqrt(rho.values))
        np.testing.assert_allclose(coeffs.S2, np.sqrt(rho.values))

    def test_rejects_oversized_mu2(self, rho):
        with pytest.raises(ValueError):
            build_coefficients(rho, 1.2)


class TestChi:
    def test_additive_in_f(self, grid, rho):
        coeffs = build_coefficients(rho, 0.3)
        s = draw_brownian(grid, seed=8)
        f1, f2 = make_battery(grid, 2)
        both = f1.with_values(f1.values + f2.values)
        assert chi_omega(both, coeffs, s) == pytest.approx(
            chi_omega(f1, coeffs, s) + chi_omega(f2, coeffs, s)
        )

    def test_batch_matches_single(self, grid, rho, gauss):
        coeffs = build_coefficients(rho, 0.2 + 0.1j)
        rng = np.random.default_rng(4)
        batch = sample_chi([gauss], coeffs, 3, rng, chunk=2)
        # same stream replayed by hand
        rng2 = np.random.default_rng(4)
        scale = math.sqrt(grid.cell_volume)
        z1 = rng2.normal(0.0, scale, (2, grid.n_cells))
        z2 = rng2.normal(0.0, scale, (2, grid.n_cells))
        first = np.sum(z1[0] * coeffs.S1 * gauss.values) + 1j * np.sum(
            z2[0] * coeffs.S2 * gauss.values
        )
        assert batch[0, 0] == pytest.approx(first)


GRAM_MU2 = [0.0, 0.4 + 0.3j, -1.0, 0.5j]


def _grid2_battery():
    g = MomentumGrid(d=2, R=4.0, N=24)
    rho = ModeDensity.from_profile(g, lambda k: np.exp(-np.sum((k - 0.5) ** 2, axis=-1)))
    fs = [
        TestFunction.from_profile(
            g, lambda k, c=c: np.exp(-np.sum((k - c) ** 2, axis=-1) / 2.0) * np.exp(1j * c * k[:, 0])
        )
        for c in (-0.5, 0.3, 1.0)
    ]
    return fs, rho


def _collinear_battery(grid):
    f1, f2 = make_battery(grid, 2)
    # rank deficient: chi is complex-linear, so chi(2 f1 - i f2) is fixed by chi(f1), chi(f2)
    return [f1, f2, f1.with_values(2.0 * f1.values - 1j * f2.values)]


class TestGramSampler:
    """The Gram-law fast path against the cell-level Ito reference."""

    @pytest.fixture(params=["d1", "d2", "collinear"])
    def battery(self, request, grid, rho):
        if request.param == "d1":
            return make_battery(grid, 3), rho
        if request.param == "d2":
            return _grid2_battery()
        return _collinear_battery(grid), rho

    @pytest.mark.parametrize("mu2", GRAM_MU2)
    def test_factor_reproduces_cell_gram(self, battery, mu2):
        fs, rho = battery
        coeffs = build_coefficients(rho, mu2)
        phi1 = np.stack([coeffs.S1 * f.values for f in fs], axis=1)
        phi2 = np.stack([coeffs.S2 * f.values for f in fs], axis=1)
        w = np.block([[phi1.real, phi1.imag], [-phi2.imag, phi2.real]])
        gram = rho.grid.cell_volume * (w.T @ w)
        r = chi_gram_factor(fs, coeffs)
        np.testing.assert_allclose(r.T @ r, gram, rtol=0, atol=1e-12 * np.max(np.abs(gram)))

    @pytest.mark.parametrize("mu2", GRAM_MU2)
    def test_polarization_of_sigma_mu(self, battery, mu2):
        # Cov(Re chi_i, Re chi_j) = (sigma^2(f_i + f_j) - sigma^2(f_i) - sigma^2(f_j)) / 2
        fs, rho = battery
        r = chi_gram_factor(fs, build_coefficients(rho, mu2))
        cov = (r.T @ r)[: len(fs), : len(fs)]
        sig = [sigma_mu_sq(f, rho, mu2) for f in fs]
        expect = np.array(
            [
                [
                    (sigma_mu_sq(fi.with_values(fi.values + fj.values), rho, mu2) - si - sj) / 2.0
                    for fj, sj in zip(fs, sig)
                ]
                for fi, si in zip(fs, sig)
            ]
        )
        np.testing.assert_allclose(cov, expect, rtol=0, atol=1e-12 * max(sig))

    @pytest.mark.parametrize("mu2", [0.4 + 0.3j, -1.0])
    def test_two_sample_covariance_agrees_with_cells(self, grid, rho, mu2):
        fs = make_battery(grid, 3)
        coeffs = build_coefficients(rho, mu2)
        m = 20_000
        samples = [
            sample(fs, coeffs, m, np.random.default_rng(seed))
            for sample, seed in ((sample_chi, 61), (sample_chi_gram, 62))
        ]
        x_cells, x_gram = (np.hstack([c.real, c.imag]) for c in samples)
        c_cells, c_gram = np.cov(x_cells.T), np.cov(x_gram.T)
        # se of the difference of two independent empirical covariance
        # entries of a Gaussian: sqrt(2 (S_ii S_jj + S_ij^2) / m)
        r = chi_gram_factor(fs, coeffs)
        s = r.T @ r
        d = np.diag(s)
        se = np.sqrt(2.0 * (np.outer(d, d) + s ** 2) / m)
        z = np.abs(c_cells - c_gram) / np.where(se > 0, se, 1.0)
        assert np.max(z) < 5.0
        np.testing.assert_allclose(x_gram.mean(axis=0), 0.0, atol=5.0 * math.sqrt(np.max(d) / m))

    @pytest.mark.parametrize("n_fns", [1, 3])
    def test_output_matches_reference_shape(self, grid, rho, n_fns):
        fs = make_battery(grid, n_fns)
        coeffs = build_coefficients(rho, 0.2)
        fast = sample_chi_gram(fs, coeffs, 7, np.random.default_rng(0))
        ref = sample_chi(fs, coeffs, 7, np.random.default_rng(0))
        assert fast.shape == ref.shape == (7, n_fns)
        assert fast.dtype == ref.dtype

    def test_grid_mismatch_raises(self, rho, gauss):
        other = TestFunction.from_profile(MomentumGrid(d=1, R=4.0, N=128), lambda k: np.exp(-k ** 2))
        with pytest.raises(GridMismatchError):
            sample_chi_gram([gauss, other], build_coefficients(rho, 0.0), 5, np.random.default_rng(0))


class TestRandomFunctional:
    def test_modulus_is_fock(self, grid, rho, gauss):
        coeffs = build_coefficients(rho, 0.0)
        s = draw_brownian(grid, seed=21)
        fv = random_functional(gauss, coeffs, s)
        assert fv.modulus == pytest.approx(fock_functional(gauss).modulus)

    def test_mean_recovers_averaged_value(self, fine_grid):
        f = TestFunction.from_profile(
            fine_grid, lambda k: np.exp(-(k ** 2) / 2.0) * np.exp(1j * k)
        )
        rho = ModeDensity.from_profile(fine_grid, lambda k: np.exp(-((k - 1.0) ** 2)))
        mu2 = -1.0
        coeffs = build_coefficients(rho, mu2)
        rng = np.random.default_rng(30)
        m = 20_000
        chis = sample_chi([f], coeffs, m, rng)[:, 0]
        mc = np.mean(np.exp(1j * chis.real))
        expect = math.exp(-sigma_mu_sq(f, rho, mu2) / 2.0)
        assert mc.real == pytest.approx(expect, abs=5.0 / math.sqrt(m))


class TestCentralLimit:
    def test_uniform_ks(self, fine_grid):
        f = TestFunction.from_profile(
            fine_grid, lambda k: np.exp(-(k ** 2) / 2.0) * np.exp(1j * k)
        )
        rho = ModeDensity.from_profile(fine_grid, lambda k: np.exp(-((k - 1.0) ** 2)))
        mu = PhaseMeasure.uniform()
        draws = clt_sample(f, fine_grid, rho, mu, 2000, np.random.default_rng(11))
        sig = math.sqrt(sigma_mu_sq(f, rho, 0.0))
        ks = stats.kstest(draws, "norm", args=(0.0, sig)).statistic
        assert ks < 1.95 / math.sqrt(2000)

    def test_inadmissible_measure_rejected(self, grid, rho, gauss):
        mu = PhaseMeasure.from_atoms([(0.0, 1.0)])
        with pytest.raises(InadmissibleMeasureError):
            clt_sample(gauss, grid, rho, mu, 10, np.random.default_rng(0))

    def test_lyapounov_ratio_decays(self):
        ratios = []
        for n in (256, 1024, 4096):
            g = MomentumGrid(d=1, R=4.0, N=n)
            f = TestFunction.from_profile(g, lambda k: np.exp(-(k ** 2) / 2.0))
            rho = ModeDensity.from_profile(g, lambda k: np.exp(-(k ** 2)))
            ratios.append(lyapounov_ratio(f, g, rho, PhaseMeasure.uniform(), 1.0))
        # ~ N^{-1/2}: each 4x refinement should halve the ratio
        assert ratios[1] == pytest.approx(ratios[0] / 2, rel=0.1)
        assert ratios[2] == pytest.approx(ratios[1] / 2, rel=0.1)

    def test_degenerate_variance_raises(self, grid):
        f = TestFunction(grid, np.zeros(grid.n_cells))
        rho = ModeDensity(grid, np.ones(grid.n_cells))
        with pytest.raises(DegenerateVarianceError):
            lyapounov_ratio(f, grid, rho, PhaseMeasure.uniform(), 1.0)

    def test_delta_must_be_positive(self, grid, rho, gauss):
        with pytest.raises(ValueError):
            lyapounov_ratio(gauss, grid, rho, PhaseMeasure.uniform(), 0.0)
