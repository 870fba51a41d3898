import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from cohlim import ito_sampler
from cohlim.circle_measure import InadmissibleMeasureError, PhaseMeasure
from cohlim.functionals import fock_functional, sigma_mu_sq
from cohlim.ito_sampler import (
    build_coefficients,
    chi_gram_factor,
    clt_sample,
    ks_distance,
    psd_factor,
    random_functional,
    sample_chi,
    sample_chi_gram,
)
from cohlim.mode_space import (
    GridMismatchError,
    ModeDensity,
    MomentumGrid,
    TestFunction,
    battery_gram,
    norm_sq_momentum,
)

from conftest import gaussian_setups, ito_pair, make_battery, unit_disk, with_values


class TestIsometry:
    def test_second_moment_matches_norm(self, grid, gauss):
        rng = np.random.default_rng(9)
        est = np.mean(np.abs(sample_chi([gauss], *ito_pair(grid), 40_000, rng)[:, 0]) ** 2)
        assert est == pytest.approx(norm_sq_momentum(gauss), rel=0.05)

    def test_mean_is_zero(self, grid, gauss):
        # one sample omega per seed
        vals = [
            sample_chi([gauss], *ito_pair(grid), 1, np.random.default_rng(s))[0, 0]
            for s in range(2000)
        ]
        m = np.mean(np.real(vals))
        se = np.std(np.real(vals)) / math.sqrt(len(vals))
        assert abs(m) < 5 * se

    def test_linear_in_integrand(self, grid, gauss):
        doubled = with_values(gauss, 2.0 * gauss.values)
        chi = sample_chi([gauss, doubled], *ito_pair(grid), 1, np.random.default_rng(1))[0]
        assert chi[1] == pytest.approx(2.0 * chi[0])

    def test_shape_mismatch_raises(self, gauss):
        with pytest.raises(GridMismatchError):
            sample_chi([gauss], *ito_pair(MomentumGrid(d=1, R=4.0, N=3)), 1, np.random.default_rng(0))


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
        f1, f2 = make_battery(grid, 2)
        both = with_values(f1, f1.values + f2.values)
        chi = sample_chi([f1, f2, both], rho, 0.3, 1, np.random.default_rng(8))[0]
        assert chi[2] == pytest.approx(chi[0] + chi[1])

    def test_seed_fixes_the_sample(self, grid, rho):
        # one draw's increments depend on the seed and the grid, not on the
        # battery; only the BLAS summation order changes with its width
        f1, f2 = make_battery(grid, 2)
        for seed in (0, 8, 1001):
            alone = sample_chi([f1], rho, 0.3 + 0.2j, 1, np.random.default_rng(seed))[0, 0]
            paired = sample_chi([f2, f1], rho, 0.3 + 0.2j, 1, np.random.default_rng(seed))[0, 1]
            assert abs(paired - alone) <= 1e-12 * abs(alone)

    @pytest.mark.parametrize("mu2", [0.3 + 0.2j, -1.0])
    def test_matches_two_block_cell_sum_across_chunks(self, grid, rho, mu2, monkeypatch):
        # the reference draws each chunk's N(0, dk) increments as two blocks,
        # the first field's then the second's, and sums phi = S fhat over the
        # cells; sample_chi takes the same numbers from one standard-normal
        # draw per chunk, so only the rounding of the sums may differ
        fs = make_battery(grid, 2)
        coeffs = build_coefficients(rho, mu2)
        monkeypatch.setattr(ito_sampler, "CHI_CHUNK", 3)
        got = sample_chi(fs, rho, mu2, 7, np.random.default_rng(11))
        rng = np.random.default_rng(11)
        scale = math.sqrt(grid.cell_volume)
        phi1 = np.stack([coeffs.S1 * f.values for f in fs], axis=1)
        phi2 = np.stack([coeffs.S2 * f.values for f in fs], axis=1)
        blocks = []
        for m in (3, 3, 1):
            z1 = rng.normal(0.0, scale, (m, grid.n_cells))
            z2 = rng.normal(0.0, scale, (m, grid.n_cells))
            blocks.append(z1 @ phi1 + 1j * (z2 @ phi2))
        np.testing.assert_allclose(got, np.vstack(blocks), rtol=1e-12, atol=0)


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
    return [f1, f2, with_values(f1, 2.0 * f1.values - 1j * f2.values)]


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
        r = chi_gram_factor(battery_gram(fs, rho), mu2)
        np.testing.assert_allclose(r.T @ r, gram, rtol=0, atol=1e-12 * np.max(np.abs(gram)))

    @pytest.mark.parametrize("mu2", GRAM_MU2)
    def test_polarization_of_sigma_mu(self, battery, mu2):
        # Cov(Re chi_i, Re chi_j) = (sigma^2(f_i + f_j) - sigma^2(f_i) - sigma^2(f_j)) / 2
        fs, rho = battery
        r = chi_gram_factor(battery_gram(fs, rho), mu2)
        cov = (r.T @ r)[: len(fs), : len(fs)]
        sig = [sigma_mu_sq(f, rho, mu2) for f in fs]
        expect = np.array(
            [
                [
                    (sigma_mu_sq(with_values(fi, fi.values + fj.values), rho, mu2) - si - sj) / 2.0
                    for fj, sj in zip(fs, sig)
                ]
                for fi, si in zip(fs, sig)
            ]
        )
        np.testing.assert_allclose(cov, expect, rtol=0, atol=1e-12 * max(sig))

    @given(setup=gaussian_setups(), mu2=unit_disk)
    @settings(max_examples=40, deadline=None)
    def test_polarization_property(self, setup, mu2):
        # the polarization of sigma_mu^2 alone is a covariance matrix, and it
        # is the Re-Re block of the Gram law that chi_gram_factor factors
        grid, fs, rho = setup
        sig = [sigma_mu_sq(f, rho, mu2) for f in fs]
        pol = np.array(
            [
                [
                    (sigma_mu_sq(with_values(fi, fi.values + fj.values), rho, mu2) - si - sj) / 2.0
                    for fj, sj in zip(fs, sig)
                ]
                for fi, si in zip(fs, sig)
            ]
        )
        assert np.min(np.linalg.eigvalsh(pol)) >= -1e-12 * np.trace(pol)
        r = chi_gram_factor(battery_gram(fs, rho), mu2)
        # every entry is a sum of terms on the scale of int rho |f|^2
        scale = sum(grid.cell_volume * float(np.sum(rho.values * np.abs(f.values) ** 2)) for f in fs)
        np.testing.assert_allclose(
            (r.T @ r)[: len(fs), : len(fs)], pol, rtol=1e-12, atol=1e-12 * scale
        )

    @pytest.mark.parametrize("mu2", [0.4 + 0.3j, -1.0])
    def test_two_sample_covariance_agrees_with_cells(self, grid, rho, mu2):
        fs = make_battery(grid, 3)
        m = 20_000
        samples = [
            sample_chi(fs, rho, mu2, m, np.random.default_rng(61)),
            sample_chi_gram(battery_gram(fs, rho), mu2, m, np.random.default_rng(62)),
        ]
        x_cells, x_gram = (np.hstack([c.real, c.imag]) for c in samples)
        c_cells, c_gram = np.cov(x_cells.T), np.cov(x_gram.T)
        # se of the difference of two independent empirical covariance
        # entries of a Gaussian: sqrt(2 (S_ii S_jj + S_ij^2) / m)
        r = chi_gram_factor(battery_gram(fs, rho), mu2)
        s = r.T @ r
        d = np.diag(s)
        se = np.sqrt(2.0 * (np.outer(d, d) + s ** 2) / m)
        z = np.abs(c_cells - c_gram) / np.where(se > 0, se, 1.0)
        assert np.max(z) < 5.0
        np.testing.assert_allclose(x_gram.mean(axis=0), 0.0, atol=5.0 * math.sqrt(np.max(d) / m))

    @pytest.mark.parametrize("n_fns", [1, 3])
    def test_output_matches_reference_shape(self, grid, rho, n_fns):
        fs = make_battery(grid, n_fns)
        fast = sample_chi_gram(battery_gram(fs, rho), 0.2, 7, np.random.default_rng(0))
        ref = sample_chi(fs, rho, 0.2, 7, np.random.default_rng(0))
        assert fast.shape == ref.shape == (7, n_fns)
        assert fast.dtype == ref.dtype

    def test_grid_mismatch_raises(self, rho, gauss):
        other = TestFunction.from_profile(MomentumGrid(d=1, R=4.0, N=128), lambda k: np.exp(-k ** 2))
        with pytest.raises(GridMismatchError):
            battery_gram([gauss, other], rho)

    def test_rejects_oversized_mu2(self, rho, gauss):
        with pytest.raises(ValueError, match="mu_hat"):
            sample_chi_gram(battery_gram([gauss], rho), 1.2, 5, np.random.default_rng(0))


class TestPsdFactor:
    """The pivoted Cholesky factor of the Gram matrix, on its edge cases."""

    @given(
        n=st.integers(1, 40),
        k2=st.integers(1, 12),
        rank=st.integers(0, 12),
        seed=st.integers(0, 2 ** 32 - 1),
        scales=st.lists(st.integers(-3, 3), min_size=12, max_size=12),
    )
    @settings(max_examples=200, deadline=None)
    def test_low_rank_gram(self, n, k2, rank, seed, scales):
        # W = A B has rank at most min(n, rank, k2); columns scaled over six decades
        rng = np.random.default_rng(seed)
        w = rng.standard_normal((n, rank)) @ rng.standard_normal((rank, k2))
        w *= 10.0 ** np.array(scales[:k2])
        gram = w.T @ w
        r = psd_factor(gram)
        assert r.shape[1] == k2
        assert r.shape[0] <= np.linalg.matrix_rank(w)
        np.testing.assert_allclose(r.T @ r, gram, rtol=0, atol=1e-12 * np.max(np.diag(gram), initial=0.0))

    def test_empty_battery(self, rho):
        gram = battery_gram([], rho)
        assert chi_gram_factor(gram, 0.3 + 0.2j).shape == (0, 0)
        chis = sample_chi_gram(gram, 0.3 + 0.2j, 5, np.random.default_rng(0))
        assert chis.shape == (5, 0) and chis.dtype == complex

    def test_zero_function(self, rho, gauss):
        zero = with_values(gauss, np.zeros_like(gauss.values))
        assert chi_gram_factor(battery_gram([zero], rho), 0.3 + 0.2j).shape == (0, 2)
        chis = sample_chi_gram(battery_gram([zero, zero], rho), 0.3 + 0.2j, 5, np.random.default_rng(0))
        assert chis.shape == (5, 2)
        assert not np.any(chis)


class TestRandomFunctional:
    def test_modulus_is_fock(self, grid, rho, gauss):
        # one value per draw and function: Fock(f_j) e^{i Re chi_ij}
        battery = [gauss, with_values(gauss, 0.5 * gauss.values)]
        chis = sample_chi(battery, rho, 0.3, 3, np.random.default_rng(21))
        vals = random_functional(battery, chis)
        for j, f in enumerate(battery):
            assert np.array_equal(vals[:, j], fock_functional(f).value * np.exp(1j * chis[:, j].real))
            np.testing.assert_allclose(np.abs(vals[:, j]), fock_functional(f).modulus, rtol=1e-15)

    def test_mean_recovers_averaged_value(self, fine_grid):
        f = TestFunction.from_profile(
            fine_grid, lambda k: np.exp(-(k ** 2) / 2.0) * np.exp(1j * k)
        )
        rho = ModeDensity.from_profile(fine_grid, lambda k: np.exp(-((k - 1.0) ** 2)))
        mu2 = -1.0
        rng = np.random.default_rng(30)
        m = 20_000
        chis = sample_chi([f], rho, mu2, m, rng)[:, 0]
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
        draws = clt_sample(f, rho, mu, 2000, np.random.default_rng(11))
        sig = math.sqrt(sigma_mu_sq(f, rho, 0.0))
        ks = stats.kstest(draws, "norm", args=(0.0, sig)).statistic
        assert ks < 1.95 / math.sqrt(2000)

    @staticmethod
    def scipy_ks(draws, sigma):
        return stats.kstest(draws, "norm", args=(0.0, sigma)).statistic

    def test_ks_distance_matches_scipy(self):
        rng = np.random.default_rng(4242)
        for _ in range(60):
            n, sigma = int(rng.integers(1, 5001)), rng.uniform(0.1, 3.0)
            # draws from a shifted, rescaled normal so that the distances spread over (0, 1)
            draws = rng.normal(rng.uniform(-1.0, 1.0), sigma * rng.uniform(0.5, 2.0), n)
            assert ks_distance(draws, sigma) == pytest.approx(self.scipy_ks(draws, sigma), rel=1e-12)

    @pytest.mark.parametrize("x", [-2.5, 0.0, 0.3, 4.0])
    def test_ks_distance_single_draw(self, x):
        # F_1 jumps from 0 to 1 at x: the distance is max(F(x), 1 - F(x))
        assert ks_distance([x], 1.3) == pytest.approx(self.scipy_ks([x], 1.3), rel=1e-12)
        assert ks_distance([x], 1.3) == pytest.approx(0.5 + 0.5 * math.erf(abs(x) / (1.3 * math.sqrt(2.0))), rel=1e-12)

    def test_ks_distance_with_ties(self):
        rng = np.random.default_rng(7)
        for draws in (np.round(rng.normal(0.0, 1.0, 400), 1), np.zeros(5), np.array([1.0, 1.0, -0.5])):
            assert ks_distance(draws, 0.8) == pytest.approx(self.scipy_ks(draws, 0.8), rel=1e-12)

    def test_ks_distance_by_hand(self):
        # draws -1, 0, 2 against N(0, 1): the gaps F(x_i) - (i-1)/n are
        # Phi(-1), 1/2 - 1/3 and Phi(2) - 2/3, the gaps i/n - F(x_i) are
        # 1/3 - Phi(-1), 2/3 - 1/2 and 1 - Phi(2); the largest is Phi(2) - 2/3
        expected = 0.9772498680518208 - 2.0 / 3.0
        assert ks_distance([2.0, -1.0, 0.0], 1.0) == pytest.approx(expected, rel=1e-12)
        assert self.scipy_ks([2.0, -1.0, 0.0], 1.0) == pytest.approx(expected, rel=1e-12)

    def test_inadmissible_measure_rejected(self, rho, gauss):
        mu = PhaseMeasure.from_atoms([(0.0, 1.0)])
        with pytest.raises(InadmissibleMeasureError):
            clt_sample(gauss, rho, mu, 10, np.random.default_rng(0))
