import math

import numpy as np
import pytest

from cohlim.dynamics import Dispersion
from cohlim.ito_sampler import build_coefficients, sample_chi
from cohlim.mode_space import GridMismatchError, ModeDensity, MomentumGrid, TestFunction, inner
from cohlim.open_system import (
    EPS_MIN,
    SystemSpec,
    averaged_offdiagonal,
    envelopes,
    gamma,
    gamma_plateau,
    gamma_radial,
    gaussian_rate,
    lamb_phase_integral,
    plateau_radial,
    reduced_element,
)


@pytest.fixture
def system(grid):
    g = TestFunction.from_profile(grid, lambda k: np.exp(-(k ** 2)), label="coupling")
    eps = Dispersion.photon(grid)
    return SystemSpec(np.array([0.0, 1.0, 2.5]), np.array([0.0, 1.0, -0.5]), g, eps)


def masked_norm_sq(g, eps):
    mask = eps.values >= EPS_MIN
    return float(g.grid.cell_volume * np.sum(np.abs(g.values[mask]) ** 2))


class TestSystemSpec:
    def test_needs_two_levels(self, grid):
        g = TestFunction(grid, np.zeros(grid.n_cells))
        with pytest.raises(ValueError):
            SystemSpec(np.array([0.0]), np.array([1.0]), g, Dispersion.photon(grid))

    def test_level_count(self, system):
        assert system.n_levels == 3


class TestGamma:
    def test_zero_at_time_zero(self, system):
        assert gamma(0.0, system.form_factor, system.dispersion) == 0.0

    def test_nonnegative_and_bounded_by_plateau_times_two(self, system):
        plateau = gamma_plateau(system.form_factor, system.dispersion)
        for t in (0.1, 1.0, 10.0, 100.0):
            val = gamma(t, system.form_factor, system.dispersion)
            assert 0.0 <= val <= 2.0 * plateau + 1e-12

    def test_small_time_quadratic(self, system):
        # sin^2(eps t/2)/eps^2 -> t^2/4: Gamma ~ t^2 |g|^2 / 2 over the same
        # infrared-masked cells
        t = 1e-3
        target = 0.5 * masked_norm_sq(system.form_factor, system.dispersion)
        assert gamma(t, system.form_factor, system.dispersion) / t ** 2 == pytest.approx(
            target, rel=1e-5
        )

    def test_plateau_reached_for_gapped_dispersion(self, grid):
        # eps >= 1 everywhere: Gamma(t) oscillates around the plateau |g/eps|^2
        g = TestFunction.from_profile(grid, lambda k: np.exp(-(k ** 2)))
        eps = Dispersion(grid, np.abs(grid.axis) + 1.0)
        plateau = gamma_plateau(g, eps)
        long_time = np.mean(
            [gamma(t, g, eps) for t in np.linspace(200.0, 220.0, 50)]
        )
        assert long_time == pytest.approx(plateau, rel=0.05)


@pytest.mark.parametrize("integral", [gamma, lamb_phase_integral, gamma_plateau])
@pytest.mark.parametrize("other", [MomentumGrid(d=1, R=5.0, N=256), MomentumGrid(d=1, R=4.0, N=128)])
def test_grid_mismatch_raises(grid, integral, other):
    # same N with another R would pair the cells of different momenta
    g = TestFunction.from_profile(grid, lambda k: np.exp(-(k ** 2)))
    args = () if integral is gamma_plateau else (1.0,)
    with pytest.raises(GridMismatchError):
        integral(*args, g, Dispersion.photon(other))


class TestGammaRadial:
    def test_linear_growth_for_infrared_singular_coupling(self):
        # ghat = e^{-r^2}/r in d = 3: angular integral 4 pi e^{-2 r^2} / r^2,
        # Gamma(t)/t -> 2 pi^2
        ang = lambda r: 4 * np.pi * np.exp(-2 * r ** 2) / r ** 2
        slope = gamma_radial(200.0, ang, 40.0) / 200.0
        assert slope == pytest.approx(2 * math.pi ** 2, rel=0.02)

    def test_plateau_divergence_flagged(self):
        ang = lambda r: 4 * np.pi * np.exp(-2 * r ** 2) / r ** 2
        assert plateau_radial(ang, 40.0).divergent

    def test_regular_coupling_not_flagged(self):
        ang = lambda r: 4 * np.pi * np.exp(-2 * r ** 2)
        assert not plateau_radial(ang, 40.0).divergent


class TestReducedElement:
    def test_populations_frozen(self, system):
        assert reduced_element(system, 1, 1, 17.0, 0.42 + 0j) == 0.42 + 0j

    def test_modulus_is_gamma_envelope(self, system):
        t = 2.0
        dg = system.couplings[0] - system.couplings[1]
        val = reduced_element(system, 0, 1, t, 0.5 + 0.1j)
        env = math.exp(
            -0.5 * dg ** 2 * gamma(t, system.form_factor, system.dispersion)
        )
        assert abs(val) == pytest.approx(abs(0.5 + 0.1j) * env)

    def test_random_phase_preserves_modulus(self, system, rho):
        coeffs = build_coefficients(rho, 0.0)
        re_chi = sample_chi([system.form_factor], coeffs, 1, np.random.default_rng(5))[0, 0].real
        with_noise = reduced_element(system, 0, 1, 2.0, 1.0, re_chi)
        without = reduced_element(system, 0, 1, 2.0, 1.0)
        assert abs(with_noise) == pytest.approx(abs(without))
        dg = system.couplings[0] - system.couplings[1]
        expect_extra = -2.0 * dg * re_chi
        assert np.angle(with_noise / without) == pytest.approx(
            math.atan2(math.sin(expect_extra), math.cos(expect_extra)), abs=1e-10
        )

    def test_index_bounds(self, system):
        with pytest.raises(IndexError):
            reduced_element(system, 0, 3, 1.0, 1.0)


class TestLambPhase:
    def test_vanishes_at_time_zero(self, system):
        assert lamb_phase_integral(0.0, system.form_factor, system.dispersion) == 0.0

    def test_equal_couplings_decouple(self, grid):
        # identical coupling eigenvalues: the element only picks up the free
        # phase, no decay
        g = TestFunction.from_profile(grid, lambda k: np.exp(-(k ** 2)))
        spec = SystemSpec(
            np.array([0.0, 1.0]), np.array([0.7, 0.7]), g, Dispersion.photon(grid)
        )
        val = reduced_element(spec, 0, 1, 5.0, 1.0 + 0j)
        assert abs(val) == pytest.approx(1.0)


class TestAveragedOffdiagonal:
    def test_gaussian_envelope(self, system, rho):
        t = 1.5
        dg = system.couplings[0] - system.couplings[1]
        rate = inner(system.form_factor, system.form_factor, rho).real
        expect = (
            0.3
            * math.exp(-0.5 * t * t * dg * dg * rate)
            * math.exp(
                -0.5 * dg ** 2 * gamma(t, system.form_factor, system.dispersion)
            )
        )
        assert averaged_offdiagonal(system, rho, 0, 1, t, 0.3) == pytest.approx(expect)

    def test_monte_carlo_agreement(self, fine_grid):
        # the phase average of e^{-i t dg Re chi(g)} is the Gaussian factor
        g = TestFunction.from_profile(fine_grid, lambda k: np.exp(-(k ** 2)))
        rho = ModeDensity.from_profile(fine_grid, lambda k: np.exp(-((k - 1.0) ** 2)))
        coeffs = build_coefficients(rho, 0.0)
        rng = np.random.default_rng(23)
        from cohlim.ito_sampler import sample_chi

        m = 20_000
        chis = sample_chi([g], coeffs, m, rng)[:, 0].real
        t, dg = 1.2, 0.8
        mc = np.mean(np.exp(-1j * t * dg * chis))
        rate = inner(g, g, rho).real
        expect = math.exp(-0.5 * t * t * dg * dg * rate)
        assert mc.real == pytest.approx(expect, abs=5.0 / math.sqrt(m))
        assert abs(mc.imag) < 5.0 / math.sqrt(m)

    def test_envelopes_match_per_t_factors(self, system, rho):
        ts = np.linspace(0.0, 3.0, 7)
        gaussian, decay = envelopes(system, 0, 2, ts, gaussian_rate(system, rho))
        expect = [averaged_offdiagonal(system, rho, 0, 2, t, 1.0) for t in ts]
        assert (gaussian * decay).tolist() == expect
        # without a reservoir average only the Gamma envelope decays
        gaussian, decay_alone = envelopes(system, 0, 2, ts)
        assert gaussian.tolist() == [1.0] * len(ts)
        np.testing.assert_array_equal(decay_alone, decay)

    def test_diagonal_rejected(self, system, rho):
        with pytest.raises(ValueError):
            averaged_offdiagonal(system, rho, 1, 1, 1.0, 1.0)
