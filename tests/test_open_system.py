import math

import numpy as np
import pytest

from cohlim.dynamics import Dispersion
from cohlim.ito_sampler import build_coefficients, sample_chi
from cohlim.mode_space import GridMismatchError, ModeDensity, MomentumGrid, TestFunction, inner
from cohlim.open_system import (
    EPS_MIN,
    SystemSpec,
    _infrared_cells,
    envelopes,
    gamma,
    gamma_radial,
    gaussian_rate,
)


@pytest.fixture
def system(grid):
    g = TestFunction.from_profile(grid, lambda k: np.exp(-(k ** 2)), label="coupling")
    eps = Dispersion.photon(grid)
    return SystemSpec(np.array([0.0, 1.0, 2.5]), np.array([0.0, 1.0, -0.5]), g, eps)


def gamma_plateau(g, eps):
    """Large-time limit |ghat / eps|_2^2 of Gamma over the cutoff cells."""
    g2, ev = _infrared_cells(g, eps)
    return float(g.grid.cell_volume * np.sum(g2 / ev ** 2))


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

    def test_even_in_time_and_quadratic_in_coupling(self, system):
        g, eps = system.form_factor, system.dispersion
        doubled = g.with_values(2.0 * g.values)
        for t in (0.3, 2.0, 17.0):
            assert gamma(-t, g, eps) == gamma(t, g, eps)
            assert gamma(t, doubled, eps) == pytest.approx(4.0 * gamma(t, g, eps), rel=1e-14)

    def test_plateau_reached_for_gapped_dispersion(self, grid):
        # eps >= 1 everywhere: Gamma(t) oscillates around the plateau |g/eps|^2
        g = TestFunction.from_profile(grid, lambda k: np.exp(-(k ** 2)))
        eps = Dispersion(grid, np.abs(grid.axis) + 1.0)
        plateau = gamma_plateau(g, eps)
        long_time = np.mean(
            [gamma(t, g, eps) for t in np.linspace(200.0, 220.0, 50)]
        )
        assert long_time == pytest.approx(plateau, rel=0.05)


@pytest.mark.parametrize("other", [MomentumGrid(d=1, R=5.0, N=256), MomentumGrid(d=1, R=4.0, N=128)])
def test_grid_mismatch_raises(grid, other):
    # same N with another R would pair the cells of different momenta
    g = TestFunction.from_profile(grid, lambda k: np.exp(-(k ** 2)))
    with pytest.raises(GridMismatchError):
        gamma(1.0, g, Dispersion.photon(other))


@pytest.mark.parametrize("other", [MomentumGrid(d=1, R=5.0, N=256), MomentumGrid(d=1, R=4.0, N=128)])
def test_spec_refuses_dispersion_on_another_grid(grid, other):
    g = TestFunction.from_profile(grid, lambda k: np.exp(-(k ** 2)))
    with pytest.raises(GridMismatchError):
        SystemSpec(np.array([0.0, 1.0]), np.array([0.0, 1.0]), g, Dispersion.photon(other))


@pytest.mark.parametrize("other", [MomentumGrid(d=1, R=5.0, N=256), MomentumGrid(d=1, R=4.0, N=128)])
def test_gaussian_rate_refuses_reservoir_on_another_grid(system, other):
    reservoir = ModeDensity.from_profile(other, lambda k: np.exp(-(k ** 2)))
    with pytest.raises(GridMismatchError):
        gaussian_rate(system, reservoir)


class TestGammaRadial:
    def test_linear_growth_for_infrared_singular_coupling(self):
        # ghat = e^{-r^2}/r in d = 3: angular integral 4 pi e^{-2 r^2} / r^2,
        # Gamma(t)/t -> 2 pi^2
        ang = lambda r: 4 * np.pi * np.exp(-2 * r ** 2) / r ** 2
        slope = gamma_radial(200.0, ang, 40.0) / 200.0
        assert slope == pytest.approx(2 * math.pi ** 2, rel=0.02)

    def test_small_time_quadratic(self):
        # sin^2(r t/2) -> r^2 t^2 / 4: Gamma ~ (t^2/2) int A(r) r^2 dr, and for
        # A = 4 pi e^{-2 r^2} / r^2 that integral is 2 pi sqrt(pi/2)
        ang = lambda r: 4 * np.pi * np.exp(-2 * r ** 2) / r ** 2
        t = 1e-3
        assert gamma_radial(t, ang, 40.0) / t ** 2 == pytest.approx(
            math.pi * math.sqrt(math.pi / 2.0), rel=1e-5
        )


class TestAveragedOffdiagonal:
    """|E[rho_kl(t)]| / |rho_kl(0)| is the product of the two `envelopes`."""

    def test_gaussian_envelope(self, system, rho):
        t = 1.5
        dg = system.couplings[0] - system.couplings[1]
        rate = inner(system.form_factor, system.form_factor, rho).real
        expect = math.exp(-0.5 * t * t * dg * dg * rate) * math.exp(
            -0.5 * dg * dg * gamma(t, system.form_factor, system.dispersion)
        )
        gaussian, decay = envelopes(system, 0, 1, t, gaussian_rate(system, rho))
        assert gaussian[0] * decay[0] == expect

    def test_equal_couplings_decouple(self, grid):
        # identical coupling eigenvalues: neither envelope decays
        g = TestFunction.from_profile(grid, lambda k: np.exp(-(k ** 2)))
        spec = SystemSpec(
            np.array([0.0, 1.0]), np.array([0.7, 0.7]), g, Dispersion.photon(grid)
        )
        gaussian, decay = envelopes(spec, 0, 1, 5.0, 0.3)
        assert (gaussian[0], decay[0]) == (1.0, 1.0)

    def test_monte_carlo_agreement(self, fine_grid):
        # the phase average of e^{-i t dg Re chi(g)} is the Gaussian factor
        g = TestFunction.from_profile(fine_grid, lambda k: np.exp(-(k ** 2)))
        rho = ModeDensity.from_profile(fine_grid, lambda k: np.exp(-((k - 1.0) ** 2)))
        coeffs = build_coefficients(rho, 0.0)
        rng = np.random.default_rng(23)
        m = 20_000
        chis = sample_chi([g], coeffs, m, rng)[:, 0].real
        t, dg = 1.2, 0.8
        mc = np.mean(np.exp(-1j * t * dg * chis))
        rate = inner(g, g, rho).real
        expect = math.exp(-0.5 * t * t * dg * dg * rate)
        assert mc.real == pytest.approx(expect, abs=5.0 / math.sqrt(m))
        assert abs(mc.imag) < 5.0 / math.sqrt(m)

    def test_grid_gives_the_bits_of_each_time(self, system, rho):
        # the docstring's promise: a t-grid and one time at a time agree exactly
        ts = np.linspace(0.0, 3.0, 7)
        rate = gaussian_rate(system, rho)
        gaussian, decay = envelopes(system, 1, 2, ts, rate)
        for i, t in enumerate(ts.tolist()):
            g1, d1 = envelopes(system, 1, 2, t, rate)
            assert (g1.tolist(), d1.tolist()) == ([gaussian[i]], [decay[i]])

    def test_envelopes_match_per_t_factors(self, system, rho):
        ts = np.linspace(0.0, 3.0, 7)
        rate = gaussian_rate(system, rho)
        gaussian, decay = envelopes(system, 0, 2, ts, rate)
        dg = system.couplings[0] - system.couplings[2]
        expect = [
            math.exp(-0.5 * t * t * dg * dg * rate)
            * math.exp(-0.5 * dg * dg * gamma(t, system.form_factor, system.dispersion))
            for t in ts.tolist()
        ]
        assert (gaussian * decay).tolist() == expect
        # without a reservoir average only the Gamma envelope decays
        gaussian, decay_alone = envelopes(system, 0, 2, ts)
        assert gaussian.tolist() == [1.0] * len(ts)
        np.testing.assert_array_equal(decay_alone, decay)
