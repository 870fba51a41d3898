import math

import numpy as np
import pytest

from cohlim.dynamics import Dispersion
from cohlim.functionals import sigma_mu_sq
from cohlim.ito_sampler import sample_chi
from cohlim.mode_space import GridMismatchError, ModeDensity, MomentumGrid, TestFunction, inner
from cohlim.open_system import EPS_MIN, _infrared_cells, envelopes, gamma, gamma_radial

from conftest import with_values

COUPLINGS = (0.0, 1.0, -0.5)  # the coupling eigenvalues of a three-level system


@pytest.fixture
def g(grid):
    return TestFunction.from_profile(grid, lambda k: np.exp(-(k ** 2)), label="coupling")


@pytest.fixture
def eps(grid):
    return Dispersion.photon(grid)


def gamma_plateau(g, eps):
    """Large-time limit |ghat / eps|_2^2 of Gamma over the cutoff cells."""
    g2, ev = _infrared_cells(g, eps)
    return float(g.grid.cell_volume * np.sum(g2 / ev ** 2))


def masked_norm_sq(g, eps):
    mask = eps.values >= EPS_MIN
    return float(g.grid.cell_volume * np.sum(np.abs(g.values[mask]) ** 2))


class TestGamma:
    def test_zero_at_time_zero(self, g, eps):
        assert gamma(0.0, g, eps) == 0.0

    def test_nonnegative_and_bounded_by_plateau_times_two(self, g, eps):
        plateau = gamma_plateau(g, eps)
        for t in (0.1, 1.0, 10.0, 100.0):
            val = gamma(t, g, eps)
            assert 0.0 <= val <= 2.0 * plateau + 1e-12

    def test_small_time_quadratic(self, g, eps):
        # sin^2(eps t/2)/eps^2 -> t^2/4: Gamma ~ t^2 |g|^2 / 2 over the same
        # infrared-masked cells
        t = 1e-3
        target = 0.5 * masked_norm_sq(g, eps)
        assert gamma(t, g, eps) / t ** 2 == pytest.approx(target, rel=1e-5)

    def test_even_in_time_and_quadratic_in_coupling(self, g, eps):
        doubled = with_values(g, 2.0 * g.values)
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

    def test_gaussian_envelope(self, g, eps, rho):
        t = 1.5
        dg = COUPLINGS[0] - COUPLINGS[1]
        rate = inner(g, g, rho).real
        expect = math.exp(-0.5 * t * t * dg * dg * rate) * math.exp(
            -0.5 * dg * dg * gamma(t, g, eps)
        )
        gaussian, decay = envelopes(dg, g, eps, [t], rate)
        assert gaussian[0] * decay[0] == expect

    def test_equal_couplings_decouple(self, grid):
        # identical coupling eigenvalues: neither envelope decays
        g = TestFunction.from_profile(grid, lambda k: np.exp(-(k ** 2)))
        gaussian, decay = envelopes(0.7 - 0.7, g, Dispersion.photon(grid), [5.0], 0.3)
        assert (gaussian[0], decay[0]) == (1.0, 1.0)

    def test_monte_carlo_agreement(self, fine_grid):
        # the phase average of e^{-i t dg Re chi(g)} is the Gaussian factor
        g = TestFunction.from_profile(fine_grid, lambda k: np.exp(-(k ** 2)))
        rho = ModeDensity.from_profile(fine_grid, lambda k: np.exp(-((k - 1.0) ** 2)))
        rng = np.random.default_rng(23)
        m = 20_000
        chis = sample_chi([g], rho, 0.0, m, rng)[:, 0].real
        t, dg = 1.2, 0.8
        mc = np.mean(np.exp(-1j * t * dg * chis))
        rate = inner(g, g, rho).real
        expect = math.exp(-0.5 * t * t * dg * dg * rate)
        assert mc.real == pytest.approx(expect, abs=5.0 / math.sqrt(m))
        assert abs(mc.imag) < 5.0 / math.sqrt(m)

    def test_grid_gives_the_bits_of_each_time(self, g, eps, rho):
        # the docstring's promise: a t-grid and one time at a time agree exactly
        ts = np.linspace(0.0, 3.0, 7)
        dg = COUPLINGS[1] - COUPLINGS[2]
        rate = sigma_mu_sq(g, rho, 0.0)
        gaussian, decay = envelopes(dg, g, eps, ts, rate)
        for i, t in enumerate(ts.tolist()):
            g1, d1 = envelopes(dg, g, eps, [t], rate)
            assert (g1.tolist(), d1.tolist()) == ([gaussian[i]], [decay[i]])

    def test_envelopes_match_per_t_factors(self, g, eps, rho):
        ts = np.linspace(0.0, 3.0, 7)
        rate = sigma_mu_sq(g, rho, 0.0)
        dg = COUPLINGS[0] - COUPLINGS[2]
        gaussian, decay = envelopes(dg, g, eps, ts, rate)
        expect = [
            math.exp(-0.5 * t * t * dg * dg * rate) * math.exp(-0.5 * dg * dg * gamma(t, g, eps))
            for t in ts.tolist()
        ]
        assert (gaussian * decay).tolist() == expect
        # without a reservoir average only the Gamma envelope decays
        gaussian, decay_alone = envelopes(dg, g, eps, ts, 0.0)
        assert gaussian.tolist() == [1.0] * len(ts)
        np.testing.assert_array_equal(decay_alone, decay)
