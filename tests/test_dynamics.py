import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohlim import dynamics
from cohlim.dynamics import (
    Dispersion,
    sigma_t,
    uniformization_curve,
    uniformization_metric,
)
from cohlim.functionals import CoherentModeSet, n_mode_functional, sigma_mu_sq
from cohlim.mode_space import ModeDensity, MomentumGrid, TestFunction, inner

from conftest import gaussian_setups, make_battery, unit_disk


class TestDispersion:
    def test_photon_samples(self, grid):
        eps = Dispersion.photon(grid)
        np.testing.assert_allclose(eps.values, np.abs(grid.axis))

    def test_quadratic_values(self, grid):
        eps = Dispersion.quadratic(grid)
        np.testing.assert_allclose(eps.values, grid.axis ** 2)

    def test_three_dimensional_photon(self):
        g = MomentumGrid(d=3, R=2.0, N=6)
        eps = Dispersion.photon(g)
        np.testing.assert_allclose(eps.values, g.radii())


def evolve(f, eps, t):
    """The free evolution e^{i eps(k) t} fhat(k), pointwise on the cells."""
    return f.with_values(np.exp(1j * eps.values * t) * f.values)


class TestNModeEvolved:
    @pytest.mark.parametrize("t", [0.0, 3.7])
    def test_evolved_function_matches_counter_rotated_phases(self, gauss, t):
        # rotating the test function or counter-rotating the mode phases
        # theta_j -> theta_j - t eps(k_j) give the same value; the mode
        # momentum 0.5 sits on a cell center so the evolved (sample-backed)
        # function is evaluated exactly
        eps = Dispersion.photon(gauss.grid)
        modes = CoherentModeSet(((np.array([0.5]), 2.0, 0.3),))
        eps_k = eps.values[gauss.grid.nearest_index(modes.momenta())]
        lhs = n_mode_functional(evolve(gauss, eps, t), modes).value
        rhs = n_mode_functional(gauss, modes.with_thetas(modes.thetas() - t * eps_k)).value
        assert lhs == pytest.approx(rhs, abs=1e-12)


class TestSigmaT:
    def test_time_zero_matches_static(self, gauss, rho):
        eps = Dispersion.photon(gauss.grid)
        for mu2 in (0.0, 0.5, -1.0):
            assert sigma_t(gauss, rho, mu2, eps, 0.0) == pytest.approx(
                sigma_mu_sq(gauss, rho, mu2)
            )

    @given(
        setup=gaussian_setups(),
        mu2=unit_disk,
        form=st.sampled_from(["photon", "quadratic"]),
    )
    @settings(max_examples=40, deadline=None)
    def test_time_zero_matches_static_property(self, setup, mu2, form):
        grid, battery, rho = setup
        eps = getattr(Dispersion, form)(grid)
        table = sigma_t(battery, rho, mu2, eps, 0.0)
        for f, value in zip(battery, table):
            static = sigma_mu_sq(f, rho, mu2)
            # the two sums group the cells differently, so where the terms
            # cancel (mu2 = -1, real f) the residue is rounding on their scale
            scale = grid.cell_volume * float(np.sum(rho.values * np.abs(f.values) ** 2))
            for sigma in (value, sigma_t(f, rho, mu2, eps, 0.0)):
                assert sigma == pytest.approx(static, rel=1e-12, abs=1e-12 * scale)

    @pytest.mark.parametrize("form", ["photon", "quadratic"])
    @pytest.mark.parametrize("t", [1.5, 7.3])
    def test_is_sigma_mu_sq_of_evolved_function(self, gauss, rho, form, t):
        # sigma_t is the static variance of the freely evolved test function
        eps = getattr(Dispersion, form)(gauss.grid)
        scale = gauss.grid.cell_volume * float(np.sum(rho.values * np.abs(gauss.values) ** 2))
        for mu2 in (0.5, 0.4 + 0.3j, -1.0):
            expect = sigma_mu_sq(evolve(gauss, eps, t), rho, mu2)
            assert sigma_t(gauss, rho, mu2, eps, t) == pytest.approx(
                expect, rel=1e-12, abs=1e-12 * scale
            )

    def test_group_property(self, gauss, rho):
        # evolving for s and then for t is evolving for s + t
        eps = Dispersion.quadratic(gauss.grid)
        once = sigma_t(evolve(gauss, eps, 1.5), rho, -1.0, eps, 2.5)
        assert once == pytest.approx(sigma_t(gauss, rho, -1.0, eps, 4.0), rel=1e-12)

    def test_constant_at_zero_mu2(self, gauss, rho):
        eps = Dispersion.photon(gauss.grid)
        base = inner(gauss, gauss, rho).real
        for t in (0.0, 5.0, 50.0):
            assert sigma_t(gauss, rho, 0.0, eps, t) == pytest.approx(base)

    def test_relaxes_to_uniform_value(self):
        g = MomentumGrid(d=1, R=4.0, N=4096)
        f = TestFunction.from_profile(g, lambda k: np.exp(-((k - 2.0) ** 2) / 2.0))
        rho = ModeDensity.from_profile(g, lambda k: np.exp(-((k - 1.0) ** 2)))
        eps = Dispersion.photon(g)
        uniform = inner(f, f, rho).real
        assert abs(sigma_t(f, rho, -1.0, eps, 0.0) - uniform) > 0.1
        assert abs(sigma_t(f, rho, -1.0, eps, 50.0) - uniform) < 1e-6


class TestUniformizationMetric:
    def test_zero_at_zero_mu2(self, grid, rho):
        eps = Dispersion.photon(grid)
        battery = make_battery(grid, 4)
        for t in (0.0, 3.0, 30.0):
            assert uniformization_metric(battery, rho, 0.0, eps, t) == 0.0

    def test_decays_in_time(self):
        g = MomentumGrid(d=1, R=4.0, N=4096)
        battery = [
            TestFunction.from_profile(g, lambda k: np.exp(-((k - 2.0) ** 2) / 2.0))
        ]
        rho = ModeDensity.from_profile(g, lambda k: np.exp(-((k - 1.0) ** 2)))
        eps = Dispersion.photon(g)
        m0 = uniformization_metric(battery, rho, -1.0, eps, 0.0)
        m1 = uniformization_metric(battery, rho, -1.0, eps, 50.0)
        assert m1 < 1e-6 < m0

    def test_empty_battery_rejected(self, rho, grid):
        with pytest.raises(ValueError):
            uniformization_metric([], rho, 0.0, Dispersion.photon(grid), 1.0)


def _grid_case(d, form):
    """A 1-d or 2-d grid with a complex battery, a density and a dispersion."""
    if d == 1:
        grid = MomentumGrid(d=1, R=4.0, N=256)
        battery = make_battery(grid, 3)
        rho = ModeDensity.from_profile(grid, lambda k: np.exp(-((k - 1.0) ** 2)))
    else:
        grid = MomentumGrid(d=2, R=3.0, N=20)
        pts = grid.points()
        battery = [
            TestFunction(grid, np.exp(-np.sum((pts - c) ** 2, axis=1) / 2.0 + 1j * m * pts[:, 0]))
            for c, m in ((0.5, 1.0), (-1.0, -0.7), (1.5, 0.3))
        ]
        rho = ModeDensity(grid, np.exp(-np.sum((pts - 0.5) ** 2, axis=1)))
    eps = Dispersion.photon(grid) if form == "photon" else Dispersion.quadratic(grid)
    return battery, rho, eps


def _per_cell_sigma_t(f, rho, mu2, eps, t):
    """The per-cell integrand of sigma_t, without grouping equal eps."""
    integrand = rho.values * (
        np.abs(f.values) ** 2 + np.real(np.exp(2j * t * eps.values) * mu2 * f.values ** 2)
    )
    return f.grid.cell_volume * np.sum(integrand)


class TestSigmaTGrid:
    """sigma_t over a battery and a whole t-grid in one pass."""

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("form", ["photon", "quadratic"])
    @pytest.mark.parametrize("mu2", [0.0, 0.4 + 0.3j, -1.0])
    def test_grid_matches_scalar_path(self, monkeypatch, d, form, mu2):
        battery, rho, eps = _grid_case(d, form)
        # 7 times per phase block: the 50-point grid spans 8 blocks, the last
        # one partial
        n_levels = np.unique(eps.values).size
        monkeypatch.setattr(dynamics, "PHASE_BLOCK_BYTES", 16 * n_levels * 7)
        ts = np.linspace(0.0, 12.0, 50)
        table = sigma_t(battery, rho, mu2, eps, ts)
        assert table.shape == (len(ts), len(battery))
        for i, t in enumerate(ts):
            for j, f in enumerate(battery):
                scalar = sigma_t(f, rho, mu2, eps, float(t))
                assert abs(table[i, j] - scalar) <= 1e-12 * abs(scalar)
                # against the ungrouped per-cell sum, on the scale of its terms
                scale = 2.0 * inner(f, f, rho).real
                assert abs(table[i, j] - _per_cell_sigma_t(f, rho, mu2, eps, t)) <= 1e-12 * scale

    def test_default_block_size_matches_scalar_path(self):
        battery, rho, eps = _grid_case(1, "photon")
        ts = np.arange(0.0, 100.0, 0.1)  # more times than one default block holds
        assert len(ts) > dynamics.PHASE_BLOCK_BYTES // (16 * np.unique(eps.values).size)
        table = sigma_t(battery, rho, -1.0, eps, ts)
        for i in (0, 1, 499, 998, len(ts) - 1):
            for j, f in enumerate(battery):
                scalar = sigma_t(f, rho, -1.0, eps, float(ts[i]))
                assert abs(table[i, j] - scalar) <= 1e-12 * abs(scalar)

    def test_result_shapes(self, gauss, rho):
        eps = Dispersion.photon(gauss.grid)
        ts = np.array([0.0, 1.0, 2.5])
        assert isinstance(sigma_t(gauss, rho, -1.0, eps, 1.0), float)
        assert sigma_t(gauss, rho, -1.0, eps, ts).shape == (3,)
        assert sigma_t([gauss, gauss], rho, -1.0, eps, 1.0).shape == (2,)
        assert sigma_t([gauss, gauss], rho, -1.0, eps, ts).shape == (3, 2)

    def test_rejects_mu2_outside_unit_disc(self, gauss, rho):
        eps = Dispersion.photon(gauss.grid)
        with pytest.raises(ValueError):
            sigma_t(gauss, rho, 1.5, eps, 1.0)
        with pytest.raises(ValueError):
            sigma_t([gauss], rho, 0.8 + 0.8j, eps, np.array([0.0, 1.0]))

    @pytest.mark.parametrize("d", [1, 2])
    def test_curve_exactly_zero_at_zero_mu2(self, d):
        battery, rho, eps = _grid_case(d, "photon")
        ts = np.linspace(0.0, 30.0, 41)
        curve = uniformization_curve(battery, rho, sigma_t(battery, rho, 0.0, eps, ts))
        assert curve.shape == ts.shape
        assert np.all(curve == 0.0)

    def test_curve_matches_scalar_metric(self):
        battery, rho, eps = _grid_case(1, "photon")
        ts = np.linspace(0.0, 20.0, 21)
        curve = uniformization_curve(battery, rho, sigma_t(battery, rho, -1.0, eps, ts))
        for t, value in zip(ts, curve):
            scalar = uniformization_metric(battery, rho, -1.0, eps, float(t))
            assert value == pytest.approx(scalar, rel=1e-12, abs=1e-15)

    def test_curve_rejects_empty_battery(self, rho):
        with pytest.raises(ValueError):
            uniformization_curve([], rho, np.zeros((3, 0)))
