from dataclasses import replace

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
from cohlim.functionals import CoherentModeSet, n_mode_functional, sigma_mu_sq, variances
from cohlim.mode_space import ModeDensity, MomentumGrid, TestFunction, inner

from conftest import gaussian_setups, make_battery, unit_disk, with_values


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
    return with_values(f, np.exp(1j * eps.values * t) * f.values)


class TestNModeEvolved:
    @pytest.mark.parametrize("t", [0.0, 3.7])
    def test_evolved_function_matches_counter_rotated_phases(self, gauss, t):
        # rotating the test function or counter-rotating the mode phases
        # theta_j -> theta_j - t eps(k_j) give the same value; the mode
        # momentum 0.5 sits on a cell center so the evolved (sample-backed)
        # function is evaluated exactly
        eps = Dispersion.photon(gauss.grid)
        modes = CoherentModeSet([0.5], [2.0], [0.3])
        eps_k = eps.values[gauss.grid.nearest_index(modes.k)]
        lhs = n_mode_functional(evolve(gauss, eps, t), modes).value
        rhs = n_mode_functional(gauss, replace(modes, theta=modes.theta - t * eps_k)).value
        assert lhs == pytest.approx(rhs, abs=1e-12)


class TestSigmaT:
    def test_time_zero_matches_static(self, gauss, rho):
        eps = Dispersion.photon(gauss.grid)
        for mu2 in (0.0, 0.5, -1.0):
            assert sigma_t([gauss], rho, mu2, eps, [0.0])[0, 0] == pytest.approx(
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
        table = sigma_t(battery, rho, mu2, eps, [0.0])
        for f, value in zip(battery, table[0]):
            static = sigma_mu_sq(f, rho, mu2)
            # the two sums group the cells differently, so where the terms
            # cancel (mu2 = -1, real f) the residue is rounding on their scale
            scale = grid.cell_volume * float(np.sum(rho.values * np.abs(f.values) ** 2))
            for sigma in (value, sigma_t([f], rho, mu2, eps, [0.0])[0, 0]):
                assert sigma == pytest.approx(static, rel=1e-12, abs=1e-12 * scale)

    @pytest.mark.parametrize("form", ["photon", "quadratic"])
    @pytest.mark.parametrize("t", [1.5, 7.3])
    def test_is_sigma_mu_sq_of_evolved_function(self, gauss, rho, form, t):
        # sigma_t is the static variance of the freely evolved test function
        eps = getattr(Dispersion, form)(gauss.grid)
        scale = gauss.grid.cell_volume * float(np.sum(rho.values * np.abs(gauss.values) ** 2))
        for mu2 in (0.5, 0.4 + 0.3j, -1.0):
            expect = sigma_mu_sq(evolve(gauss, eps, t), rho, mu2)
            assert sigma_t([gauss], rho, mu2, eps, [t])[0, 0] == pytest.approx(
                expect, rel=1e-12, abs=1e-12 * scale
            )

    def test_group_property(self, gauss, rho):
        # evolving for s and then for t is evolving for s + t
        eps = Dispersion.quadratic(gauss.grid)
        once = sigma_t([evolve(gauss, eps, 1.5)], rho, -1.0, eps, [2.5])[0, 0]
        assert once == pytest.approx(sigma_t([gauss], rho, -1.0, eps, [4.0])[0, 0], rel=1e-12)

    def test_constant_at_zero_mu2(self, gauss, rho):
        eps = Dispersion.photon(gauss.grid)
        base = inner(gauss, gauss, rho).real
        for t in (0.0, 5.0, 50.0):
            assert sigma_t([gauss], rho, 0.0, eps, [t])[0, 0] == pytest.approx(base)

    def test_relaxes_to_uniform_value(self):
        g = MomentumGrid(d=1, R=4.0, N=4096)
        f = TestFunction.from_profile(g, lambda k: np.exp(-((k - 2.0) ** 2) / 2.0))
        rho = ModeDensity.from_profile(g, lambda k: np.exp(-((k - 1.0) ** 2)))
        eps = Dispersion.photon(g)
        uniform = inner(f, f, rho).real
        assert abs(sigma_t([f], rho, -1.0, eps, [0.0])[0, 0] - uniform) > 0.1
        assert abs(sigma_t([f], rho, -1.0, eps, [50.0])[0, 0] - uniform) < 1e-6


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
                scalar = sigma_t([f], rho, mu2, eps, [float(t)])[0, 0]
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
                scalar = sigma_t([f], rho, -1.0, eps, [float(ts[i])])[0, 0]
                assert abs(table[i, j] - scalar) <= 1e-12 * abs(scalar)

    @pytest.mark.parametrize("n_times", [1, 3])
    @pytest.mark.parametrize("n_fns", [1, 2])
    def test_result_shape(self, gauss, rho, n_times, n_fns):
        # one time and one function keep their axes: always (len(ts), len(battery))
        eps = Dispersion.photon(gauss.grid)
        ts = np.array([0.0, 1.0, 2.5])[:n_times]
        table = sigma_t([gauss] * n_fns, rho, -1.0, eps, ts)
        assert table.shape == (n_times, n_fns) and table.dtype == np.float64

    def test_rejects_mu2_outside_unit_disc(self, gauss, rho):
        eps = Dispersion.photon(gauss.grid)
        with pytest.raises(ValueError):
            sigma_t([gauss], rho, 1.5, eps, [1.0])
        with pytest.raises(ValueError):
            sigma_t([gauss], rho, 0.8 + 0.8j, eps, np.array([0.0, 1.0]))

    @pytest.mark.parametrize("d", [1, 2])
    def test_curve_exactly_zero_at_zero_mu2(self, d):
        battery, rho, eps = _grid_case(d, "photon")
        ts = np.linspace(0.0, 30.0, 41)
        unif = variances(battery, rho, 0.0)
        curve = uniformization_curve(battery, unif, sigma_t(battery, rho, 0.0, eps, ts, unif))
        assert curve.shape == ts.shape
        assert np.all(curve == 0.0)

    def test_curve_matches_scalar_metric(self):
        battery, rho, eps = _grid_case(1, "photon")
        ts = np.linspace(0.0, 20.0, 21)
        unif = variances(battery, rho, 0.0)
        curve = uniformization_curve(battery, unif, sigma_t(battery, rho, -1.0, eps, ts, unif))
        for t, value in zip(ts, curve):
            scalar = uniformization_metric(battery, rho, -1.0, eps, float(t))
            assert value == pytest.approx(scalar, rel=1e-12, abs=1e-15)

    def test_curve_rejects_empty_battery(self):
        with pytest.raises(ValueError):
            uniformization_curve([], np.zeros(0), np.zeros((3, 0)))


def _sorted_levels(eps):
    """The distinct dispersion values of `eps`, ascending."""
    return dynamics._eps_levels(eps.values)[2]


def _no_chirp(*args):
    raise AssertionError("the chirp-z path was taken")


@st.composite
def lattice_sums(draw):
    """(weights, levels, ts, c) for a chirp-z level sum: L levels on a gapped
    lattice eps_0 + n h of at most 4 L points, with n = 0 and 1 both present
    so that h is the smallest gap; K complex weight columns; a uniform t-grid
    of up to 4000 times from t0 != 0.  Every phase c t eps stays below 1000
    rad, so that the rounding of the direct path stays far below 1e-12."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n_levels = draw(st.integers(2, 200))
    n_points = draw(st.integers(n_levels, 4 * n_levels)) if n_levels > 2 else 2
    inside = rng.choice(np.arange(2, n_points - 1), max(n_levels - 3, 0), replace=False)
    n = np.unique(np.concatenate(([0, 1, n_points - 1], inside)))
    h = draw(st.floats(0.5, 6.0)) / (n_points - 1)
    eps0 = draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(0.1, 4.0))
    levels = eps0 + h * n
    k = draw(st.integers(1, 3))
    weights = rng.normal(size=(n_levels, k)) + 1j * rng.normal(size=(n_levels, k))
    n_times = draw(st.integers(2, 4000))
    t0 = draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(0.1, 25.0))
    ts = t0 + draw(st.floats(0.1, 25.0)) / (n_times - 1) * np.arange(n_times)
    return weights, levels, ts, draw(st.sampled_from([1.0, 2.0]))


class TestLevelSum:
    """The chirp-z path of level_sum against its direct path."""

    @given(case=lattice_sums())
    @settings(max_examples=40, deadline=None)
    def test_chirp_matches_direct(self, case):
        weights, levels, ts, c = case
        assert dynamics._uniform_step(ts) is not None
        assert dynamics._lattice(levels) is not None
        fast = dynamics.level_sum(weights, levels, ts, c)
        direct = dynamics._direct_level_sum(weights, levels, ts, c)
        assert fast.shape == (len(ts), weights.shape[1])
        scale = np.sum(np.abs(weights), axis=0)
        assert np.all(np.abs(fast - direct) <= 1e-12 * scale)

    def test_few_levels_on_a_long_grid(self):
        # the chirp e^{i phi m^2/2} reaches 3e4 rad here, against phases
        # c t eps of at most 120: its rounding must not grow with it
        levels = 0.5 + 0.25 * np.arange(3)
        weights = np.array([[1.0 + 0.5j], [-0.3 + 1.0j], [0.7 - 0.2j]])
        ts = np.linspace(2.0, 60.0, 2000)
        fast = dynamics.level_sum(weights, levels, ts, 2.0)
        direct = dynamics._direct_level_sum(weights, levels, ts, 2.0)
        assert np.all(np.abs(fast - direct) <= 1e-12 * np.sum(np.abs(weights)))

    def test_levels_apart_by_rounding_share_a_lattice_point(self):
        # 2R/N = 0.05 is inexact, so the two cells +-k of a pair can round to
        # two distinct |k|: 85 levels on a 51-point lattice
        levels = _sorted_levels(Dispersion.photon(MomentumGrid(d=1, R=2.5, N=100)))
        n, _ = dynamics._lattice(levels)
        assert len(levels) == 85 and n[-1] == 50
        rng = np.random.default_rng(7)
        weights = rng.normal(size=(85, 2)) + 1j * rng.normal(size=(85, 2))
        ts = np.linspace(-3.0, 40.0, 300)
        fast = dynamics.level_sum(weights, levels, ts, 2.0)
        direct = dynamics._direct_level_sum(weights, levels, ts, 2.0)
        assert np.all(np.abs(fast - direct) <= 1e-12 * np.sum(np.abs(weights), axis=0))

    @pytest.mark.parametrize("ts", [np.array([0.0, 1.0, 3.0]), np.array([2.5])])
    def test_uneven_grid_or_one_time_takes_direct_path(self, monkeypatch, ts):
        levels = 0.5 + 0.25 * np.arange(40)
        weights = np.exp(1j * levels)[:, None]
        monkeypatch.setattr(dynamics, "_chirp_level_sum", _no_chirp)
        assert np.array_equal(
            dynamics.level_sum(weights, levels, ts, 2.0),
            dynamics._direct_level_sum(weights, levels, ts, 2.0),
        )

    @pytest.mark.parametrize(
        "levels",
        [
            _sorted_levels(Dispersion.quadratic(MomentumGrid(d=1, R=4.0, N=256))),
            _sorted_levels(Dispersion.photon(MomentumGrid(d=2, R=3.0, N=20))),
            np.sort(np.random.default_rng(5).uniform(0.0, 3.0, 50)),
        ],
        ids=["quadratic", "photon-2d", "sampled"],
    )
    def test_off_lattice_levels_take_direct_path(self, monkeypatch, levels):
        assert dynamics._lattice(levels) is None
        weights = np.exp(1j * levels)[:, None]
        ts = np.linspace(0.0, 10.0, 30)
        monkeypatch.setattr(dynamics, "_chirp_level_sum", _no_chirp)
        assert np.array_equal(
            dynamics.level_sum(weights, levels, ts, 2.0),
            dynamics._direct_level_sum(weights, levels, ts, 2.0),
        )

    def test_zero_mu2_gives_the_base_exactly(self):
        battery, rho, eps = _grid_case(1, "photon")
        ts = np.linspace(0.5, 60.0, 400)
        assert dynamics._lattice(_sorted_levels(eps)) is not None
        table = sigma_t(battery, rho, 0.0, eps, ts)
        assert np.all(table == variances(battery, rho, 0.0))

    @pytest.mark.parametrize("n_points, n_times", [(40, 200), (200, 40), (5, 100)])
    def test_blocks_match_one_convolution(self, monkeypatch, n_points, n_times):
        # with CHIRP_BLOCK = 16 the block side max(16, min(M, T)) cuts the
        # longer axis, the t-grid into segments or the lattice into runs, in
        # at least 3 pieces
        rng = np.random.default_rng(n_points)
        levels = 0.7 + 0.03 * np.arange(n_points)
        weights = rng.normal(size=(n_points, 2)) + 1j * rng.normal(size=(n_points, 2))
        ts = 1.5 + 0.2 * np.arange(n_times)
        monkeypatch.setattr(dynamics, "CHIRP_BLOCK", 10 ** 6)
        whole = dynamics.level_sum(weights, levels, ts, 2.0)
        monkeypatch.setattr(dynamics, "CHIRP_BLOCK", 16)
        assert max(n_points, n_times) >= 3 * max(16, min(n_points, n_times))
        cut = dynamics.level_sum(weights, levels, ts, 2.0)
        assert np.all(np.abs(cut - whole) <= 1e-12 * np.sum(np.abs(weights), axis=0))
