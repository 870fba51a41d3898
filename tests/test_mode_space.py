import json
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohlim.circle_measure import PhaseMeasure
from cohlim.config import build_grid
from cohlim.dynamics import Dispersion, sigma_t, uniformization_metric
from cohlim.functionals import cell_amplitudes, phase_averaged_functional, sigma_mu_sq, variances
from cohlim.gns_reps import apply_R, apply_T, build_alpha_beta, rep_expectation_averaged
from cohlim.ito_sampler import sample_chi
from cohlim.mode_space import (
    GridMismatchError,
    ModeDensity,
    MomentumGrid,
    TestFunction,
    battery_gram,
    finite_volume_coefficients,
    norm_sq_momentum,
    same_grid,
)
from cohlim.open_system import envelopes, gamma

from conftest import gaussian_setups, unit_disk, with_values
from oracles import clt_sample, inner, permanent_moment


class TestMomentumGrid:
    def test_cell_centers_one_dimensional(self):
        g = MomentumGrid(d=1, R=4.0, N=8)
        assert g.spacing == 1.0
        assert g.cell_volume == 1.0
        np.testing.assert_allclose(g.axis, np.arange(-3, 5, dtype=float))

    def test_cell_count_scales_with_dimension(self):
        assert MomentumGrid(d=2, R=2.0, N=10).n_cells == 100
        assert MomentumGrid(d=3, R=2.0, N=6).n_cells == 216

    def test_points_cover_the_box(self):
        g = MomentumGrid(d=2, R=3.0, N=12)
        pts = g.points()
        assert pts.shape == (144, 2)
        assert pts.min() >= -3.0 and pts.max() <= 3.0

    @pytest.mark.parametrize("d, N", [(1, 7), (2, 2), (2, 33), (3, 5), (3, 16)])
    def test_coordinates_have_the_bits_of_the_meshgrid_stack(self, d, N):
        # points and radii are filled without meshgrid copies, and keep the
        # bits of the stacked meshgrid and of the norm of its rows
        g = MomentumGrid(d=d, R=3.7, N=N)
        stacked = np.stack([a.ravel() for a in np.meshgrid(*([g.axis] * d), indexing="ij")], axis=-1)
        assert np.array_equal(g.points(), stacked)
        assert np.array_equal(g.radii(), np.linalg.norm(stacked, axis=1))

    def test_nearest_index_roundtrip(self):
        g = MomentumGrid(d=2, R=3.0, N=12)
        pts = g.points()
        np.testing.assert_array_equal(g.nearest_index(pts), np.arange(g.n_cells))

    def test_nearest_index_clips_outside_points(self):
        g = MomentumGrid(d=1, R=1.0, N=4)
        idx = g.nearest_index(np.array([[-50.0], [50.0]]))
        assert idx[0] == 0 and idx[1] == 3

    def test_json_roundtrip(self):
        g = MomentumGrid(d=3, R=1.5, N=7)
        # the JSON descriptor, read back by the config reader
        assert build_grid(json.loads(json.dumps({"d": g.d, "R": g.R, "N": g.N}))) == g

    @pytest.mark.parametrize("kwargs", [
        dict(d=0, R=1.0, N=4),
        dict(d=4, R=1.0, N=4),
        dict(d=1, R=-1.0, N=4),
        dict(d=1, R=1.0, N=1),
    ])
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(ValueError):
            MomentumGrid(**kwargs)


class TestTestFunction:
    def test_profile_evaluation_off_grid(self, grid):
        f = TestFunction.from_profile(grid, lambda k: np.exp(1j * k))
        val = f.evaluate_at(np.array([[0.123]]))
        assert val[0] == pytest.approx(np.exp(0.123j))

    def test_sampled_evaluation_snaps_to_nearest_cell(self, grid):
        f = TestFunction(grid, np.arange(grid.n_cells, dtype=complex))
        k = grid.axis[17] + 0.3 * grid.spacing
        assert f.evaluate_at(np.array([[k]]))[0] == 17.0 + 0j

    def test_rejects_wrong_shape(self, grid):
        with pytest.raises(ValueError):
            TestFunction(grid, np.zeros(3))

    def test_rejects_nonfinite(self, grid):
        vals = np.zeros(grid.n_cells, dtype=complex)
        vals[0] = np.nan
        with pytest.raises(ValueError):
            TestFunction(grid, vals)


class TestModeDensity:
    def test_rejects_negative(self, grid):
        with pytest.raises(ValueError):
            ModeDensity(grid, -np.ones(grid.n_cells))

    def test_from_profile(self, grid):
        rho = ModeDensity.from_profile(grid, lambda k: np.exp(-(k ** 2)))
        assert rho.values.max() <= 1.0


class TestInner:
    def test_conjugate_linear_first_slot(self, grid, gauss):
        g2 = with_values(gauss, 1j * gauss.values)
        assert inner(g2, gauss) == pytest.approx(np.conj(1j) * inner(gauss, gauss))

    def test_matches_closed_form_gaussian(self):
        # int e^{-k^2} dk = sqrt(pi); midpoint on [-8, 8] is exact to machine eps
        g = MomentumGrid(d=1, R=8.0, N=2048)
        f = TestFunction.from_profile(g, lambda k: np.exp(-(k ** 2) / 2.0))
        assert inner(f, f).real == pytest.approx(math.sqrt(math.pi), rel=1e-12)

    def test_cauchy_schwarz(self, grid, gauss, rho):
        other = with_values(gauss, np.conj(gauss.values))
        lhs = abs(inner(other, gauss, rho)) ** 2
        rhs = inner(other, other, rho).real * inner(gauss, gauss, rho).real
        assert lhs <= rhs * (1 + 1e-12)

    def test_grid_mismatch_raises(self, gauss):
        g2 = MomentumGrid(d=1, R=4.0, N=128)
        f2 = TestFunction(g2, np.zeros(128))
        with pytest.raises(GridMismatchError):
            inner(gauss, f2)

    @given(a=st.floats(-2, 2), b=st.floats(-2, 2))
    @settings(max_examples=25, deadline=None)
    def test_real_linearity_second_slot(self, a, b):
        g = MomentumGrid(d=1, R=2.0, N=32)
        f1 = TestFunction.from_profile(g, lambda k: np.exp(-(k ** 2)))
        f2 = TestFunction.from_profile(g, lambda k: k * np.exp(-(k ** 2)))
        combo = with_values(f1, a * f1.values + b * f2.values)
        expect = a * inner(f1, f1) + b * inner(f1, f2)
        assert inner(f1, combo) == pytest.approx(expect, abs=1e-12)


class TestBatteryGram:
    @given(setup=gaussian_setups(), mu2=unit_disk)
    @settings(max_examples=40, deadline=None)
    def test_matches_independent_sums(self, setup, mu2):
        # the Gram the chi law is drawn from, entry by entry, to 1e-13 of the
        # entry scale sqrt(G_ii G_jj), which bounds |G_ij| and |T_ij|
        grid, battery, rho = setup
        G, T = battery_gram(battery, rho)
        dk = grid.cell_volume
        norms = np.sqrt([dk * np.sum(rho.values * np.abs(f.values) ** 2) for f in battery])
        tol = 1e-13 * np.outer(norms, norms)
        for i, fi in enumerate(battery):
            for j, fj in enumerate(battery):
                assert abs(G[i, j] - inner(fi, fj, rho)) <= tol[i, j]
                assert abs(T[i, j] - dk * np.sum(rho.values * fi.values * fj.values)) <= tol[i, j]
        # its diagonal is the variance integral
        diag = np.diagonal(G).real + np.real(mu2 * np.diagonal(T))
        assert np.all(np.abs(diag - variances(battery, rho, mu2)) <= np.diagonal(tol))


class TestFiniteVolumeCoefficients:
    def test_gaussian_coefficient_against_transform(self):
        # fhat_k = L^{-1/2} int e^{-ikx} e^{-x^2/2} dx -> L^{-1/2} sqrt(2 pi) e^{-k^2/2}
        L = 60.0
        modes = [0, 1, 5, -3]
        coeffs = finite_volume_coefficients(
            lambda x: np.exp(-(x ** 2) / 2.0), L, modes, quad_points=8192
        )
        ks = 2 * np.pi * np.array(modes) / L
        expect = math.sqrt(2 * math.pi / L) * np.exp(-(ks ** 2) / 2.0)
        np.testing.assert_allclose(coeffs, expect, rtol=1e-10, atol=1e-12)

    def test_plane_wave_orthogonality(self):
        # f(x) = e^{i 2 pi 3 x / L}: only mode 3 survives
        L = 10.0
        coeffs = finite_volume_coefficients(
            lambda x: np.exp(1j * 2 * np.pi * 3 * x / L), L, [2, 3, 4]
        )
        assert abs(coeffs[0]) < 1e-10 and abs(coeffs[2]) < 1e-10
        assert coeffs[1] == pytest.approx(math.sqrt(L), rel=1e-10)

    def test_two_dimensional_factorizes(self):
        L = 20.0
        c2 = finite_volume_coefficients(
            lambda p: np.exp(-np.sum(p ** 2, axis=-1) / 2.0),
            L,
            [[1, 2]],
            d=2,
            quad_points=256,
        )
        c1a = finite_volume_coefficients(
            lambda x: np.exp(-(x ** 2) / 2.0), L, [1], quad_points=256
        )
        c1b = finite_volume_coefficients(
            lambda x: np.exp(-(x ** 2) / 2.0), L, [2], quad_points=256
        )
        assert c2[0] == pytest.approx(c1a[0] * c1b[0], rel=1e-9)

    def test_rejects_bad_box(self):
        with pytest.raises(ValueError):
            finite_volume_coefficients(lambda x: x, -1.0, [0])


def test_norm_sq_momentum_matches_inner(gauss):
    assert norm_sq_momentum(gauss) == pytest.approx(inner(gauss, gauss).real)


def _inputs(grid):
    """One of each grid-carrying input on `grid`."""
    rho = ModeDensity.from_profile(grid, lambda k: np.exp(-((k - 1.0) ** 2)))
    return SimpleNamespace(
        f=TestFunction.from_profile(grid, lambda k: np.exp(-(k ** 2) / 2.0)),
        rho=rho,
        eps=Dispersion.photon(grid),
        squeeze=build_alpha_beta(rho, 0.3),
    )


GRID_TAKING = {
    "same_grid": lambda a, b: same_grid(a.f, a.rho, b.eps),
    "inner": lambda a, b: inner(a.f, b.f),
    "inner_weight": lambda a, b: inner(a.f, a.f, b.rho),
    "sigma_mu_sq": lambda a, b: sigma_mu_sq(a.f, b.rho, 0.3),
    "variances": lambda a, b: variances([a.f, b.f], a.rho, 0.3),
    "phase_averaged_functional": lambda a, b: phase_averaged_functional(a.f, b.rho, 0.3),
    "sigma_t": lambda a, b: sigma_t([a.f], a.rho, 0.3, b.eps, [1.0]),
    "uniformization_metric": lambda a, b: uniformization_metric([a.f], a.rho, 0.3, b.eps, 1.0),
    "gamma": lambda a, b: gamma([0.0, 1.0], a.f, b.eps),
    "envelopes": lambda a, b: envelopes(1.0, a.f, b.eps, [0.0, 1.0], 0.3),
    "sample_chi": lambda a, b: sample_chi([a.f], b.rho, 0.3, 2, np.random.default_rng(0)),
    "battery_gram": lambda a, b: battery_gram([a.f, b.f], a.rho),
    "battery_gram_weight": lambda a, b: battery_gram([a.f], b.rho),
    "cell_amplitudes": lambda a, b: cell_amplitudes(a.f, b.rho),
    "clt_sample": lambda a, b: clt_sample(a.f, b.rho, PhaseMeasure.uniform(), 2, np.random.default_rng(0)),
    "permanent_moment": lambda a, b: permanent_moment([a.f], [a.f], b.rho),
    "apply_R": lambda a, b: apply_R(a.f, a.rho, b.squeeze),
    "apply_T": lambda a, b: apply_T(a.f, b.rho, a.squeeze),
    "rep_expectation_averaged": lambda a, b: rep_expectation_averaged(a.f, b.rho, 0.3),
}


@pytest.mark.parametrize("name", GRID_TAKING)
def test_grid_taking_function_refuses_another_grid(grid, name):
    # same N, different R: the cell counts agree, so only the grid check can refuse
    other = MomentumGrid(d=grid.d, R=grid.R + 1.0, N=grid.N)
    a, b = _inputs(grid), _inputs(other)
    with pytest.raises(GridMismatchError):
        GRID_TAKING[name](a, b)
