import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import j0 as scipy_j0

from cohlim.circle_measure import PhaseMeasure, circle_average, fourier_moment
from cohlim.config import build_density, build_grid, build_test_function, closed_form, density_form
from cohlim.functionals import (
    CoherentModeSet,
    bessel_j0,
    divergence_diagnostic,
    finite_volume_functional,
    fock_functional,
    n_mode_functional,
    phase_averaged_functional,
    rarefied_finite_volume_phase,
    rarefied_functional,
    rarefied_mode_count,
    sigma_mu_sq,
    variances,
)
from cohlim.gns_reps import rep_expectation_n_mode
from cohlim.mode_space import ModeDensity, MomentumGrid, TestFunction

from conftest import built_pairs, gaussian_setups, make_battery, opposite_pair, unit_disk, with_values


def cell_modes(rho):
    """The grid cells of rho as coherent modes of density rho(k_j) dk, all
    phases 0: the N-mode phase average over them is the finite-N product of
    per-cell circle averages."""
    grid = rho.grid
    return CoherentModeSet(grid.points(), rho.values * grid.cell_volume, np.zeros(grid.n_cells))


class TestFockFunctional:
    def test_gaussian_closed_form(self):
        # |fhat|_2^2 = sqrt(pi) for fhat = e^{-k^2/2}; exponent sqrt(pi)/(8 pi)
        g = MomentumGrid(d=1, R=8.0, N=4096)
        f = TestFunction.from_profile(g, lambda k: np.exp(-(k ** 2) / 2.0))
        expect = math.exp(-math.sqrt(math.pi) / (8.0 * math.pi))
        assert fock_functional(f).value.real == pytest.approx(expect, rel=1e-12)

    def test_zero_function_gives_one(self, grid):
        f = TestFunction(grid, np.zeros(grid.n_cells))
        assert fock_functional(f).value == 1.0

    def test_modulus_at_most_one(self, grid):
        for f in make_battery(grid, 5):
            assert fock_functional(f).modulus <= 1.0

    def test_conjugation_axiom(self, gauss):
        # E(-f) = conj(E(f)); the Fock value is real so both sides coincide
        neg = with_values(gauss, -gauss.values)
        assert fock_functional(neg).value == pytest.approx(
            np.conj(fock_functional(gauss).value)
        )


class TestNModeFunctional:
    def test_empty_mode_set_is_fock(self, gauss):
        assert n_mode_functional(gauss, CoherentModeSet([], [], [])).value == pytest.approx(
            fock_functional(gauss).value
        )

    def test_single_mode_phase(self, gauss):
        modes = CoherentModeSet([0.5], [2.0], [0.3])
        fv = n_mode_functional(gauss, modes)
        fhat = gauss.evaluate_at(np.array([[0.5]]))[0]
        expect_phase = np.real(np.exp(-0.3j) * math.sqrt(4.0) * fhat)
        assert fv.phase == pytest.approx(expect_phase)
        assert fv.modulus == pytest.approx(fock_functional(gauss).modulus)

    def test_phases_add_over_modes(self, gauss):
        m1 = CoherentModeSet([0.5], [2.0], [0.3])
        m2 = CoherentModeSet([-1.0], [1.0], [1.1])
        both = CoherentModeSet([0.5, -1.0], [2.0, 1.0], [0.3, 1.1])
        assert n_mode_functional(gauss, both).phase == pytest.approx(
            n_mode_functional(gauss, m1).phase + n_mode_functional(gauss, m2).phase
        )

    def test_rejects_negative_density(self):
        with pytest.raises(ValueError):
            CoherentModeSet([0.0, 1.0], [1.0, -1.0], [0.0, 0.0])

    @pytest.mark.parametrize(
        "k, rho, theta",
        [([0.0, 1.0], [1.0], [0.0]), ([0.0], [1.0], [0.0, 1.0]), ([[[0.0]]], [1.0], [0.0]), ([0.0], [1.0], 0.0)],
    )
    def test_rejects_mismatched_arrays(self, k, rho, theta):
        with pytest.raises(ValueError):
            CoherentModeSet(k, rho, theta)

    def test_holds_arrays(self):
        modes = CoherentModeSet([[0.5, -1.0], [1.0, 2.0]], [2.0, 1.0], [-0.5, 7.0])
        assert modes.k.shape == (2, 2)
        np.testing.assert_array_equal(modes.theta, np.mod([-0.5, 7.0], 2 * math.pi))
        assert CoherentModeSet([0.5], [2.0], [0.3]).k.shape == (1, 1)
        assert CoherentModeSet([], [], []).k.shape == (0, 1)


class TestStateAxiomProperties:
    """|E(f)| <= 1 and E(-f) = conj E(f) for the Fock, N-mode and
    phase-averaged functionals on drawn batteries, densities, modes and
    measures."""

    @staticmethod
    def check_axioms(functional, battery):
        for f in battery:
            value = functional(f).value
            assert abs(value) <= 1.0 + 1e-12
            # the N-mode value reads fhat at the modes from the closed form,
            # so -f carries the negated one
            neg = TestFunction(f.grid, -f.values, profile=lambda k, p=f.profile: -p(k))
            assert functional(neg).value == pytest.approx(
                np.conj(value), rel=1e-12, abs=0.0
            )

    @given(setup=gaussian_setups())
    @settings(max_examples=30, deadline=None)
    def test_fock(self, setup):
        _, battery, _ = setup
        self.check_axioms(fock_functional, battery)

    @given(
        setup=gaussian_setups(),
        modes=st.lists(
            st.tuples(st.floats(-2.0, 2.0), st.floats(0.0, 3.0), st.floats(0.0, 2 * math.pi)),
            max_size=4,
        ),
    )
    @settings(max_examples=30, deadline=None)
    def test_n_mode(self, setup, modes):
        _, battery, _ = setup
        mode_set = CoherentModeSet(*np.reshape(modes, (-1, 3)).T)
        self.check_axioms(lambda f: n_mode_functional(f, mode_set), battery)

    @given(
        setup=gaussian_setups(),
        angles=st.tuples(st.floats(0.0, math.pi), st.floats(0.0, math.pi)),
        p=st.floats(0.0, 0.5),
        uniform=st.booleans(),
    )
    @settings(max_examples=30, deadline=None)
    def test_phase_averaged(self, setup, angles, p, uniform):
        _, battery, rho = setup
        # antipodal pairs of equal weight: mu_hat(1) = 0, and mu_hat(2) anywhere in the unit disc
        a, b = angles
        atoms = [(a, p), (a + math.pi, p), (b, 0.5 - p), (b + math.pi, 0.5 - p)]
        mu = PhaseMeasure.uniform() if uniform else PhaseMeasure.from_atoms(atoms)
        mu2 = fourier_moment(mu, 2)
        self.check_axioms(lambda f: phase_averaged_functional(f, rho, mu2), battery)


    # the case where the nearest-cell read of -f once missed conj E(f): a
    # 16-cell grid (R = 2) with one mode at k = 1.625, midway between cells
    OFF_GRID = MomentumGrid(d=1, R=2.0, N=16)

    @given(
        setup=gaussian_setups(),
        modes=st.lists(
            st.tuples(st.floats(-2.0, 2.0), st.floats(0.0, 3.0), st.floats(0.0, 2 * math.pi)),
            min_size=1,
            max_size=4,
        ),
    )
    @example(
        setup=(
            OFF_GRID,
            [TestFunction.from_profile(OFF_GRID, lambda k: np.exp(-((k - 1.0) ** 2) / 2.0 + 0.7j * k))],
            None,
        ),
        modes=[(1.625, 1.0, 0.3)],
    )
    @settings(max_examples=30, deadline=None)
    def test_n_mode_negation_off_grid(self, setup, modes):
        # -f made by with_values reads -fhat at modes off the cell centres too
        _, battery, _ = setup
        mode_set = CoherentModeSet(*np.reshape(modes, (-1, 3)).T)
        for f in battery:
            value = n_mode_functional(f, mode_set).value
            neg = n_mode_functional(with_values(f, -f.values), mode_set).value
            assert neg == pytest.approx(np.conj(value), rel=1e-12, abs=1e-15)

    @given(
        setup=gaussian_setups(),
        alpha=st.tuples(st.floats(-2.0, 2.0), st.floats(0.2, 2.0), st.floats(-3.0, 3.0)),
        sigma=st.floats(0.05, 3.0),
        a=st.floats(-2.0, 1.0),
        width=st.floats(0.1, 2.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_rarefied(self, setup, alpha, sigma, a, width):
        # E(0) = 1, |E(f)| <= 1 and E(-f) = conj E(f) for the zero-density limit
        _, battery, _ = setup
        c, w, m = alpha
        profile = lambda k: np.exp(-((k - c) ** 2) / (2 * w ** 2) + 1j * m * k)
        args = (profile, sigma, a, a + width)
        for f in battery:
            assert rarefied_functional(with_values(f, np.zeros(f.grid.n_cells)), *args).value == 1.0
            value = rarefied_functional(f, *args).value
            assert abs(value) <= 1.0 + 1e-12
            neg = rarefied_functional(with_values(f, -f.values), *args).value
            assert neg == pytest.approx(np.conj(value), rel=1e-12, abs=1e-15)


class TestFiniteVolumeFunctional:
    def test_converges_to_limit(self):
        g = MomentumGrid(d=1, R=8.0, N=4096)
        f = TestFunction.from_profile(g, lambda k: math.sqrt(2 * math.pi) * np.exp(-(k ** 2) / 2.0))
        modes = CoherentModeSet([0.7], [1.3], [0.4])
        limit = n_mode_functional(f, modes)
        errs = []
        for L in (50.0, 200.0, 800.0):
            fv = finite_volume_functional(
                lambda x: np.exp(-(x ** 2) / 2.0), f, L, modes
            )
            errs.append(abs(fv.phase - limit.phase))
        # lattice snapping gives an O(1/L) phase error
        assert errs[-1] < 5e-3
        assert errs[-1] < errs[0]

    def test_rejects_bad_box(self, gauss):
        with pytest.raises(ValueError):
            finite_volume_functional(lambda x: x, gauss, 0.0, CoherentModeSet([], [], []))


class TestSigmaMuSq:
    def test_uniform_case_is_weighted_norm(self, gauss, rho):
        expect = float(
            gauss.grid.cell_volume * np.sum(rho.values * np.abs(gauss.values) ** 2)
        )
        assert sigma_mu_sq(gauss, rho, 0.0) == pytest.approx(expect)

    def test_nonnegative_across_mu2(self, gauss, rho):
        for mu2 in (0.0, 0.5, -1.0, 1j, -0.3 + 0.4j):
            assert sigma_mu_sq(gauss, rho, mu2) >= 0.0

    def test_vanishes_for_real_function_at_minus_one(self, grid, rho):
        f = TestFunction.from_profile(grid, lambda k: np.exp(-(k ** 2)))
        assert sigma_mu_sq(f, rho, -1.0) == pytest.approx(0.0, abs=1e-15)

    def test_doubles_for_real_function_at_plus_one(self, grid, rho):
        f = TestFunction.from_profile(grid, lambda k: np.exp(-(k ** 2)))
        assert sigma_mu_sq(f, rho, 1.0) == pytest.approx(
            2 * sigma_mu_sq(f, rho, 0.0)
        )

    def test_rejects_oversized_mu2(self, gauss, rho):
        with pytest.raises(ValueError):
            sigma_mu_sq(gauss, rho, 1.5)

    @given(setup=gaussian_setups(), mu2=unit_disk)
    @settings(max_examples=30, deadline=None)
    def test_variances_are_the_per_function_integral(self, setup, mu2):
        # the battery form gives each function's integral to the bit, also at
        # mu2 = 0, where the exact zero Re{mu2 fhat^2} is not formed
        _, battery, rho = setup
        for m in (mu2, 0.0):
            sig = variances(battery, rho, m)
            assert sig.shape == (len(battery),)
            for f, s in zip(battery, sig):
                assert s == sigma_mu_sq(f, rho, m)
                dk = f.grid.cell_volume
                expect = dk * np.sum(rho.values * (np.abs(f.values) ** 2 + np.real(m * f.values ** 2)))
                assert s == max(float(expect), 0.0)

    def test_empty_battery(self, rho):
        assert variances([], rho, 0.5).shape == (0,)


class TestPhaseAveraged:
    def test_value_formula(self, gauss, rho):
        mu2 = fourier_moment(opposite_pair(), 2)
        fv = phase_averaged_functional(gauss, rho, mu2)
        sig = sigma_mu_sq(gauss, rho, mu2)
        assert fv.value == pytest.approx(
            fock_functional(gauss).value * math.exp(-sig / 2.0)
        )

    def test_damps_relative_to_fock(self, gauss, rho):
        fv = phase_averaged_functional(gauss, rho, 0.0)
        assert 0 < fv.modulus <= fock_functional(gauss).modulus

    def test_discrete_product_converges_to_limit(self, rho):
        # grid refinement: the finite product of circle averages approaches
        # the closed-form limit value
        mu = PhaseMeasure.uniform()
        errs = []
        for n in (64, 256, 1024):
            g = MomentumGrid(d=1, R=4.0, N=n)
            f = TestFunction.from_profile(
                g, lambda k: np.exp(-(k ** 2) / 2.0) * np.exp(1j * k)
            )
            r = ModeDensity.from_profile(g, lambda k: np.exp(-((k - 1.0) ** 2)))
            limit = phase_averaged_functional(f, r, fourier_moment(mu, 2)).value
            disc = rep_expectation_n_mode(f, cell_modes(r), mu).value
            errs.append(abs(disc - limit))
        # the J0 quartic term contributes O(1/N): each 4x refinement should
        # cut the error by about 4
        assert errs[-1] < 1e-3
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.3)
        assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.3)

    def test_discrete_product_allows_inadmissible_measures(self, gauss, rho):
        # the finite-N product is well defined even when the limit diverges
        mu = PhaseMeasure.from_atoms([(0.0, 1.0)])
        fv = rep_expectation_n_mode(gauss, cell_modes(rho), mu)
        assert np.isfinite(fv.value.real)


class TestBessel:
    @pytest.mark.parametrize("x", [0.0, 0.5, 1.0, 2.4048, 5.0, 12.0, 20.0, 25.0, 30.0, 40.0, 60.0, 100.0, 200.0])
    def test_series_against_scipy(self, x):
        # a float sum of the alternating series would lose ~e^x * eps to
        # cancellation (5e-9 at x = 25, 0.1 at x = 40); summed in decimal
        # with digits to spare it holds J0 to 1e-12 absolute
        assert bessel_j0(x) == pytest.approx(float(scipy_j0(x)), abs=1e-12)

    @pytest.mark.parametrize("x", [0.5, 25.0, 40.0, 200.0])
    def test_even(self, x):
        # the digits are sized by |x|: a negative argument sums the same series
        assert bessel_j0(-x) == bessel_j0(x)
        assert bessel_j0(-x) == pytest.approx(float(scipy_j0(-x)), abs=1e-12)

    @pytest.mark.parametrize("amp", [0.0, 0.3, 1.0, 2.0, 4.5])
    def test_quadrature_matches_series(self, amp):
        # int (dtheta/2pi) e^{-i(a cos + b sin)} = J0(amplitude) for
        # a^2 + b^2 = amplitude^2; the split (3/5, 4/5) exercises both terms
        a, b = 0.6 * amp, 0.8 * amp
        quad = complex(
            circle_average(
                PhaseMeasure.uniform(), lambda th: np.exp(-1j * (a * np.cos(th) + b * np.sin(th)))
            )
        )
        assert abs(quad.imag) < 1e-12
        assert quad.real == pytest.approx(bessel_j0(amp), abs=1e-12)


class TestDivergenceDiagnostic:
    def test_generic_growth_one_dimensional(self):
        fit = divergence_diagnostic(
            built_pairs(
                lambda k: np.exp(-(k ** 2) / 2.0),
                lambda k: np.exp(-(k ** 2)),
                [64, 128, 256, 512, 1024],
            )
        )
        assert fit.conclusive
        assert fit.slope == pytest.approx(0.5, abs=0.05)

    def test_generic_growth_two_dimensional(self):
        fit = divergence_diagnostic(
            built_pairs(
                lambda p: np.exp(-np.sum(p ** 2, axis=-1) / 2.0),
                lambda p: np.exp(-np.sum(p ** 2, axis=-1)),
                [16, 24, 32, 48, 64],
                d=2,
            )
        )
        assert fit.conclusive
        assert fit.slope == pytest.approx(1.0, abs=0.1)

    def test_vanishing_sum_is_inconclusive(self):
        fit = divergence_diagnostic(
            built_pairs(lambda k: np.exp(-(k ** 2)), lambda k: np.zeros(np.shape(k)), [64, 128, 256, 512])
        )
        assert not fit.conclusive

    def test_fit_skips_sums_below_floor(self):
        # the density vanishes on the N = 64 grid only: the other four N fit
        # the generic slope, and one more vanishing N leaves too few to fit
        def rho(zero_sizes):
            return lambda k: np.exp(-(k ** 2)) * (len(k) not in zero_sizes)

        f = lambda k: np.exp(-(k ** 2) / 2.0)
        n_list = [64, 128, 256, 512, 1024]
        fit = divergence_diagnostic(built_pairs(f, rho({64}), n_list))
        assert fit.conclusive and fit.magnitudes[0] == 0.0
        assert fit.slope == pytest.approx(0.5, abs=0.05)
        fit = divergence_diagnostic(built_pairs(f, rho({64, 128}), n_list))
        assert not fit.conclusive and np.isnan(fit.slope)

    def test_needs_enough_grid_sizes(self):
        gauss = lambda k: np.exp(-(k ** 2))
        with pytest.raises(ValueError, match="at least 4 grid sizes"):
            divergence_diagnostic(built_pairs(gauss, gauss, [64, 128]))

    @pytest.mark.parametrize(
        "d, n_list", [(1, [64, 96, 128, 256]), (2, [16, 24, 32, 48]), (3, [8, 12, 16, 24])]
    )
    def test_built_pairs_give_the_bits_of_the_mode_sum(self, d, n_list):
        """Pairs from the config builders give |S(N)| bit for bit as the
        profiles' formula sum sqrt(2 (2R/N)^d rho(|k|)) fhat(|k|) (k itself
        in d = 1) evaluated at the cell centres."""
        f_obj = {"name": "gaussian", "center": 0.3, "width": 0.9, "amplitude": [1.0, 0.5]}
        rho_obj = {"name": "box", "lo": -0.5, "hi": 2.5, "amplitude": 0.7}
        grids = [build_grid({"d": d, "R": 3.5, "N": n}) for n in n_list]
        fit = divergence_diagnostic((build_test_function(f_obj, g), build_density(rho_obj, g)) for g in grids)
        f_form, rho_form = closed_form(f_obj, "/function"), density_form(rho_obj, 1)
        for grid, n, magnitude in zip(grids, n_list, fit.magnitudes):
            k = grid.axis if d == 1 else np.linalg.norm(grid.points(), axis=-1)
            s = np.sum(np.sqrt(2.0 * (2.0 * 3.5 / n) ** d * rho_form(k)) * f_form(k))
            assert magnitude == abs(s)


class TestRarefied:
    def test_limit_phase_quadrature(self):
        g = MomentumGrid(d=1, R=4.0, N=1024)
        ghat = TestFunction.from_profile(g, lambda k: np.exp(-((k - 1.0) ** 2)), label="g")
        alpha = lambda k: np.exp(-((k - 1.0) ** 2))
        fv = rarefied_functional(ghat, alpha, 0.7, 0.2, 1.8)
        # analytic: sqrt(2)*0.7 * int_0.2^1.8 e^{-2(k-1)^2} dk
        from scipy.special import erf

        integral = math.sqrt(math.pi / 2) / 2 * (erf(math.sqrt(2) * 0.8) * 2)
        assert fv.phase == pytest.approx(math.sqrt(2) * 0.7 * integral, rel=1e-6)
        assert fv.modulus == pytest.approx(fock_functional(ghat).modulus)

    def test_finite_volume_phase_converges(self):
        g = MomentumGrid(d=1, R=4.0, N=1024)
        ghat = TestFunction.from_profile(g, lambda k: np.exp(-((k - 1.0) ** 2)))
        alpha = lambda k: np.exp(-((k - 1.0) ** 2))
        limit = rarefied_functional(ghat, alpha, 0.7, 0.2, 1.8).phase
        err = abs(rarefied_finite_volume_phase(ghat, alpha, 0.7, 0.2, 1.8, 1e5) - limit)
        assert err < 5e-3

    def test_rejects_nonpositive_sigma(self, gauss):
        with pytest.raises(ValueError):
            rarefied_functional(gauss, lambda k: k, 0.0, 0.0, 1.0)

    @pytest.mark.parametrize("L", [1.0, 10.0, 1000.0, 1e5, 1e7])
    def test_mode_count_is_the_modes_built(self, L):
        # the count the CLI caps is the count of momenta the phase is summed over
        g = MomentumGrid(d=1, R=4.0, N=1024)
        ghat = TestFunction.from_profile(g, lambda k: np.exp(-((k - 1.0) ** 2)))
        built = []

        def alpha(k):
            built.append(len(k))
            return np.exp(-((k - 1.0) ** 2))

        rarefied_finite_volume_phase(ghat, alpha, 0.7, 0.2, 1.8, L)
        assert built == [rarefied_mode_count(0.7, 0.2, 1.8, L)]
        assert rarefied_mode_count(0.7, 0.2, 1.8, 1e16) > 1e8
