import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohlim import circle_measure
from cohlim.circle_measure import PhaseMeasure, fourier_moment
from cohlim.functionals import (
    CoherentModeSet,
    bessel_j0,
    fock_functional,
    n_mode_functional,
    phase_averaged_functional,
    sigma_mu_sq,
)
from cohlim.gns_reps import (
    apply_R,
    apply_T,
    build_alpha_beta,
    rep_expectation_averaged,
    rep_expectation_n_mode,
)
from cohlim.mode_space import ModeDensity, norm_sq_momentum

from conftest import gaussian_setups, make_battery, unit_disk, with_values

# real scalars zero or at least 1e-3 in modulus: products of subnormal
# numbers carry no relative precision
SCALARS = st.one_of(st.just(0.0), st.floats(1e-3, 10.0), st.floats(-10.0, -1e-3))


class TestSqueezeCoefficients:
    @pytest.mark.parametrize("mu2", [0.0, 0.5, -1.0, 0.6j, -0.3 + 0.4j])
    def test_unit_circle_constraint(self, rho, mu2):
        c = build_alpha_beta(rho, mu2)
        np.testing.assert_allclose(c.alpha ** 2 + np.abs(c.beta) ** 2, 1.0, atol=1e-12)

    @pytest.mark.parametrize("mu2", [0.5, -1.0, 0.6j])
    def test_product_recovers_mu2(self, rho, mu2):
        # 2 alpha conj(beta) = mu2 sqrt(rho/(1+rho)) pointwise
        c = build_alpha_beta(rho, mu2)
        lhs = 2.0 * c.alpha * np.conj(c.beta)
        rhs = mu2 * np.sqrt(rho.values / (1.0 + rho.values))
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_beta_vanishes_at_zero_mu2(self, rho):
        c = build_alpha_beta(rho, 0.0)
        np.testing.assert_array_equal(c.beta, 0.0)
        np.testing.assert_allclose(c.alpha, 1.0)

    def test_rejects_oversized_mu2(self, rho):
        with pytest.raises(ValueError):
            build_alpha_beta(rho, -1.2)


class TestRTMaps:
    @pytest.mark.parametrize("mu2", [0.0, 0.5, -1.0, 0.6j, -0.3 + 0.4j])
    def test_norm_identity(self, grid, rho, mu2):
        # |Rf|^2 + |Tf|^2 = |f|^2 + 2 sigma^2 in the momentum norm
        for f in make_battery(grid, 3):
            c = build_alpha_beta(rho, mu2)
            lhs = norm_sq_momentum(apply_R(f, rho, c)) + norm_sq_momentum(
                apply_T(f, rho, c)
            )
            rhs = norm_sq_momentum(f) + 2.0 * sigma_mu_sq(f, rho, mu2)
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_real_linear_not_complex_linear(self, grid, rho, gauss):
        c = build_alpha_beta(rho, 0.5)
        rf = apply_R(gauss, rho, c)
        r_if = apply_R(with_values(gauss, 1j * gauss.values), rho, c)
        # real scaling commutes ...
        r_2f = apply_R(with_values(gauss, 2.0 * gauss.values), rho, c)
        np.testing.assert_allclose(r_2f.values, 2.0 * rf.values)
        # ... complex scaling does not (beta term conjugates)
        assert not np.allclose(r_if.values, 1j * rf.values)

    @given(setup=gaussian_setups(), mu2=unit_disk, a=SCALARS, b=SCALARS)
    @settings(max_examples=40, deadline=None)
    def test_real_linear_property(self, setup, mu2, a, b):
        # R(a f + b g) = a Rf + b Rg for real a, b, and the same for T
        _, battery, rho = setup
        f, g = battery[0], battery[-1]
        c = build_alpha_beta(rho, mu2)
        combo = with_values(f, a * f.values + b * g.values)
        # rounding on the scale of the summands of a single cell
        scale = np.max(np.sqrt(1.0 + rho.values)) * (
            abs(a) * np.max(np.abs(f.values)) + abs(b) * np.max(np.abs(g.values))
        )
        for op in (apply_R, apply_T):
            np.testing.assert_allclose(
                op(combo, rho, c).values,
                a * op(f, rho, c).values + b * op(g, rho, c).values,
                rtol=1e-12,
                atol=1e-12 * scale,
            )

    def test_t_vanishes_at_zero_density(self, grid, gauss):
        rho0 = ModeDensity(grid, np.zeros(grid.n_cells))
        c = build_alpha_beta(rho0, 0.5)
        tf = apply_T(gauss, rho0, c)
        np.testing.assert_allclose(tf.values, 0.0, atol=1e-15)


class TestRepExpectations:
    def test_n_mode_uniform_is_j0_product(self, gauss):
        modes = CoherentModeSet([0.5, -1.0], [2.0, 1.0], [0.0, 0.0])
        fv = rep_expectation_n_mode(gauss, modes)
        fhat = gauss.evaluate_at(modes.k)
        expect = fock_functional(gauss).value * np.prod(
            [
                bessel_j0(math.sqrt(2 * r) * abs(v))
                for r, v in zip(modes.rho, fhat)
            ]
        )
        assert fv.value == pytest.approx(expect, abs=1e-10)

    def test_n_mode_empty_is_fock(self, gauss):
        assert rep_expectation_n_mode(gauss, CoherentModeSet([], [], [])).value == fock_functional(gauss).value

    def test_n_mode_point_mass_recovers_fixed_phase(self, gauss):
        # a point mass averages nothing: the value is the n-mode functional
        # with every phase at theta0
        theta0 = 0.8
        mu = PhaseMeasure.from_atoms([(theta0, 1.0)])
        modes = CoherentModeSet([0.5, -1.0], [2.0, 1.0], [0.3, 1.1])
        fv = rep_expectation_n_mode(gauss, modes, mu)
        fixed = replace(modes, theta=[theta0, theta0])
        assert fv.value == pytest.approx(n_mode_functional(gauss, fixed).value, abs=1e-14)

    def test_n_mode_is_the_average_of_n_mode_functional(self, gauss):
        # three atoms at 0, 2pi/3, 4pi/3 (mu_hat(1) = 0, mu_hat(3) = 1) on two
        # modes: the explicit mean of n_mode_functional over the 9 phase
        # pairs, a value with imaginary part -0.11, so the conjugate misses
        angles = [2 * math.pi * j / 3 for j in range(3)]
        mu = PhaseMeasure.from_atoms([(a, 1 / 3) for a in angles])
        modes = CoherentModeSet([0.0, 0.5], [1.5, 1.0], [0.0, 0.0])
        mean = np.mean(
            [
                n_mode_functional(gauss, replace(modes, theta=list(pair))).value
                for pair in itertools.product(angles, repeat=2)
            ]
        )
        assert abs(mean.imag) > 0.1
        assert abs(rep_expectation_n_mode(gauss, modes, mu).value - mean) < 1e-14

    def test_n_mode_skips_modes_where_fhat_vanishes(self, gauss):
        # a mode of zero density is skipped: the value is that of the other
        # modes alone, bit for bit
        modes = CoherentModeSet([0.5, -1.0], [2.0, 0.0], [0.0, 0.0])
        one = CoherentModeSet([0.5], [2.0], [0.0])
        mu = PhaseMeasure.from_atoms([(0.1, 0.3), (2.0, 0.7)])
        assert rep_expectation_n_mode(gauss, modes, mu).value == rep_expectation_n_mode(gauss, one, mu).value

    @pytest.mark.parametrize("uniform", [True, False], ids=["uniform", "atoms"])
    def test_n_mode_blocks_hold_at_most_max_cells(self, gauss, monkeypatch, uniform):
        # five modes at s = 1 in PRODUCT_BLOCK blocks of two (mode, angle) rows
        # of 64 angles or three atoms, in `log_phase_product`: the same value
        # as in one block, to rounding; a MAX_CELLS below one mode's angles
        # refuses it
        mu = PhaseMeasure.uniform() if uniform else PhaseMeasure.from_atoms([(0.1, 0.3), (2.0, 0.5), (4.0, 0.2)])
        modes = CoherentModeSet([0.5, -1.0, 0.0, 1.5, -0.3], [2.0, 1.0, 0.5, 3.0, 1.5], [0.0] * 5)
        whole = rep_expectation_n_mode(gauss, modes, mu).value
        angles = 64 if uniform else 3
        shapes, average = [], circle_measure.circle_average

        def recording_average(mu, integrand, nodes):
            def recorded(theta):
                values = integrand(theta)
                shapes.append(values.shape)
                return values

            return average(mu, recorded, nodes)

        monkeypatch.setattr(circle_measure, "PRODUCT_BLOCK", 2 * angles + 1)
        monkeypatch.setattr(circle_measure, "circle_average", recording_average)
        assert rep_expectation_n_mode(gauss, modes, mu).value == pytest.approx(whole, abs=1e-15)
        assert shapes == [(1, 2, angles), (1, 2, angles), (1, 1, angles)]
        monkeypatch.setattr(circle_measure, "MAX_CELLS", angles - 1)
        with pytest.raises(ValueError, match="angles per mode exceed the cap"):
            rep_expectation_n_mode(gauss, modes, mu)

    @pytest.mark.parametrize("mu2", [0.0, 0.5, -1.0, 0.6j])
    def test_averaged_matches_closed_form(self, grid, rho, mu2):
        for f in make_battery(grid, 5):
            lhs = rep_expectation_averaged(f, rho, mu2).value
            rhs = fock_functional(f).value * math.exp(-sigma_mu_sq(f, rho, mu2) / 2.0)
            assert abs(lhs - rhs) < 1e-9

    def test_averaged_uniform_equals_phase_average(self, gauss, rho):
        mu2 = fourier_moment(PhaseMeasure.uniform(), 2)
        lhs = rep_expectation_averaged(gauss, rho, mu2).value
        rhs = phase_averaged_functional(gauss, rho, mu2).value
        assert abs(lhs - rhs) < 1e-9
