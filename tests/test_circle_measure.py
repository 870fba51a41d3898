import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohlim import circle_measure
from cohlim.circle_measure import (
    CIRCLE_NODES,
    TWO_PI,
    PhaseMeasure,
    admissible,
    check_mu2,
    circle_average,
    circle_nodes,
    fourier_moment,
    log_phase_product,
)
from cohlim.config import build_measure
from cohlim.functionals import CoherentModeSet, cell_amplitudes, fock_functional, variances
from cohlim.gns_reps import rep_expectation_n_mode
from cohlim.mode_space import ModeDensity, MomentumGrid, TestFunction

from conftest import opposite_pair
from oracles import sample_phase


def cos2_density():
    """(1 + 0.8 cos 2 theta) / 2 pi sampled at M = 8 angles: its trapezoid
    atoms have mu_hat(1) = 0 and mu_hat(2) = 0.4."""
    theta = TWO_PI * np.arange(8) / 8
    return PhaseMeasure.from_density((1 + 0.8 * np.cos(2 * theta)) / TWO_PI)


# a measure of each way to build one: uniform, atoms and a gridded density
MEASURES = {"uniform": PhaseMeasure.uniform, "opposite_pair": opposite_pair, "cos2_density": cos2_density}


class TestConstruction:
    def test_uniform(self):
        assert PhaseMeasure.uniform().atoms is None

    def test_atoms_wrap_and_normalize(self):
        mu = PhaseMeasure.from_atoms([(-np.pi / 2, 0.5), (5 * np.pi / 2, 0.5)])
        angles = [a for a, _ in mu.atoms]
        assert all(0 <= a < TWO_PI for a in angles)
        assert sum(w for _, w in mu.atoms) == pytest.approx(1.0, abs=1e-15)

    def test_atoms_reject_bad_total(self):
        with pytest.raises(ValueError, match="sum"):
            PhaseMeasure.from_atoms([(0.0, 0.7)])
        with pytest.raises(ValueError, match="sum"):
            PhaseMeasure.from_atoms([(0.0, float("nan")), (1.0, 0.5)])

    def test_atoms_reject_negative_weight(self):
        with pytest.raises(ValueError):
            PhaseMeasure.from_atoms([(0.0, 1.5), (1.0, -0.5)])

    def test_atoms_tolerate_tiny_normalization_slack(self):
        mu = PhaseMeasure.from_atoms([(0.0, 0.5 + 4e-10), (np.pi, 0.5)])
        assert sum(w for _, w in mu.atoms) == pytest.approx(1.0, abs=1e-15)

    def test_density_normalization(self):
        vals = np.ones(64) / TWO_PI
        mu = PhaseMeasure.from_density(vals)
        angles, weights = np.array(mu.atoms).T
        assert weights.sum() == pytest.approx(1.0, abs=1e-15)
        assert angles == pytest.approx(TWO_PI * np.arange(64) / 64, abs=1e-15)

    def test_density_reject_negative(self):
        vals = np.ones(8) / TWO_PI
        vals[3] = -vals[3]
        with pytest.raises(ValueError):
            PhaseMeasure.from_density(vals)

    def test_json_roundtrip(self):
        # each measure's JSON descriptor, read back by the config reader
        for mu in (
            PhaseMeasure.uniform(),
            opposite_pair(),
            PhaseMeasure.from_density(np.ones(16) / TWO_PI),
        ):
            obj = {"kind": "uniform"} if mu.atoms is None else {"kind": "atoms", "atoms": mu.atoms}
            back = build_measure(json.loads(json.dumps(obj)))
            assert back.atoms == mu.atoms
            assert fourier_moment(back, 2) == pytest.approx(fourier_moment(mu, 2))

    def test_density_descriptor(self):
        vals = (1 + 0.8 * np.cos(2 * TWO_PI * np.arange(8) / 8)) / TWO_PI
        back = build_measure({"kind": "density", "values": vals.tolist()})
        assert back == cos2_density()


@pytest.mark.parametrize("mu2", [0.0, -1.0, 1j, 1.0 + 1e-13, 0.6 + 0.8j])
def test_mu2_bound_accepts_the_unit_disc(mu2):
    check_mu2(mu2)


@pytest.mark.parametrize("mu2", [1.0 + 1e-11, -1.2, 0.8 + 0.8j])
def test_mu2_bound_refuses_outside(mu2):
    with pytest.raises(ValueError, match=r"\|mu_hat\(2\)\| must be <= 1"):
        check_mu2(mu2)


class TestFourierMoments:
    def test_zeroth_moment_is_one(self):
        for mu in (PhaseMeasure.uniform(), opposite_pair()):
            assert fourier_moment(mu, 0) == 1.0

    def test_uniform_moments_vanish(self):
        mu = PhaseMeasure.uniform()
        for n in (1, 2, 5, -3):
            assert fourier_moment(mu, n) == 0.0

    def test_single_atom(self):
        mu = PhaseMeasure.from_atoms([(0.7, 1.0)])
        for n in (1, 2, 3):
            assert fourier_moment(mu, n) == pytest.approx(np.exp(-1j * n * 0.7))

    def test_opposite_pair_moments(self):
        mu = opposite_pair()
        assert abs(fourier_moment(mu, 1)) < 1e-15
        assert fourier_moment(mu, 2) == pytest.approx(-1.0, abs=1e-14)

    def test_density_against_closed_form(self):
        # dmu = (1 + cos theta) dtheta / 2pi has mu_hat(1) = 1/2, mu_hat(2) = 0
        m = 512
        theta = TWO_PI * np.arange(m) / m
        mu = PhaseMeasure.from_density((1 + np.cos(theta)) / TWO_PI)
        assert fourier_moment(mu, 1) == pytest.approx(0.5, abs=1e-12)
        assert abs(fourier_moment(mu, 2)) < 1e-12

    @given(n=st.integers(-6, 6).filter(lambda n: n != 0))
    @settings(max_examples=20, deadline=None)
    def test_moment_bounded_by_one(self, n):
        mu = PhaseMeasure.from_atoms([(0.3, 0.25), (2.0, 0.35), (4.4, 0.4)])
        assert abs(fourier_moment(mu, n)) <= 1 + 1e-12

    def test_conjugation_symmetry(self):
        mu = PhaseMeasure.from_atoms([(0.3, 0.25), (2.0, 0.35), (4.4, 0.4)])
        for n in (1, 2, 3):
            assert fourier_moment(mu, -n) == pytest.approx(
                np.conj(fourier_moment(mu, n))
            )


class TestAdmissible:
    def test_uniform_admissible(self):
        assert admissible(PhaseMeasure.uniform())

    def test_opposite_pair_admissible(self):
        assert admissible(opposite_pair())

    def test_point_mass_not_admissible(self):
        assert not admissible(PhaseMeasure.from_atoms([(0.0, 1.0)]))


class TestSampling:
    def test_uniform_range_and_moments(self):
        rng = np.random.default_rng(5)
        draws = sample_phase(PhaseMeasure.uniform(), rng, size=20_000)
        assert np.all((draws >= 0) & (draws < TWO_PI))
        assert abs(np.mean(np.exp(1j * draws))) < 0.02

    def test_atoms_hit_only_atoms(self):
        mu = opposite_pair()
        rng = np.random.default_rng(6)
        draws = sample_phase(mu, rng, size=1000)
        assert set(np.round(draws, 12)) <= {
            round(np.pi / 2, 12),
            round(3 * np.pi / 2, 12),
        }

    def test_density_empirical_moment(self):
        m = 256
        theta = TWO_PI * np.arange(m) / m
        mu = PhaseMeasure.from_density((1 + np.cos(theta)) / TWO_PI)
        rng = np.random.default_rng(7)
        draws = sample_phase(mu, rng, size=40_000)
        emp = np.mean(np.exp(-1j * draws))
        assert emp == pytest.approx(fourier_moment(mu, 1), abs=0.02)


class TestOneLaw:
    """Moments, circle averages and draws of a measure follow one law: its
    atoms (the trapezoid atoms for a density), or the uniform measure."""

    @pytest.mark.parametrize("name", MEASURES)
    @pytest.mark.parametrize("n", [1, 2])
    def test_circle_average_is_the_fourier_moment(self, name, n):
        mu = MEASURES[name]()
        average = complex(circle_average(mu, lambda theta: np.exp(-1j * n * theta)))
        assert abs(average - fourier_moment(mu, n)) <= 1e-12

    @pytest.mark.parametrize("name", MEASURES)
    def test_draws_follow_the_fourier_moments(self, name):
        mu = MEASURES[name]()
        draws = sample_phase(mu, np.random.default_rng(9), size=20_000)
        for n in (1, 2):
            e = np.exp(-1j * n * draws)
            mean, moment = np.mean(e), fourier_moment(mu, n)
            # 5 standard errors per part; 1e-12 covers a part of zero variance
            for part in (np.real, np.imag):
                se = np.std(part(e), ddof=1) / np.sqrt(len(e))
                assert abs(part(mean - moment)) <= 5 * se + 1e-12


@pytest.mark.parametrize(
    "radius", [0.0, 1.0, 25.0, 27.7, 35.0, 50.0, 141.0, 300.0, 1000.0, 3000.0, 1e4, 1e5]
)
def test_circle_nodes_resolve_the_bessel_aliasing(radius):
    """The midpoint rule of n nodes averages e^{i Re e^{-i theta} z} to
    J0(|z|) + 2 sum_m i^{mn} J_{mn}(|z|) cos(mn arg z); at the nodes of
    `circle_nodes` the aliased terms are below 2e-18 at every |z| up to
    the radius, and no fewer than CIRCLE_NODES are used, which is the count
    up to |z| = 25.7.  27.7 is where |z| + 12 |z|^(1/3) nodes fell short."""
    from scipy.special import jv

    n = circle_nodes(radius)
    assert n >= CIRCLE_NODES and (radius > 25 or n == CIRCLE_NODES)
    x = np.linspace(0.0, radius, 200)
    assert np.max(2.0 * np.abs(jv(n, x))) < 2e-18


def test_circle_nodes_match_j0():
    # the uniform average of e^{i x cos theta} on the circle_nodes of x
    from scipy.special import j0

    x = np.linspace(0.0, 40.0, 401)
    rule = [circle_average(PhaseMeasure.uniform(), lambda t: np.exp(1j * v * np.cos(t)), circle_nodes(v)) for v in x]
    assert np.max(np.abs(np.array(rule) - j0(x))) <= 4e-15


def clt_amplitudes():
    """f, rho and the `cell_amplitudes` of the `clt` CLI config: a modulated
    gaussian f against a gaussian density on 512 cells over [-4, 4]."""
    grid = MomentumGrid(d=1, R=4.0, N=512)
    f = TestFunction.from_profile(grid, lambda k: np.exp(-(k ** 2) / 2.0) * np.exp(1j * k))
    rho = ModeDensity.from_profile(grid, lambda k: np.exp(-((k - 1.0) ** 2) / (2 * 0.70710678 ** 2)))
    return f, rho, cell_amplitudes(f, rho)


THREE_ATOMS = [(2 * math.pi * j / 3, 1 / 3) for j in range(3)]


class TestLogPhaseProduct:
    @pytest.mark.parametrize("strong", [False, True], ids=["clt", "strong"])
    def test_uniform_is_the_j0_product(self, strong):
        # the clt CLI config on its s-grid, then 40 modes up to |z| = 12 at
        # s up to 2, whose factors J0(s |z|) are negative too
        from scipy.special import j0

        if strong:
            rng = np.random.default_rng(3)
            z, s = rng.uniform(0.0, 12.0, 40) * np.exp(1j * rng.uniform(0.0, TWO_PI, 40)), np.linspace(0.0, 2.0, 31)
        else:
            f, rho, z = clt_amplitudes()
            s = np.linspace(0.0, 6.0, 31) / math.sqrt(variances([f], rho, 0.0)[0])
        factors = j0(s[:, None] * np.abs(z))
        assert np.any(factors < 0) == strong
        reference = np.sum(np.log(factors.astype(complex)), axis=1)
        # compared through exp of the difference, as the log of a negative
        # factor may take either branch; each factor is held to rounding,
        # 1e-15, which near a zero of J0 is a large share of it
        error = np.abs(np.exp(log_phase_product(PhaseMeasure.uniform(), z, s) - reference) - 1.0)
        assert np.all(error <= 1e-13 + 1e-15 * np.sum(1.0 / np.abs(factors), axis=1))
        assert strong or np.max(error) <= 1e-13

    @pytest.mark.parametrize("atoms", [THREE_ATOMS, [(0.3, 0.25), (2.0, 0.35), (4.4, 0.4)]])
    def test_atoms_are_the_explicit_means(self, atoms):
        z = np.array([0.8 + 0.3j, -1.2j, 2.5, 0.1 - 0.4j])
        s = np.array([0.0, 0.4, 1.0, 2.7])
        mean = np.prod(
            [sum(w * np.exp(1j * s * (np.exp(-1j * a) * zj).real) for a, w in atoms) for zj in z], axis=0
        )
        value = np.exp(log_phase_product(PhaseMeasure.from_atoms(atoms), z, s))
        assert np.max(np.abs(value - mean)) <= 1e-14

    def test_empty_and_zero_modes_give_1(self):
        assert np.array_equal(log_phase_product(PhaseMeasure.uniform(), [], [0.0, 2.0]), [0.0, 0.0])
        assert np.array_equal(log_phase_product(PhaseMeasure.uniform(), [0.0, 0.0], [1.0]), [0.0])

    @pytest.mark.parametrize("uniform", [True, False], ids=["uniform", "atoms"])
    @pytest.mark.parametrize(
        "rows, blocks",
        [(2, [(1, 2)] * 14 + [(1, 1)] * 7), (15, [(3, 5), (3, 5), (1, 5)])],
        ids=["modes", "points"],
    )
    def test_blocks_hold_at_most_max_cells(self, monkeypatch, uniform, rows, blocks):
        # 5 modes x 7 points with PRODUCT_BLOCK room for `rows` (point, mode)
        # rows of 64 angles or 3 atoms: blocks of 2, 2 and 1 modes, one point
        # each, or of all 5 modes and 3, 3 and 1 points; the value of one block
        # to rounding.  A MAX_CELLS below one mode's angles refuses the call
        mu = PhaseMeasure.uniform() if uniform else PhaseMeasure.from_atoms(THREE_ATOMS)
        z = np.array([0.8 + 0.3j, -1.2j, 2.5, 0.1 - 0.4j, 1.7 + 1.0j])
        s = np.linspace(0.0, 3.0, 7)
        whole = log_phase_product(mu, z, s)
        angles = 64 if uniform else 3
        shapes, average = [], circle_measure.circle_average

        def recording_average(mu, integrand, nodes):
            def recorded(theta):
                values = integrand(theta)
                shapes.append(values.shape)
                return values

            return average(mu, recorded, nodes)

        monkeypatch.setattr(circle_measure, "PRODUCT_BLOCK", rows * angles + 1)
        monkeypatch.setattr(circle_measure, "circle_average", recording_average)
        assert np.max(np.abs(log_phase_product(mu, z, s) - whole)) <= 1e-14
        assert shapes == [(*block, angles) for block in blocks]
        monkeypatch.setattr(circle_measure, "MAX_CELLS", angles - 1)
        with pytest.raises(ValueError, match="angles per mode exceed the cap"):
            log_phase_product(mu, z, s)

    @pytest.mark.parametrize("uniform", [True, False], ids=["uniform", "atoms"])
    def test_memory_does_not_grow_with_the_modes(self, uniform):
        # the clt s-grid on 2048 cells, 64 angles or 3 atoms per mode:
        # 31 x 2048 x 64 entries, 31 MiB of float64 in one block
        mu = PhaseMeasure.uniform() if uniform else PhaseMeasure.from_atoms(THREE_ATOMS)
        grid = MomentumGrid(d=1, R=4.0, N=2048)
        f = TestFunction.from_profile(grid, lambda k: np.exp(-(k ** 2) / 2.0) * np.exp(1j * k))
        rho = ModeDensity.from_profile(grid, lambda k: np.exp(-((k - 1.0) ** 2) / (2 * 0.70710678 ** 2)))
        z = cell_amplitudes(f, rho)
        s = np.linspace(0.0, 6.0, 31) / math.sqrt(variances([f], rho, 0.0)[0])
        tracemalloc.start()
        try:
            log_phase_product(mu, z, s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2 ** 20

    @pytest.mark.parametrize("mu", [PhaseMeasure.uniform(), PhaseMeasure.from_atoms(THREE_ATOMS)], ids=["uniform", "atoms"])
    def test_at_s_1_is_the_n_mode_value(self, mu):
        f, _, _ = clt_amplitudes()
        modes = CoherentModeSet([0.5, -1.0, 0.0], [2.0, 1.0, 0.5], [0.0] * 3)
        z = np.sqrt(2.0 * modes.rho) * f.evaluate_at(modes.k)
        value = fock_functional(f).value * np.exp(log_phase_product(mu, z, [1.0])[0])
        assert rep_expectation_n_mode(f, modes, mu).value == value

    @pytest.mark.parametrize("name", MEASURES)
    def test_second_moments_sum_to_the_variance(self, name):
        # sum_j int X_j^2 dmu, X_j = Re e^{-i theta} z_j, is sigma_mu(f)^2
        mu = MEASURES[name]()
        f, rho, z = clt_amplitudes()
        second = np.sum(circle_average(mu, lambda theta: np.real(np.exp(-1j * theta) * z[:, None]) ** 2))
        sigma_sq = variances([f], rho, fourier_moment(mu, 2))[0]
        assert abs(second - sigma_sq) <= 1e-14 * sigma_sq
