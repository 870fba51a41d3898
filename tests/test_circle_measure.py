import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohlim.circle_measure import (
    TWO_PI,
    PhaseMeasure,
    admissible,
    check_mu2,
    circle_average,
    fourier_moment,
    sample_phase,
)
from cohlim.config import build_measure

from conftest import opposite_pair


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
