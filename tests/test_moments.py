import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohlim.ito_sampler import build_coefficients
from cohlim.mode_space import inner
from cohlim.moments import (
    MAX_PAIRING_ORDER,
    QMatrix,
    build_q,
    mc_oracle,
    permanent,
    permanent_moment,
    wick_moment,
)

from conftest import make_battery


def matching_sum(m, indices):
    """Brute-force hafnian: the sum over perfect matchings of `indices` of the
    product of m entries, pairing the smallest unpaired index first."""
    if not indices:
        return 1.0 + 0.0j
    first, rest = indices[0], indices[1:]
    return sum(
        m[first, other] * matching_sum(m, rest[:pos] + rest[pos + 1 :])
        for pos, other in enumerate(rest)
    )


@pytest.fixture
def setup(grid, rho):
    battery = make_battery(grid, 4)
    return battery[:2], battery[2:], rho


class TestQMatrix:
    def test_blocks(self, setup):
        fs, gs, rho = setup
        mu2 = 0.3 + 0.2j
        Q = build_q(fs, gs, rho, mu2)
        dk = rho.grid.cell_volume
        a01 = mu2 * complex(dk * np.sum(fs[0].values * rho.values * fs[1].values))
        c00 = inner(gs[0], fs[0], rho)
        assert Q.matrix[0, 1] == pytest.approx(a01)
        assert Q.matrix[2, 0] == pytest.approx(c00)
        assert Q.matrix[0, 2] == pytest.approx(c00)

        # every entry of the one-product Q against the per-entry inner products
        def conj(h):
            return h.with_values(np.conj(h.values))

        p = len(fs)
        for mu2 in (0.0, 0.3 + 0.2j, -1.0):
            Q = build_q(fs, gs, rho, mu2).matrix
            expect = np.zeros_like(Q)
            for i, fi in enumerate(fs):
                for j, fj in enumerate(fs):
                    expect[i, j] = mu2 * inner(conj(fi), fj, rho)
                for j, gj in enumerate(gs):
                    expect[i, p + j] = expect[p + j, i] = inner(gj, fi, rho)
            for i, gi in enumerate(gs):
                for j, gj in enumerate(gs):
                    expect[p + i, p + j] = np.conj(mu2) * inner(gi, conj(gj), rho)
            np.testing.assert_allclose(Q, expect, rtol=1e-12, atol=1e-15)

    def test_symmetry_enforced(self):
        with pytest.raises(ValueError, match="symmetric"):
            QMatrix(np.array([[0.0, 1.0], [2.0, 0.0]]))

    def test_a_block_vanishes_at_zero_mu2(self, setup):
        fs, gs, rho = setup
        Q = build_q(fs, gs, rho, 0.0)
        np.testing.assert_allclose(Q.matrix[:2, :2], 0.0)
        np.testing.assert_allclose(Q.matrix[2:, 2:], 0.0)


class TestWickMoment:
    def test_odd_order_vanishes(self, setup):
        fs, gs, rho = setup
        Q = build_q(fs[:1], gs, rho, 0.5)
        assert wick_moment(Q) == 0.0

    def test_empty_product_is_one(self):
        assert wick_moment(QMatrix(np.zeros((0, 0)))) == 1.0

    def test_two_point(self, setup):
        fs, gs, rho = setup
        Q = build_q(fs[:1], gs[:1], rho, 0.5)
        assert wick_moment(Q) == pytest.approx(inner(gs[0], fs[0], rho))

    def test_four_point_hand_count(self):
        # 3 matchings of {0,1,2,3}: (01)(23) + (02)(13) + (03)(12)
        m = np.arange(16, dtype=complex).reshape(4, 4)
        m = 0.5 * (m + m.T)
        Q = QMatrix(m)
        expect = m[0, 1] * m[2, 3] + m[0, 2] * m[1, 3] + m[0, 3] * m[1, 2]
        assert wick_moment(Q) == pytest.approx(expect)

    def test_order_cap(self):
        n = 26
        assert n > MAX_PAIRING_ORDER
        with pytest.raises(ValueError, match="cap"):
            wick_moment(QMatrix(np.zeros((n, n))))

    @pytest.mark.parametrize("mu2", [0.0, 0.3 + 0.2j, -1.0])
    def test_matches_matching_sum(self, grid, rho, mu2):
        battery = make_battery(grid, 12)
        for n in range(2, 13, 2):
            Q = build_q(battery[: n // 2], battery[n // 2 : n], rho, mu2)
            expect = matching_sum(Q.matrix, list(range(n)))
            assert wick_moment(Q) == pytest.approx(expect, rel=1e-9, abs=0)

    @given(p=st.integers(1, 6), seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_bipartite_hafnian_is_permanent(self, p, seed):
        rng = np.random.default_rng(seed)
        c = rng.normal(size=(p, p)) + 1j * rng.normal(size=(p, p))
        zero = np.zeros((p, p))
        Q = QMatrix(np.block([[zero, c.T], [c, zero]]))
        assert wick_moment(Q) == pytest.approx(permanent(c), rel=1e-9, abs=0)

    def test_order_sixteen_is_permanent_at_zero_mu2(self, grid, rho):
        battery = make_battery(grid, 16)
        Q = build_q(battery[:8], battery[8:], rho, 0.0)
        expect = permanent(Q.matrix[8:, :8])
        assert wick_moment(Q) == pytest.approx(expect, rel=1e-10, abs=0)


class TestPermanent:
    def test_two_by_two(self):
        c = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert permanent(c) == pytest.approx(1 * 4 + 2 * 3)

    def test_three_by_three_brute_force(self):
        rng = np.random.default_rng(0)
        c = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        from itertools import permutations

        brute = sum(
            np.prod([c[i, p[i]] for i in range(3)]) for p in permutations(range(3))
        )
        assert permanent(c) == pytest.approx(brute)

    def test_permanent_moment_zero_unless_balanced(self, setup):
        fs, gs, rho = setup
        assert permanent_moment(fs, gs[:1], rho) == 0.0

    def test_matches_wick_at_zero_mu2(self, setup):
        fs, gs, rho = setup
        Q = build_q(fs, gs, rho, 0.0)
        assert abs(wick_moment(Q) - permanent_moment(fs, gs, rho)) < 1e-10


class TestMcOracle:
    def test_two_point_agrees_with_closed_form(self, setup):
        fs, gs, rho = setup
        mu2 = 0.3 + 0.2j
        Q = build_q(fs[:1], gs[:1], rho, mu2)
        coeffs = build_coefficients(rho, mu2)
        est = mc_oracle(fs[:1], gs[:1], coeffs, 20_000, np.random.default_rng(3))
        assert est.z_score(wick_moment(Q)) < 5.0

    def test_empty_product_is_one(self, setup):
        fs, gs, rho = setup
        coeffs = build_coefficients(rho, 0.0)
        est = mc_oracle([], [], coeffs, 2000, np.random.default_rng(0))
        assert est.value == 1.0 and est.stderr == 0.0

    def test_refuses_small_sample(self, setup):
        fs, gs, rho = setup
        coeffs = build_coefficients(rho, 0.0)
        with pytest.raises(ValueError):
            mc_oracle(fs[:1], gs[:1], coeffs, 10, np.random.default_rng(0))
