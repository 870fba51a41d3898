import cmath
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohlim.mode_space import ModeDensity, battery_gram
from cohlim.moments import (
    MAX_PAIRING_ORDER,
    QMatrix,
    build_q,
    mc_oracle,
    product_moment,
    quasifree_moment,
    wick_moment,
)

from conftest import (
    gaussian_setups,
    make_battery,
    q_matrix,
    set_gram_block_rows,
    unit_disk,
    whole_chi_table,
    with_values,
)
from oracles import inner, permanent, permanent_moment


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
        Q = q_matrix(fs, gs, rho, mu2)
        dk = rho.grid.cell_volume
        a01 = mu2 * complex(dk * np.sum(fs[0].values * rho.values * fs[1].values))
        c00 = inner(gs[0], fs[0], rho)
        assert Q.matrix[0, 1] == pytest.approx(a01)
        assert Q.matrix[2, 0] == pytest.approx(c00)
        assert Q.matrix[0, 2] == pytest.approx(c00)

        # every entry of the one-product Q against the per-entry inner products
        def conj(h):
            return with_values(h, np.conj(h.values))

        p = len(fs)
        for mu2 in (0.0, 0.3 + 0.2j, -1.0):
            Q = q_matrix(fs, gs, rho, mu2).matrix
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

    @given(
        setup=gaussian_setups(),
        split=st.integers(0, 3),
        mu2=st.one_of(
            unit_disk,
            st.just(-1.0),
            st.builds(lambda phi: cmath.exp(1j * phi), st.floats(0.0, 2 * math.pi)),
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_entries_match_inner_pairwise(self, setup, split, mu2):
        # Q from the one shared Gram, entry by entry against `inner` of one pair
        grid, battery, rho = setup
        p = min(split, len(battery))
        fs, gs = battery[:p], battery[p:]
        Q = q_matrix(fs, gs, rho, mu2).matrix

        def conj(h):
            return with_values(h, np.conj(h.values))

        norms = [math.sqrt(inner(h, h, rho).real) for h in battery]
        for i, hi in enumerate(battery):
            for j, hj in enumerate(battery):
                if i < p and j < p:
                    expect = mu2 * inner(conj(hi), hj, rho)
                elif i >= p and j >= p:
                    expect = np.conj(mu2) * inner(hi, conj(hj), rho)
                elif i >= p:
                    expect = inner(hi, hj, rho)
                else:
                    expect = inner(hj, hi, rho)
                # |expect| <= norm_i norm_j by Cauchy-Schwarz
                tol = 1e-12 * abs(expect) + 1e-14 * norms[i] * norms[j]
                assert abs(Q[i, j] - expect) <= tol, (i, j, Q[i, j], expect)

    def test_symmetry_enforced(self):
        with pytest.raises(ValueError, match="symmetric"):
            QMatrix(np.array([[0.0, 1.0], [2.0, 0.0]]))

    def test_a_block_vanishes_at_zero_mu2(self, setup):
        fs, gs, rho = setup
        Q = q_matrix(fs, gs, rho, 0.0)
        np.testing.assert_allclose(Q.matrix[:2, :2], 0.0)
        np.testing.assert_allclose(Q.matrix[2:, 2:], 0.0)


class TestWickMoment:
    def test_odd_order_vanishes(self, setup):
        fs, gs, rho = setup
        Q = q_matrix(fs[:1], gs, rho, 0.5)
        assert wick_moment(Q) == 0.0

    def test_empty_product_is_one(self):
        assert wick_moment(QMatrix(np.zeros((0, 0)))) == 1.0

    def test_two_point(self, setup):
        fs, gs, rho = setup
        Q = q_matrix(fs[:1], gs[:1], rho, 0.5)
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
            Q = q_matrix(battery[: n // 2], battery[n // 2 : n], rho, mu2)
            expect = matching_sum(Q.matrix, list(range(n)))
            assert wick_moment(Q) == pytest.approx(expect, rel=1e-9, abs=0)

    @given(p=st.integers(1, 12), seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_bipartite_hafnian_is_permanent(self, p, seed):
        # up to the order cap, 2p = 24
        rng = np.random.default_rng(seed)
        c = rng.normal(size=(p, p)) + 1j * rng.normal(size=(p, p))
        zero = np.zeros((p, p))
        Q = QMatrix(np.block([[zero, c.T], [c, zero]]))
        assert wick_moment(Q) == pytest.approx(permanent(c), rel=1e-10, abs=0)

    def test_order_sixteen_is_permanent_at_zero_mu2(self, grid, rho):
        battery = make_battery(grid, 16)
        Q = q_matrix(battery[:8], battery[8:], rho, 0.0)
        expect = permanent(Q.matrix[8:, :8])
        assert wick_moment(Q) == pytest.approx(expect, rel=1e-10, abs=0)

    def test_order_twenty_four_is_permanent_at_zero_mu2(self, grid, rho):
        # at the order cap the 4095 signed subset terms of the power-trace sum
        # reach about 7e6 times |haf| on this battery, so double rounding alone
        # gives about 1e-10 relative
        battery = make_battery(grid, 24)
        Q = q_matrix(battery[:12], battery[12:], rho, 0.0)
        expect = permanent(Q.matrix[12:, :12])
        assert wick_moment(Q) == pytest.approx(expect, rel=1e-9, abs=0)


class TestQuasifreeMoment:
    @pytest.mark.parametrize("p", range(1, 9))
    def test_matches_hafnian_at_zero_mu2(self, grid, rho, p):
        gram = battery_gram(make_battery(grid, 2 * p), rho)
        expect = wick_moment(build_q(gram, p, 0.0))
        assert quasifree_moment(gram, p, 0.0) == pytest.approx(expect, rel=1e-12, abs=0)

    @pytest.mark.parametrize("p", [10, 12])
    def test_matches_ryser_permanent(self, p):
        # a random complex Gram X^H X; on `make_battery`'s Gram the Ryser
        # oracle's own signed terms reach about 1.6e6 |perm| at p = 12 and it
        # misses a 60-digit permanent by 1.7e-11, where Glynn's is within 1.5e-13
        rng = np.random.default_rng(p)
        x = rng.normal(size=(2 * p, 2 * p)) + 1j * rng.normal(size=(2 * p, 2 * p))
        g = np.einsum("ki,kj->ij", np.conj(x), x)
        gram = (g, np.einsum("ki,kj->ij", x, x))
        expect = permanent(g[p:, :p])
        assert quasifree_moment(gram, p, 0.0) == pytest.approx(expect, rel=1e-12, abs=0)

    @pytest.mark.parametrize("p", range(1, 7))
    def test_exact_on_small_integers(self, p):
        # the row sums, their products and the signed sum are exact integers
        rng = np.random.default_rng(p)
        for _ in range(5):
            c = rng.integers(-3, 4, size=(p, p)) + 1j * rng.integers(-3, 4, size=(p, p))
            g = np.zeros((2 * p, 2 * p), dtype=complex)
            g[p:, :p] = c
            expect = sum(
                math.prod(complex(c[i, s[i]]) for i in range(p))
                for s in itertools.permutations(range(p))
            )
            assert quasifree_moment((g, g), p, 0.0) == expect

    def test_unbalanced_orders_are_exactly_zero(self, grid, rho):
        for n in (1, 3, 4):
            gram = battery_gram(make_battery(grid, n), rho)
            for p in range(n + 1):
                if 2 * p != n:
                    value = quasifree_moment(gram, p, 0.0)
                    assert value == 0j and type(value) is complex

    def test_empty_product_is_one(self, rho):
        assert quasifree_moment(battery_gram([], rho), 0, 0.0) == 1.0

    @pytest.mark.parametrize("mu2", [0.3 + 0.2j, -1.0, 1e-17])
    @pytest.mark.parametrize("p, n", [(1, 2), (2, 3), (2, 4), (3, 6), (1, 4)])
    def test_hafnian_path_off_zero_mu2(self, grid, rho, mu2, p, n):
        # 1e-17 is a mu_hat(2) of atoms that cancel to rounding: still the hafnian
        gram = battery_gram(make_battery(grid, n), rho)
        expect = wick_moment(build_q(gram, p, mu2))
        assert repr(quasifree_moment(gram, p, mu2)) == repr(expect)

    def test_order_cap(self, grid, rho):
        gram = battery_gram(make_battery(grid, 26), rho)
        with pytest.raises(ValueError, match="cap"):
            quasifree_moment(gram, 13, 0.0)


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
        Q = q_matrix(fs, gs, rho, 0.0)
        assert abs(wick_moment(Q) - permanent_moment(fs, gs, rho)) < 1e-10


class TestMcOracle:
    def test_two_point_agrees_with_closed_form(self, setup):
        fs, gs, rho = setup
        mu2 = 0.3 + 0.2j
        gram = battery_gram([fs[0], gs[0]], rho)
        est = mc_oracle(gram, 1, mu2, 20_000, np.random.default_rng(3))
        assert est.z_score(wick_moment(q_matrix(fs[:1], gs[:1], rho, mu2))) < 5.0

    def test_empty_product_is_one(self, setup):
        fs, gs, rho = setup
        est = mc_oracle(battery_gram([], rho), 0, 0.0, 2000, np.random.default_rng(0))
        assert est.value == 1.0 and est.stderr == 0.0

    def test_refuses_small_sample(self, setup):
        fs, gs, rho = setup
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            mc_oracle(battery_gram([fs[0], gs[0]], rho), 1, 0.0, 10, rng)
        assert rng.bit_generator.state == np.random.default_rng(0).bit_generator.state

    @pytest.mark.parametrize("rows", [1, 7, 333, 1001])
    @pytest.mark.parametrize("p, q", [(0, 0), (1, 1), (2, 1)])
    def test_blocks_match_whole_table(self, setup, monkeypatch, rows, p, q):
        # 1000 draws: 7-row blocks leave a short last one, 333-row blocks a
        # one-row last one, and 1001 rows is one block
        fs, gs, rho = setup
        gram = battery_gram(fs[:p] + gs[:q], rho)
        table = whole_chi_table(gram, 0.3 + 0.2j, 1000, np.random.default_rng(4))
        whole = product_moment([table], p, q)
        # the row products as the whole-table oracle formed them, in place
        prod = np.ones(1000, dtype=complex)
        for i in range(p):
            prod *= table[:, i]
        for j in range(q):
            prod *= np.conj(table[:, p + j])
        prod *= 2.0 ** (-(p + q) / 2.0)
        assert repr(whole.value) == repr(complex(np.mean(prod)))
        set_gram_block_rows(monkeypatch, rows, p + q)
        est = mc_oracle(gram, p, 0.3 + 0.2j, 1000, np.random.default_rng(4))
        assert (repr(est.value), repr(est.stderr)) == (repr(whole.value), repr(whole.stderr))
        if p + q == 0:
            assert est.value == 1.0 and est.stderr == 0.0

    @pytest.mark.parametrize("p, q", [(1, 1), (2, 1)])
    def test_stderr_is_the_delete_one_jackknife(self, setup, p, q):
        # the jackknife of a mean is the standard error of the mean: its
        # delete-one means deviate from the mean by (mean - x_i)/(n - 1)
        fs, gs, rho = setup
        table = whole_chi_table(battery_gram(fs[:p] + gs[:q], rho), 0.3 + 0.2j, 1000, np.random.default_rng(6))
        est = product_moment([table], p, q)
        prod = np.prod(table[:, :p], axis=1) * np.prod(np.conj(table[:, p:]), axis=1) * 2.0 ** (-(p + q) / 2.0)
        n = len(prod)
        loo = np.array([(np.sum(prod) - x) / (n - 1) for x in prod])
        jack = math.sqrt((n - 1) / n * np.sum(np.abs(loo - np.mean(loo)) ** 2))
        assert est.stderr == pytest.approx(jack, rel=1e-12)

    def test_traced_peak_is_linear_in_draws(self, fine_grid):
        # the `moments` benchmark's 16 functions at ten times its draws;
        # drawing the whole (draws, 2K) table first traces 19.7 MiB here.
        # The products and their joined copy hold 32 B per draw: 1.26 MiB
        # traced here, against 1.85 MiB when the deviations were formed over
        # all draws at once; the bound leaves about 0.4 MiB of margin
        rho = ModeDensity.from_profile(fine_grid, lambda k: np.exp(-((k - 0.5) ** 2)))
        gram = battery_gram(make_battery(fine_grid, 16), rho)
        n_samples = 40_000
        tracemalloc.start()
        try:
            mc_oracle(gram, 8, 0.3 + 0.2j, n_samples, np.random.default_rng(5))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 18 + 36 * n_samples
