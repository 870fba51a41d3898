"""Quasifree moment engine.

Vacuum expectations of normal-ordered creation/annihilation products are
Wick/Isserlis pairing sums over the block matrix Q built from the two-point
data (mu_hat(2), rho), i.e. the hafnian haf(Q), read from the battery Gram that
also fixes the chi law of the Monte Carlo oracle.  `wick_moment` computes it by
power traces in O(n^3 2^{n/2}) up to order MAX_PAIRING_ORDER = 24;
`permanent_moment` (Ryser) is the independent mu_hat(2) = 0 check, and the
oracle (products of sampled chi) is the tie-breaker for any normalization.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from cohlim.ito_sampler import chi_gram_blocks
from cohlim.mode_space import ModeDensity, TestFunction, inner

MAX_PAIRING_ORDER = 24  # 2^12 - 1 pair subsets, a few small products each; larger is refused
MIN_ORACLE_SAMPLES = 1000  # fewest draws mc_oracle accepts for its error bar


@dataclass(frozen=True)
class QMatrix:
    """(p+q) x (p+q) complex symmetric block matrix
    [[A, C^T], [C, B]] with
    A_ij = mu_hat(2) <conj(f_i)| rho f_j>,
    B_ij = conj(mu_hat(2)) <g_i | rho conj(g_j)>,
    C_ij = <g_i | rho f_j>.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {m.shape}")
        if m.size and np.max(np.abs(m - m.T)) > 1e-12 * max(1.0, np.max(np.abs(m))):
            raise ValueError("Q must be symmetric")
        object.__setattr__(self, "matrix", m)

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


def build_q(gram: tuple[np.ndarray, np.ndarray], p: int, mu2: complex) -> QMatrix:
    """Q of a*(f_1)..a*(f_p) a(g_1)..a(g_q) from the `battery_gram` (G, T) of
    f_1..f_p, g_1..g_q: A = mu_hat(2) T_ff, C = G_gf, B = conj(mu_hat(2) T_gg)."""
    g, t = gram
    Q = np.empty_like(g)
    Q[:p, :p] = mu2 * t[:p, :p]
    Q[p:, :p] = g[p:, :p]
    Q[:p, p:] = g[p:, :p].T
    Q[p:, p:] = np.conj(mu2 * t[p:, p:])
    return QMatrix(Q)


def wick_moment(Q: QMatrix) -> complex:
    """haf(Q), the sum over perfect matchings of prod Q_{pair}; zero when
    p + q is odd.  Equals the averaged vacuum expectation of the
    normal-ordered product a*(f_1)..a*(f_p) a(g_1)..a(g_q).

    Power-trace formula (Bjorklund-Gupt-Quesada): pair index 2i with 2i + 1,
    m = n/2; for each nonempty subset S of the m pairs let B_S = Q_S X_S,
    X_S swapping the two members of each pair, and

        haf(Q) = sum_S (-1)^{m-|S|} [lambda^m] exp(sum_k tr(B_S^k) lambda^k / 2k).

    Per |S| the powers B^k, k <= h = ceil(m/2), are batched products, and
    tr B^k = sum_ij (B^h)_ij (B^{k-h})_ji for k > h; the Newton recurrence
    c_j = sum_{k<=j} tr(B^k) c_{j-k} / 2j gives the coefficient."""
    n = Q.n
    if n == 0:
        return 1.0 + 0.0j
    if n % 2 == 1:
        return 0.0 + 0.0j
    if n > MAX_PAIRING_ORDER:
        raise ValueError(f"hafnian of order {n} refused; cap is {MAX_PAIRING_ORDER}")
    m = n // 2
    terms = []  # (-1)^{m-|S|} [lambda^m] of each S, for one exact sum
    for size in range(1, m + 1):
        S = np.array(list(itertools.combinations(range(m), size)))
        rows = np.stack([2 * S, 2 * S + 1], axis=2).reshape(len(S), 2 * size)
        cols = rows ^ 1  # the other member of each pair
        powers = [Q.matrix[rows[:, :, None], cols[:, None, :]]]  # B^1 .. B^h
        while len(powers) < (m + 1) // 2:
            powers.append(powers[-1] @ powers[0])
        traces = [np.trace(b, axis1=1, axis2=2) for b in powers]
        traces += [np.einsum("sij,sji->s", powers[-1], b) for b in powers[: m // 2]]
        traces = np.stack(traces, axis=1)  # tr B^k, k = 1..m
        c = np.zeros((len(S), m + 1), dtype=complex)
        c[:, 0] = 1.0
        for j in range(1, m + 1):
            c[:, j] = np.sum(traces[:, :j] * c[:, j - 1 :: -1], axis=1) / (2 * j)
        terms.append((-1) ** (m - size) * c[:, m])
    terms = np.concatenate(terms)
    return complex(math.fsum(terms.real), math.fsum(terms.imag))


def permanent(c: np.ndarray) -> complex:
    """Permanent by Ryser inclusion-exclusion, O(2^p * p)."""
    p = c.shape[0]
    if p == 0:
        return 1.0 + 0.0j
    total = 0.0 + 0.0j
    for mask in range(1, 2 ** p):
        bits = [(mask >> i) & 1 for i in range(p)]
        k = sum(bits)
        cols = np.array(bits, dtype=bool)
        rows = np.prod(np.sum(c[:, cols], axis=1))
        total += (-1) ** k * rows
    return (-1) ** p * total


def permanent_moment(
    fs: Sequence[TestFunction], gs: Sequence[TestFunction], rho: ModeDensity
) -> complex:
    """The mu_hat(2) = 0 special case: 0 when p != q, otherwise
    sum over permutations of prod <g_{sigma(j)} | rho f_j> = perm(C)."""
    p, q = len(fs), len(gs)
    if p != q:
        return 0.0 + 0.0j
    if p > 10:
        raise ValueError("permanent capped at p = 10")
    C = np.array([[inner(gi, fj, rho) for fj in fs] for gi in gs], dtype=complex)
    return permanent(C)


@dataclass(frozen=True)
class MomentEstimate:
    value: complex
    stderr: float

    def z_score(self, target: complex) -> float:
        if self.stderr == 0:
            return 0.0 if self.value == target else math.inf
        return abs(self.value - target) / self.stderr


def _enough_samples(n_samples: int) -> None:
    if n_samples < MIN_ORACLE_SAMPLES:
        raise ValueError(
            f"need at least {MIN_ORACLE_SAMPLES} samples for a stable error bar"
        )


def product_moment(blocks: Iterable[np.ndarray], p: int, q: int) -> MomentEstimate:
    """MC mean of 2^{-(p+q)/2} chi_1..chi_p conj(chi_{p+1})..conj(chi_{p+q})
    over the draws, with a delete-one jackknife standard error.

    `blocks` yields consecutive (draws, battery) blocks of chi draws, each
    with at least p+q columns; a whole table is one block, `[chis]`.  Each
    block is reduced to its row products as it comes, so only one complex
    product per draw is held, and the products do not depend on how the
    draws are split into blocks."""
    prods = []
    for chis in blocks:
        # out of place: numpy runs an in-place product of one-element arrays
        # through another loop than the vector one, whose last bits can differ
        prod = np.ones(len(chis), dtype=complex)
        for i in range(p):
            prod = prod * chis[:, i]
        for j in range(q):
            prod = prod * np.conj(chis[:, p + j])
        prods.append(prod * 2.0 ** (-(p + q) / 2.0))
    n_samples = sum(map(len, prods))
    _enough_samples(n_samples)
    if p + q == 0:
        return MomentEstimate(1.0 + 0.0j, 0.0)
    prod = np.concatenate(prods)
    del prods
    mean = complex(np.mean(prod))
    loo = (np.sum(prod) - prod) / (n_samples - 1)
    dev = loo - mean
    var_jack = (n_samples - 1) / n_samples * np.sum(
        dev.real ** 2 + dev.imag ** 2
    )
    return MomentEstimate(mean, math.sqrt(var_jack))


def mc_oracle(
    gram: tuple[np.ndarray, np.ndarray],
    p: int,
    mu2: complex,
    n_samples: int,
    rng: np.random.Generator,
) -> MomentEstimate:
    """`product_moment` of chi drawn from its exact law over the Gram's
    battery f_1..f_p, g_1..g_q.  Arbitrates every closed-form normalization.

    The draws come in the blocks of `chi_gram_blocks` and are reduced as
    they come, so beside the one complex product per draw only a block is
    held.  Too few samples are refused before `rng` is touched."""
    _enough_samples(n_samples)
    blocks = chi_gram_blocks(gram, mu2, n_samples, rng)
    return product_moment(blocks, p, len(gram[0]) - p)
