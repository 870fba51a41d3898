"""Quasifree moment engine.

Vacuum expectations of normal-ordered creation/annihilation products are
Wick/Isserlis pairing sums over the block matrix Q built from the two-point
data (mu_hat(2), rho), i.e. the hafnian haf(Q), read from the battery Gram that
also fixes the chi law of the Monte Carlo oracle.  `quasifree_moment` is the
closed form: at mu_hat(2) = 0 (the uniform phase law, where the A and B
blocks of Q vanish) it is 0 unless p = q and otherwise the permanent of
C = G_gf, by Glynn's formula in O(n^2 2^{n/2}); at any other mu_hat(2)
`wick_moment` sums haf(Q) by power traces in O(n^3 2^{n/2}).  Both go up to
order MAX_PAIRING_ORDER = 24, and the oracle (products of sampled chi) is
the tie-breaker for any normalization.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from cohlim.ito_sampler import chi_gram_blocks

MAX_PAIRING_ORDER = 24  # 2^12 - 1 pair subsets, a few small products each; larger is refused
MIN_ORACLE_SAMPLES = 1000  # fewest draws mc_oracle accepts for its error bar
DEVIATION_CHUNK = 4096  # products per pass of the error bar's sum of |x_i - mean|^2


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


def glynn_permanent(c: np.ndarray) -> complex:
    """perm(C) of a square C by Glynn's formula,

        perm(C) = 2^{1-p} sum_d (prod_k d_k) prod_j sum_i d_i C_ij

    over the 2^{p-1} sign vectors d in {+1, -1}^p with d_1 = +1: all row
    sums at once in one np.einsum, the signed products summed exactly."""
    p = len(c)
    if p == 0:
        return 1.0 + 0.0j
    bits = (np.arange(2 ** (p - 1))[:, None] >> np.arange(p - 1)) & 1
    signs = np.ones((len(bits), p))
    signs[:, 1:] -= 2.0 * bits
    terms = np.prod(signs, axis=1) * np.prod(np.einsum("si,ij->sj", signs, c), axis=1)
    scale = 2.0 ** (1 - p)
    return complex(scale * math.fsum(terms.real), scale * math.fsum(terms.imag))


def quasifree_moment(gram: tuple[np.ndarray, np.ndarray], p: int, mu2: complex) -> complex:
    """The averaged vacuum expectation of a*(f_1)..a*(f_p) a(g_1)..a(g_q)
    from the `battery_gram` of f_1..f_p, g_1..g_q.

    At mu_hat(2) exactly 0 the A and B blocks of Q vanish, so haf(Q) is 0
    unless p = q and otherwise perm(C), C = G_gf (`glynn_permanent`); any
    other mu_hat(2), however small, gives `wick_moment(build_q(...))`."""
    if mu2 != 0:
        return wick_moment(build_q(gram, p, mu2))
    g = gram[0]
    n = len(g)
    if n != 2 * p:
        return 0j
    if n > MAX_PAIRING_ORDER:
        raise ValueError(f"permanent of order {n} refused; cap is {MAX_PAIRING_ORDER}")
    return glynn_permanent(g[p:, :p])


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
    over the draws, with the standard error of that mean,
    sqrt(sum_i |x_i - mean|^2 / (n (n - 1))) over the n products x_i (the
    delete-one jackknife of a mean, in closed form).

    `blocks` yields consecutive (draws, battery) blocks of chi draws, each
    with at least p+q columns; a whole table is one block, `[chis]`.  Each
    block is reduced to its row products as it comes, so only one complex
    product per draw is held (two while they are joined), and the products
    do not depend on how the draws are split into blocks.  The squared
    deviations are summed over fixed chunks of DEVIATION_CHUNK products,
    which do not follow the blocks either."""
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
    prod = np.concatenate(prods)
    del prods
    mean = complex(np.mean(prod))
    sq = 0.0
    for lo in range(0, n_samples, DEVIATION_CHUNK):
        dev = prod[lo : lo + DEVIATION_CHUNK] - mean
        sq += float(np.sum(dev.real ** 2 + dev.imag ** 2))
    return MomentEstimate(mean, math.sqrt(sq / (n_samples * (n_samples - 1))))


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
