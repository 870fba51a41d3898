"""Quasifree moment engine.

Vacuum expectations of normal-ordered creation/annihilation products reduce
to pairing sums over the block matrix Q built from the two-point data
(mu_hat(2), rho).  The pairing sum is over perfect matchings of {1..n}; the
Monte Carlo oracle (products of sampled chi values) is the tie-breaker for
any normalization question.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product as iter_product
from typing import Sequence

import numpy as np

from cohlim.ito_sampler import CoefficientPair, sample_chi_gram
from cohlim.mode_space import (
    GridMismatchError,
    ModeDensity,
    TestFunction,
    inner,
)

MAX_PAIRING_ORDER = 16  # (15)!! terms already; anything larger is refused
MIN_ORACLE_SAMPLES = 1000  # fewest draws mc_oracle accepts for its error bar


@dataclass(frozen=True)
class QMatrix:
    """(p+q) x (p+q) complex symmetric block matrix
    [[A, C^T], [C, B]] with
    A_ij = mu_hat(2) <conj(f_i)| rho f_j>,
    B_ij = conj(mu_hat(2)) <g_i | rho conj(g_j)>,
    C_ij = <g_i | rho f_j>.
    """

    p: int
    q: int
    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        n = self.p + self.q
        if m.shape != (n, n):
            raise ValueError(f"expected shape ({n},{n}), got {m.shape}")
        if n and np.max(np.abs(m - m.T)) > 1e-12 * max(1.0, np.max(np.abs(m))):
            raise ValueError("Q must be symmetric")
        object.__setattr__(self, "matrix", m)

    @property
    def n(self) -> int:
        return self.p + self.q


def build_q(
    fs: Sequence[TestFunction],
    gs: Sequence[TestFunction],
    rho: ModeDensity,
    mu2: complex,
) -> QMatrix:
    p, q = len(fs), len(gs)
    for h in list(fs) + list(gs):
        if h.grid != rho.grid:
            raise GridMismatchError("all functions must live on the density grid")
    dk = rho.grid.cell_volume
    w = rho.values

    def quad(a_vals, b_vals):
        return complex(dk * np.sum(a_vals * w * b_vals))

    A = np.array(
        [[mu2 * quad(fi.values, fj.values) for fj in fs] for fi in fs], dtype=complex
    ).reshape(p, p)
    B = np.array(
        [
            [np.conj(mu2) * quad(np.conj(gi.values), np.conj(gj.values)) for gj in gs]
            for gi in gs
        ],
        dtype=complex,
    ).reshape(q, q)
    C = np.array(
        [[quad(np.conj(gi.values), fj.values) for fj in fs] for gi in gs],
        dtype=complex,
    ).reshape(q, p)
    top = np.hstack([A, C.T])
    bottom = np.hstack([C, B])
    Q = np.vstack([top, bottom]) if p + q else np.zeros((0, 0), dtype=complex)
    # enforce exact symmetry against quadrature round-off
    Q = 0.5 * (Q + Q.T)
    return QMatrix(p, q, Q)


def _matching_sum(m: np.ndarray, indices: list) -> complex:
    """Sum over perfect matchings of `indices` of the product of m entries,
    pairing the smallest unpaired index first."""
    if not indices:
        return 1.0 + 0.0j
    first, rest = indices[0], indices[1:]
    total = 0.0 + 0.0j
    for pos, other in enumerate(rest):
        remaining = rest[:pos] + rest[pos + 1 :]
        total += m[first, other] * _matching_sum(m, remaining)
    return total


def wick_moment(Q: QMatrix) -> complex:
    """Pairing sum sum over perfect matchings of prod Q_{pair}; zero when
    p + q is odd.  Equals the averaged vacuum expectation of the
    normal-ordered product a*(f_1)..a*(f_p) a(g_1)..a(g_q)."""
    n = Q.n
    if n == 0:
        return 1.0 + 0.0j
    if n % 2 == 1:
        return 0.0 + 0.0j
    if n > MAX_PAIRING_ORDER:
        raise ValueError(
            f"pairing sum of order {n} refused ((n-1)!! terms); cap is {MAX_PAIRING_ORDER}"
        )
    return _matching_sum(Q.matrix, list(range(n)))


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


def generating_fn(Q: QMatrix, t: np.ndarray) -> complex:
    """exp(q(t)) with q(t) = sum_{j,k} t_j t_k Q_{jk}; its mixed derivatives
    at 0 are the moments E[chi(f_1)..conj(chi(g_q))]."""
    t = np.asarray(t, dtype=complex)
    if t.shape != (Q.n,):
        raise ValueError(f"t must have length {Q.n}")
    return complex(np.exp(t @ Q.matrix @ t))


@dataclass(frozen=True)
class MomentEstimate:
    value: complex
    stderr: float
    n_samples: int

    def z_score(self, target: complex) -> float:
        if self.stderr == 0:
            return 0.0 if self.value == target else math.inf
        return abs(self.value - target) / self.stderr


def product_moment(chis: np.ndarray, p: int, q: int) -> MomentEstimate:
    """MC mean of 2^{-(p+q)/2} chi_1..chi_p conj(chi_{p+1})..conj(chi_{p+q})
    over the rows of `chis` (draws x battery, at least p+q columns), with a
    delete-one jackknife standard error."""
    n_samples = chis.shape[0]
    if n_samples < MIN_ORACLE_SAMPLES:
        raise ValueError(
            f"need at least {MIN_ORACLE_SAMPLES} samples for a stable error bar"
        )
    if p + q == 0:
        return MomentEstimate(1.0 + 0.0j, 0.0, n_samples)
    prod = np.ones(n_samples, dtype=complex)
    for i in range(p):
        prod *= chis[:, i]
    for j in range(q):
        prod *= np.conj(chis[:, p + j])
    prod *= 2.0 ** (-(p + q) / 2.0)
    mean = complex(np.mean(prod))
    loo = (np.sum(prod) - prod) / (n_samples - 1)
    dev = loo - mean
    var_jack = (n_samples - 1) / n_samples * np.sum(
        dev.real ** 2 + dev.imag ** 2
    )
    return MomentEstimate(mean, math.sqrt(var_jack), n_samples)


def mc_oracle(
    fs: Sequence[TestFunction],
    gs: Sequence[TestFunction],
    coeffs: CoefficientPair,
    n_samples: int,
    rng: np.random.Generator,
) -> MomentEstimate:
    """`product_moment` of chi drawn from its exact Gram law over fs + gs.
    Arbitrates every closed-form normalization in this module."""
    chis = sample_chi_gram(list(fs) + list(gs), coeffs, n_samples, rng)
    return product_moment(chis, len(fs), len(gs))


def anti_normal_two_point(
    f: TestFunction, g: TestFunction, rho: ModeDensity
) -> complex:
    """<g | (rho + 1) f>: the normal-ordered two-point value plus the CCR
    commutator <g|f> taken in the position-space normalization, i.e.
    (2 pi)^{-d} times the momentum inner product."""
    d = f.grid.d
    return inner(g, f, rho) + (2.0 * np.pi) ** (-d) * inner(g, f)
