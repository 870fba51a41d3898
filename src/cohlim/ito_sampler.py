"""Random-phase machinery: the complex Gaussian chi(f), its exact Gram-law
sampler, sampled random functionals and the finite-N central-limit
diagnostics.

chi(f) = int dB1 S1 fhat + i int dB2 S2 fhat is realized on grid cells exactly
as the simple-function construction: each cell carries an independent
N(0, dk) increment of each Brownian field and the Ito integral is the plain
cell sum, which `sample_chi` forms from the integrand matrix W of
`_chi_matrix`.  `sample_chi_gram` draws, in small blocks
(`chi_gram_blocks`), from a pivoted Cholesky factor of the same law's
covariance, read from the battery Gram of `battery_gram`, and formed,
factored and applied with numpy's own loops (np.einsum without `optimize`)
rather than BLAS: products this small gain nothing from BLAS, whose first
threaded call leaves a second thread spinning for the rest of
the process.  A sample omega of the fields is a row of draws, and
`random_functional` gives the random representation's value there; a row of
`sample_chi(fs, rho, mu2, 1, np.random.default_rng(seed))` depends only on
the seed and the grid, so for a fixed seed chi is linear in f.  Integrands
are deterministic, so no stochastic-calculus semantics beyond the isometry
are needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from cohlim.circle_measure import (
    InadmissibleMeasureError,
    PhaseMeasure,
    admissible,
    check_mu2,
    sample_phase,
)
from cohlim.functionals import fock_functional
from cohlim.mode_space import ModeDensity, MomentumGrid, TestFunction, same_grid

# Below this margin in 1 + Re mu_hat(2) the generic coefficient formulas
# degenerate and the alternate branch S1 = i sqrt(rho), S2 = sqrt(rho) is used.
BRANCH_MARGIN = 1e-9
# psd_factor stops once every remaining pivot is below this share of the
# largest diagonal entry
PIVOT_TOL = 1e-14
CHI_CHUNK = 2000  # draws of `sample_chi` per block of cell increments
# float64 entries per array of a `chi_gram_blocks` block (64 KiB).  Larger
# blocks lose the memory gain: 100 `moments` runs at 16 functions peaked
# 0.7 MB higher in RSS with 256 KiB blocks and 1.5 MB with 512 KiB ones
GRAM_BLOCK = 8192
CLT_CHUNK = 512  # draws of `clt_sample` per block of mode phases


@dataclass(frozen=True)
class CoefficientPair:
    """Coefficient functions S1, S2 of the chi integral.  The choice is not
    unique; these reproduce the variance integrand rho (|fhat|^2 +
    Re{mu_hat(2) fhat^2}) pointwise."""

    grid: MomentumGrid
    S1: np.ndarray
    S2: np.ndarray


def build_coefficients(rho: ModeDensity, mu2: complex) -> CoefficientPair:
    """S1 = sqrt(rho/(1+Re mu2)) (1+mu2), S2 = sqrt(rho/(1+Re mu2))
    sqrt(1-|mu2|^2); at Re mu2 = -1 (which forces mu2 = -1) the alternate
    branch S1 = i sqrt(rho), S2 = sqrt(rho)."""
    mu2 = complex(mu2)
    check_mu2(mu2)
    sqrho = np.sqrt(rho.values)
    if 1.0 + mu2.real <= BRANCH_MARGIN:
        return CoefficientPair(rho.grid, 1j * sqrho, sqrho.astype(complex))
    base = sqrho / math.sqrt(1.0 + mu2.real)
    s1 = base * (1.0 + mu2)
    s2 = base * math.sqrt(max(0.0, 1.0 - abs(mu2) ** 2))
    return CoefficientPair(rho.grid, s1, s2.astype(complex))


def random_functional(battery: Sequence[TestFunction], chis: np.ndarray) -> np.ndarray:
    """E_omega(f_j) = Fock(f_j) e^{i Re chi_ij}, the random functional of each
    function of `battery` at each sample omega_i of a (samples, K) table of
    chi draws: shape (samples, K).  Its modulus is exactly the Fock value."""
    fock = np.array([fock_functional(f).value for f in battery])
    return fock * np.exp(1j * chis.real)


def _chi_matrix(fs: Sequence[TestFunction], coeffs: CoefficientPair) -> np.ndarray:
    """The real 2N x 2K matrix
    W = sqrt(dk) [[Re S1f | Im S1f], [-Im S2f | Re S2f]] for N cells and K
    functions: (Re chi | Im chi) over the battery is z W, where z holds the
    N cell increments of the first Brownian field, then the N of the second,
    divided by sqrt(dk), so that z ~ N(0, I_2N)."""
    grid = same_grid(coeffs, *fs)
    n, k = grid.n_cells, len(fs)
    w = np.empty((2 * n, 2 * k))
    for j, f in enumerate(fs):
        phi1 = coeffs.S1 * f.values
        phi2 = coeffs.S2 * f.values
        w[:n, j], w[:n, k + j] = phi1.real, phi1.imag
        w[n:, j], w[n:, k + j] = -phi2.imag, phi2.real
    w *= math.sqrt(grid.cell_volume)
    return w


def sample_chi(
    fs: Sequence[TestFunction],
    rho: ModeDensity,
    mu2: complex,
    n_samples: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Monte Carlo draws of chi, coefficients `build_coefficients(rho, mu2)`.

    Returns shape (n_samples, len(fs)); all functions see the same Brownian
    increments within a draw (as they must: chi is a single random field
    evaluated on several integrands), and draws are independent.  A single
    draw's increments are fixed by the state of `rng` and the grid alone:
    each block of draws takes the increments of the first field, then those
    of the second, from one `standard_normal` call, and both act on the
    matrix of `_chi_matrix` through two real products.
    """
    w = _chi_matrix(fs, build_coefficients(rho, mu2))
    n, k = w.shape[0] // 2, len(fs)
    out = np.empty((n_samples, k), dtype=complex)
    done = 0
    while done < n_samples:
        m = min(CHI_CHUNK, n_samples - done)
        z = rng.standard_normal((2, m, n))
        x = z[0] @ w[:n] + z[1] @ w[n:]
        out[done : done + m] = x[:, :k] + 1j * x[:, k:]
        done += m
    return out


def psd_factor(g: np.ndarray) -> np.ndarray:
    """R of shape (r, n) with R^T R = G for a symmetric positive semidefinite
    n x n matrix G, by Cholesky with full (diagonal) pivoting.

    Step i takes the largest remaining diagonal d_p as pivot, sets
    row_i = (G[p] - sum_{j<i} R[j, p] R[j]) / sqrt(d_p) and subtracts row_i^2
    from d; it stops once max d <= PIVOT_TOL * max diag(G).  The Schur
    complement left out is then positive semidefinite with diagonal at most
    that bound, so every entry of G - R^T R is too: a rank-deficient G is
    factored to that accuracy, with r at most its rank, and no eigenvalue is
    clipped (Higham, "Analysis of the Cholesky decomposition of a
    semi-definite matrix", 1990).
    """
    n = g.shape[0]
    d = np.diag(g).copy()
    r = np.zeros((n, n))
    tol = PIVOT_TOL * d.max(initial=0.0)
    rank = 0
    while rank < n:
        p = int(np.argmax(d))
        if d[p] <= tol:
            break
        row = (g[p] - np.einsum("j,jk->k", r[:rank, p], r[:rank])) / math.sqrt(d[p])
        d -= row ** 2
        d[p] = 0.0  # exactly, not up to rounding: a pivot is never taken twice
        r[rank] = row
        rank += 1
    return r[:rank]


def chi_gram_factor(gram: tuple[np.ndarray, np.ndarray], mu2: complex) -> np.ndarray:
    """R with R^T R the covariance of (Re chi | Im chi) over a battery with
    `battery_gram` (G, T), shape (r, 2K), r at most the covariance's rank.

    Both branches of `build_coefficients` have |S1|^2 + |S2|^2 = 2 rho and
    S1^2 - S2^2 = 2 mu2 rho, so this covariance (the W^T W of `sample_chi`)
    has blocks Re-Re = Re(conj G + mu2 T), Im-Im = Re(conj G - mu2 T) and
    Re-Im = Im(mu2 T - conj G).  `psd_factor` factors it exactly also when it
    is rank deficient (|mu2| = 1 with real f, collinear batteries).
    """
    check_mu2(mu2)
    g, t = gram
    plus, minus = np.conj(g) + mu2 * t, np.conj(g) - mu2 * t
    return psd_factor(np.block([[plus.real, -minus.imag], [-minus.imag.T, minus.real]]))


def chi_gram_blocks(
    gram: tuple[np.ndarray, np.ndarray],
    mu2: complex,
    n_samples: int,
    rng: np.random.Generator,
) -> Iterator[np.ndarray]:
    """The draws of `sample_chi_gram`, yielded in consecutive (rows, K)
    complex blocks.

    A block is one `standard_normal((rows, r))` call times
    `chi_gram_factor`; rows is GRAM_BLOCK // 2K, at least one, so that the
    normals, their product and the block each hold at most GRAM_BLOCK
    float64 entries.  The normals are the same stream as one whole-table
    call and each entry is the same dot product, so the blocks stack to the
    whole table bit for bit.  Nothing is factored or drawn before the first
    block is asked for.
    """
    r = chi_gram_factor(gram, mu2)
    k = len(gram[0])
    rows = max(1, GRAM_BLOCK // max(1, 2 * k))
    for lo in range(0, n_samples, rows):
        z = rng.standard_normal((min(rows, n_samples - lo), r.shape[0]))
        x = np.einsum("ij,jk->ik", z, r)
        yield x[:, :k] + 1j * x[:, k:]


def sample_chi_gram(
    gram: tuple[np.ndarray, np.ndarray],
    mu2: complex,
    n_samples: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Draws of chi over a battery of `battery_gram` (G, T), in the law of `sample_chi`.

    On a fixed grid (Re chi, Im chi) is a 2K-dimensional Gaussian, so each
    draw is one standard normal r-vector times `chi_gram_factor`: O(n K^2)
    after the O(N K^2) Gram, instead of 2 n N cell increments.  Returns
    shape (n_samples, K), complex, filled from the blocks of
    `chi_gram_blocks`, so the table is the only array that grows with
    n_samples; the RNG stream differs from `sample_chi`.
    """
    out = np.empty((n_samples, len(gram[0])), dtype=complex)
    done = 0
    for block in chi_gram_blocks(gram, mu2, n_samples, rng):
        out[done : done + len(block)] = block
        done += len(block)
    return out


# -- finite-N central limit diagnostics --------------------------------------


def _mode_amplitudes(f: TestFunction, rho: ModeDensity) -> np.ndarray:
    """z_j = (2R)^{d/2} sqrt(2 rho(k_j)) fhat(k_j): the per-mode complex
    amplitude whose phase-rotated real part is the CLT summand."""
    grid = same_grid(f, rho)
    return (2.0 * grid.R) ** (grid.d / 2.0) * np.sqrt(2.0 * rho.values) * f.values


def clt_sample(
    f: TestFunction,
    rho: ModeDensity,
    mu: PhaseMeasure,
    n_draws: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Independent draws of N^{-d/2} sum_j xi_j with
    xi_j = Re e^{-i theta_j} z_j and theta_j i.i.d. from mu.

    Converges in distribution to N(0, sigma_mu(f)^2) as the grid refines.
    """
    if not admissible(mu):
        raise InadmissibleMeasureError("mu_hat(1) must vanish for the CLT limit")
    z = _mode_amplitudes(f, rho)
    grid = f.grid
    scale = grid.N ** (-grid.d / 2.0)
    out = np.empty(n_draws)
    done = 0
    while done < n_draws:
        m = min(CLT_CHUNK, n_draws - done)
        theta = sample_phase(mu, rng, size=(m, grid.n_cells))
        out[done : done + m] = scale * np.sum(
            np.real(np.exp(-1j * theta) * z[None, :]), axis=1
        )
        done += m
    return out


def ks_distance(draws: np.ndarray, sigma: float) -> float:
    """Exact one-sample Kolmogorov-Smirnov distance sup_x |F_n(x) - F(x)|
    of `draws` (at least one) to N(0, sigma^2), sigma > 0.

    F_n jumps at the sorted draws x_1 <= ... <= x_n, so the supremum is
    max_i max(i/n - F(x_i), F(x_i) - (i-1)/n), with
    F(x) = erfc(-x / (sigma sqrt 2)) / 2 (erfc keeps the far left tail
    accurate)."""
    x = np.sort(np.asarray(draws, dtype=float))
    n = len(x)
    scale = -1.0 / (sigma * math.sqrt(2.0))
    cdf = np.array([0.5 * math.erfc(scale * v) for v in x.tolist()])
    i = np.arange(1, n + 1)
    return float(max(np.max(i / n - cdf), np.max(cdf - (i - 1) / n)))
