"""Oracles that the tests hold the library's grid and exact-law paths against.

`clt_sample` draws the N-mode phase sum whose characteristic function
`circle_measure.log_phase_product` gives exactly; acceptance criterion 2
checks its draws against that law and against the Gaussian limit, by
`ks_distance` among others.  `gamma_fsum` and `uniformization_gap` are the
one-time-at-a-time forms of `open_system.gamma` and of the `dynamics` metric.
`permanent_moment` (Ryser) is the independent mu_hat(2) = 0 check of the
hafnian `moments.wick_moment` and of Glynn's permanent in
`moments.quasifree_moment`, over the cell sums `inner` that
`mode_space.battery_gram` forms together.
"""

import math
from typing import Optional, Sequence

import numpy as np

from cohlim.circle_measure import TWO_PI, PhaseMeasure, admissible
from cohlim.dynamics import Dispersion, sigma_t
from cohlim.functionals import cell_amplitudes, fock_functional, variances
from cohlim.mode_space import ModeDensity, TestFunction, same_grid
from cohlim.open_system import EPS_MIN

CLT_CHUNK = 512  # draws of `clt_sample` per block of mode phases


class InadmissibleMeasureError(ValueError):
    """mu_hat(1) != 0: the continuous mode limit does not exist."""


def sample_phase(mu: PhaseMeasure, rng: np.random.Generator, size=None) -> np.ndarray:
    """i.i.d. draws from mu."""
    if mu.atoms is None:
        return rng.uniform(0.0, TWO_PI, size=size)
    angles, weights = np.array(mu.atoms).T
    return angles[rng.choice(len(angles), size=size, p=weights)]


def clt_sample(
    f: TestFunction,
    rho: ModeDensity,
    mu: PhaseMeasure,
    n_draws: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Independent draws of N^{-d/2} sum_j xi_j with
    xi_j = Re e^{-i theta_j} (2R)^{d/2} sqrt(2 rho(k_j)) fhat(k_j) and
    theta_j i.i.d. from mu: the sum of Re e^{-i theta_j} z_j over the
    `cell_amplitudes` z_j.

    Converges in distribution to N(0, sigma_mu(f)^2) as the grid refines.
    """
    if not admissible(mu):
        raise InadmissibleMeasureError("mu_hat(1) must vanish for the CLT limit")
    z = cell_amplitudes(f, rho)
    out = np.empty(n_draws)
    done = 0
    while done < n_draws:
        m = min(CLT_CHUNK, n_draws - done)
        theta = sample_phase(mu, rng, size=(m, len(z)))
        out[done : done + m] = np.sum(np.real(np.exp(-1j * theta) * z[None, :]), axis=1)
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


def gamma_fsum(t: float, g: TestFunction, eps: Dispersion) -> float:
    """Gamma(t) = 2 int |ghat|^2 sin^2(eps t / 2) / eps^2 dk at one time, cell
    by cell over the cells with eps >= EPS_MIN, summed exactly by math.fsum."""
    mask = eps.values >= EPS_MIN
    g2, ev = np.abs(g.values[mask]) ** 2, eps.values[mask]
    return 2.0 * g.grid.cell_volume * math.fsum((g2 * np.sin(ev * t / 2.0) ** 2 / ev ** 2).tolist())


def uniformization_gap(battery, rho: ModeDensity, mu2: complex, eps: Dispersion, t: float) -> float:
    """max over the battery of |Fock(f) (e^{-sigma_t(f)/2} - e^{-sigma_unif(f)/2})|
    at one time, from `fock_functional` and a single-time `sigma_t`."""
    unif = variances(battery, rho, 0.0)
    sig = sigma_t(battery, rho, mu2, eps, [t], unif)[0]
    return max(
        abs(fock_functional(f).value.real * (math.exp(-s / 2.0) - math.exp(-u / 2.0)))
        for f, s, u in zip(battery, sig.tolist(), unif.tolist())
    )


def inner(g: TestFunction, f: TestFunction, weight: Optional[ModeDensity] = None) -> complex:
    """<g | w f> = dk * sum conj(ghat) * w * fhat, with w = rho or 1.

    Conjugate-linear in the first argument.
    """
    grid = same_grid(g, f) if weight is None else same_grid(g, f, weight)
    w = 1.0 if weight is None else weight.values
    return complex(grid.cell_volume * np.sum(np.conj(g.values) * w * f.values))


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
