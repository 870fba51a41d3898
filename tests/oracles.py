"""Monte Carlo oracles that the tests hold the library's exact laws against.

`clt_sample` draws the N-mode phase sum whose characteristic function
`circle_measure.log_phase_product` gives exactly; acceptance criterion 2
checks its draws against that law and against the Gaussian limit, by
`ks_distance` among others.
"""

import math

import numpy as np

from cohlim.circle_measure import TWO_PI, PhaseMeasure, admissible
from cohlim.functionals import cell_amplitudes
from cohlim.mode_space import ModeDensity, TestFunction

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
