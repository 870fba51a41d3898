"""Exact reduced dynamics of an N-level system with an energy-conserving
coupling to the random-phase coherent reservoir.

Populations are frozen.  The level energies only give each off-diagonal
element a phase e^{-i (E_k - E_l) t}; its modulus decays by two envelopes
that depend only on the coupling difference g_k - g_l: the
zero-temperature-like Gamma(t) factor and (after averaging over the random
phase carried by Re chi(g)) a Gaussian-in-time factor whose rate is
|sqrt(rho) ghat|_2^2.  Gamma takes a whole t-grid at once, summed over the
dispersion levels that `dynamics.sigma_t` also groups the cells into.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from cohlim.dynamics import PHASE_BLOCK_BYTES, Dispersion, eps_levels
from cohlim.mode_space import TestFunction, same_grid

EPS_MIN = 1e-8  # infrared cutoff: cells with eps below this are excluded
GAMMA_RADIAL_NODES = 400_000  # midpoint nodes of gamma_radial over [0, r_max]


def gamma(ts: np.ndarray, g: TestFunction, eps: Dispersion) -> np.ndarray:
    """Dephasing integral 2 int |ghat|^2 sin^2(eps t / 2) / eps^2 dk >= 0
    over the cells with eps >= EPS_MIN, at every t of the 1-d `ts`: shape
    (len(ts),).  Each `eps_levels` level eps_l gives one weight
    w_l = sum |ghat|^2 / eps_l^2, and 2 dk sum_l w_l sin^2(eps_l t / 2) is
    summed in (t, level) blocks of PHASE_BLOCK_BYTES: nonnegative terms,
    where dk sum_l w_l (1 - cos(eps_l t)) would cancel at small eps t."""
    same_grid(g, eps)
    ts = np.asarray(ts, dtype=float)
    order, starts, levels = eps_levels(eps.values)
    weights = np.add.reduceat(np.abs(g.values[order]) ** 2, starts)
    keep = levels >= EPS_MIN
    weights, half = weights[keep] / levels[keep] ** 2, levels[keep] / 2.0
    per_block = max(1, PHASE_BLOCK_BYTES // (8 * max(1, len(half))))
    out = np.empty(len(ts))
    for lo in range(0, len(ts), per_block):
        block = np.multiply.outer(ts[lo : lo + per_block], half)
        np.sin(block, out=block)
        block *= block
        block *= weights
        out[lo : lo + per_block] = block.sum(axis=1)  # pairwise along the levels
    return 2.0 * g.grid.cell_volume * out


def gamma_radial(
    t: float, angular_l2: Callable[[np.ndarray], np.ndarray], r_max: float
) -> float:
    """Gamma(t) for d = 3 and eps(k) = |k| by radial quadrature:

        2 int_0^rmax r^2 A(r) sin^2(r t / 2) / r^2 dr,

    where A(r) = int_{S^2} |g(r, Sigma)|^2 dSigma.  Needed when the form
    factor behaves like r^{-1} near 0 and is not grid-resolvable.
    """
    h = r_max / GAMMA_RADIAL_NODES
    r = h * (np.arange(GAMMA_RADIAL_NODES) + 0.5)
    integrand = angular_l2(r) * np.sin(r * t / 2.0) ** 2
    return float(2.0 * h * np.sum(integrand))


def envelopes(
    dg: float, g: TestFunction, eps: Dispersion, ts: np.ndarray, rate: float
) -> tuple[np.ndarray, np.ndarray]:
    """The two decay factors of an element whose levels' couplings differ
    by `dg`, at each time of the 1-d `ts`:

        Gaussian  exp(-t^2 dg^2 rate / 2),
        Gamma     exp(-dg^2 Gamma(t) / 2).

    `rate` is int rho |ghat|^2 for the reservoir average and 0 for a single
    sample."""
    ts = np.asarray(ts, dtype=float)
    return np.exp(-0.5 * ts * ts * dg * dg * rate), np.exp(-0.5 * dg * dg * gamma(ts, g, eps))
