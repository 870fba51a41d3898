"""Exact reduced dynamics of an N-level system with an energy-conserving
coupling to the random-phase coherent reservoir.

Populations are frozen.  The level energies only give each off-diagonal
element a phase e^{-i (E_k - E_l) t}; its modulus decays by two envelopes
that depend only on the coupling difference g_k - g_l: the
zero-temperature-like Gamma(t) factor and (after averaging over the random
phase carried by Re chi(g)) a Gaussian-in-time factor whose rate is
|sqrt(rho) ghat|_2^2.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from cohlim.dynamics import Dispersion
from cohlim.mode_space import TestFunction, same_grid

EPS_MIN = 1e-8  # infrared cutoff: cells with eps below this are excluded
GAMMA_RADIAL_NODES = 400_000  # midpoint nodes of gamma_radial over [0, r_max]


def _infrared_cells(g: TestFunction, eps: Dispersion) -> tuple[np.ndarray, np.ndarray]:
    """|ghat|^2 and eps over the cells at or above the infrared cutoff."""
    same_grid(g, eps)
    mask = eps.values >= EPS_MIN
    return np.abs(g.values[mask]) ** 2, eps.values[mask]


def gamma(t: float, g: TestFunction, eps: Dispersion) -> float:
    """Dephasing integral 2 int |ghat|^2 sin^2(eps t / 2) / eps^2 dk >= 0
    over the cutoff cells."""
    g2, ev = _infrared_cells(g, eps)
    return float(2.0 * g.grid.cell_volume * np.sum(g2 * np.sin(ev * t / 2.0) ** 2 / ev ** 2))


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
    by `dg`, at each time of `ts`:

        Gaussian  exp(-t^2 dg^2 rate / 2),
        Gamma     exp(-dg^2 Gamma(t) / 2).

    `rate` is int rho |ghat|^2 for the reservoir average and 0 for a single
    sample.  Each factor is a scalar `math.exp`, so a t-grid gives the same
    bits as one time at a time."""
    ts = np.asarray(ts, dtype=float).tolist()
    gaussian = [math.exp(-0.5 * t * t * dg * dg * rate) for t in ts]
    decay = [math.exp(-0.5 * dg * dg * gamma(t, g, eps)) for t in ts]
    return np.array(gaussian), np.array(decay)
