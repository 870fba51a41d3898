"""Exact reduced dynamics of an N-level system with an energy-conserving
coupling to the random-phase coherent reservoir.

Populations are frozen; the modulus of each off-diagonal element decays by
two envelopes: the zero-temperature-like Gamma(t) factor and (after
averaging over the random phase carried by Re chi(g)) a Gaussian-in-time
factor whose rate is |sqrt(rho) ghat|_2^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from cohlim.dynamics import Dispersion
from cohlim.mode_space import ModeDensity, TestFunction, inner, same_grid

EPS_MIN = 1e-8  # infrared cutoff: cells with eps below this are excluded
GAMMA_RADIAL_NODES = 400_000  # midpoint nodes of gamma_radial over [0, r_max]


@dataclass(frozen=True)
class SystemSpec:
    """N-level system with diagonal Hamiltonian and diagonal coupling."""

    energies: np.ndarray
    couplings: np.ndarray
    form_factor: TestFunction
    dispersion: Dispersion

    def __post_init__(self):
        e = np.asarray(self.energies, dtype=float)
        g = np.asarray(self.couplings, dtype=float)
        if len(e) < 2 or len(e) != len(g):
            raise ValueError("need N >= 2 levels with one coupling eigenvalue each")
        same_grid(self.form_factor, self.dispersion)
        object.__setattr__(self, "energies", e)
        object.__setattr__(self, "couplings", g)

    @property
    def n_levels(self) -> int:
        return len(self.energies)


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


def gaussian_rate(spec: SystemSpec, reservoir: ModeDensity) -> float:
    """|sqrt(rho) ghat|_2^2, the rate of the Gaussian-in-time factor."""
    return inner(spec.form_factor, spec.form_factor, reservoir).real


def envelopes(
    spec: SystemSpec, k: int, l: int, ts: float | np.ndarray, rate: float = 0.0
) -> tuple[np.ndarray, np.ndarray]:
    """The two decay factors of element (k, l) at each time of `ts`:

        Gaussian  exp(-t^2 (g_k - g_l)^2 rate / 2),
        Gamma     exp(-(g_k - g_l)^2 Gamma(t) / 2).

    `rate` is `gaussian_rate` for the reservoir average and 0 for a single
    sample.  Each factor is a scalar `math.exp`, so a t-grid gives the same
    bits as one time at a time."""
    dg = spec.couplings[k] - spec.couplings[l]
    ts = np.atleast_1d(np.asarray(ts, dtype=float)).tolist()
    gaussian = [math.exp(-0.5 * t * t * dg * dg * rate) for t in ts]
    decay = [math.exp(-0.5 * dg * dg * gamma(t, spec.form_factor, spec.dispersion)) for t in ts]
    return np.array(gaussian), np.array(decay)
