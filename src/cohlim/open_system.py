"""Exact reduced dynamics of an N-level system with an energy-conserving
coupling to the random-phase coherent reservoir.

Populations are frozen; each off-diagonal element factorizes into a free
phase, a random phase carried by Re chi(g), a deterministic Lamb-type phase,
and two decay envelopes: the zero-temperature-like Gamma(t) factor and (after
averaging over the randomness) a Gaussian-in-time factor whose rate is
|sqrt(rho) ghat|_2^2.
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
PLATEAU_NODES = 200_000  # midpoint nodes of each plateau_radial partial integral
PLATEAU_CUTOFFS = (1e-5, 1e-6)  # infrared cutoffs of the last plateau_radial decade
PLATEAU_GROWTH_TOL = 0.02  # relative growth over that decade that flags a divergence


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


def lamb_phase_integral(t: float, g: TestFunction, eps: Dispersion) -> float:
    """<g | (sin(eps t) - eps t) / eps | g> over the cutoff cells."""
    g2, ev = _infrared_cells(g, eps)
    return float(g.grid.cell_volume * np.sum(g2 * (np.sin(ev * t) - ev * t) / ev))


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


def reduced_element(
    spec: SystemSpec,
    k: int,
    l: int,
    t: float,
    rho0_kl: complex,
    re_chi: float = 0.0,
) -> complex:
    """Exact matrix element rho_{k,l}(t).

    `re_chi` is a sampled Re chi(g) of the form factor g (a column of
    `ito_sampler.sample_chi`), entering through the random phase
    e^{-i t (g_k - g_l) Re chi(g)}; the default 0 leaves the deterministic
    part alone, which is the per-sample envelope since the random factor is a
    pure phase.  Diagonal elements are constant in t.
    """
    e = spec.energies
    g = spec.couplings
    if not (0 <= k < spec.n_levels and 0 <= l < spec.n_levels):
        raise IndexError("level index out of range")
    if k == l:
        return complex(rho0_kl)
    phase = -t * (e[k] - e[l]) - t * (g[k] - g[l]) * re_chi
    phase += 0.5 * (g[k] ** 2 - g[l] ** 2) * lamb_phase_integral(
        t, spec.form_factor, spec.dispersion
    )
    _, decay = envelopes(spec, k, l, t)
    return complex(rho0_kl) * np.exp(1j * phase) * decay[0]


def averaged_offdiagonal(
    spec: SystemSpec,
    reservoir: ModeDensity,
    k: int,
    l: int,
    t: float,
    rho0_kl: complex,
) -> float:
    """|E[rho_{k,l}(t)]| for k != l: the Gaussian factor times the Gamma(t)
    envelope (see `envelopes`), times |rho_{k,l}(0)|."""
    if k == l:
        raise ValueError("averaged decay is defined for off-diagonal elements")
    gaussian, decay = envelopes(spec, k, l, t, gaussian_rate(spec, reservoir))
    return abs(rho0_kl) * float(gaussian[0]) * float(decay[0])


@dataclass(frozen=True)
class PlateauResult:
    value: float
    divergent: bool


def gamma_plateau(g: TestFunction, eps: Dispersion) -> float:
    """Large-time limit |ghat / eps|_2^2 over the cutoff cells."""
    g2, ev = _infrared_cells(g, eps)
    return float(g.grid.cell_volume * np.sum(g2 / ev ** 2))


def plateau_radial(
    angular_l2: Callable[[np.ndarray], np.ndarray], r_max: float
) -> PlateauResult:
    """|g/eps|^2 = int r^2 A(r) / r^2 dr above a shrinking infrared cutoff.

    The integral is evaluated at each of PLATEAU_CUTOFFS; if it still grows
    by more than PLATEAU_GROWTH_TOL relative as the cutoff shrinks from the
    first to the second, the infrared exponent is too singular and the
    plateau is flagged divergent (consistent with linear Gamma growth).
    """
    partials = []
    for r_min in PLATEAU_CUTOFFS:
        h = (r_max - r_min) / PLATEAU_NODES
        r = r_min + h * (np.arange(PLATEAU_NODES) + 0.5)
        partials.append(float(h * np.sum(angular_l2(r))))
    coarse, fine = partials
    growth = (fine - coarse) / max(abs(coarse), 1e-300)
    return PlateauResult(fine, growth > PLATEAU_GROWTH_TOL)
