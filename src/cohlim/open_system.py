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
from typing import Callable, Optional

import numpy as np

from cohlim.dynamics import Dispersion
from cohlim.ito_sampler import BrownianSample, CoefficientPair, chi_omega
from cohlim.mode_space import GridMismatchError, ModeDensity, TestFunction, inner

EPS_MIN = 1e-8  # infrared cutoff: cells with eps below this are excluded


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
        if self.form_factor.grid != self.dispersion.grid:
            raise GridMismatchError("form factor and dispersion on different grids")
        object.__setattr__(self, "energies", e)
        object.__setattr__(self, "couplings", g)

    @property
    def n_levels(self) -> int:
        return len(self.energies)


def _infrared_cells(g: TestFunction, eps: Dispersion) -> tuple[np.ndarray, np.ndarray]:
    """|ghat|^2 and eps over the cells at or above the infrared cutoff."""
    if g.grid != eps.grid:
        raise GridMismatchError("form factor and dispersion on different grids")
    mask = eps.values >= EPS_MIN
    return np.abs(g.values[mask]) ** 2, eps.values[mask]


def gamma(t: float, g: TestFunction, eps: Dispersion) -> float:
    """Dephasing integral 2 int |ghat|^2 sin^2(eps t / 2) / eps^2 dk >= 0
    over the cutoff cells."""
    g2, ev = _infrared_cells(g, eps)
    return float(2.0 * g.grid.cell_volume * np.sum(g2 * np.sin(ev * t / 2.0) ** 2 / ev ** 2))


def gamma_radial(
    t: float,
    angular_l2: Callable[[np.ndarray], np.ndarray],
    r_max: float,
    n_points: int = 200_000,
    r_min: float = 0.0,
) -> float:
    """Gamma(t) for d = 3 and eps(k) = |k| by radial quadrature:

        2 int_rmin^rmax r^2 A(r) sin^2(r t / 2) / r^2 dr,

    where A(r) = int_{S^2} |g(r, Sigma)|^2 dSigma.  Needed when the form
    factor behaves like r^{-1} near 0 and is not grid-resolvable.
    """
    h = (r_max - r_min) / n_points
    r = r_min + h * (np.arange(n_points) + 0.5)
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
    sample: Optional[BrownianSample] = None,
    coeffs: Optional[CoefficientPair] = None,
) -> complex:
    """Exact matrix element rho_{k,l}(t).

    With `sample` (and its coefficient pair) the random phase
    e^{-i t (g_k - g_l) Re chi(g)} is included; without it the deterministic
    part alone is returned, which is the per-sample envelope since the random
    factor is a pure phase.  Diagonal elements are constant in t.
    """
    e = spec.energies
    g = spec.couplings
    if not (0 <= k < spec.n_levels and 0 <= l < spec.n_levels):
        raise IndexError("level index out of range")
    if k == l:
        return complex(rho0_kl)
    dg = g[k] - g[l]
    phase = -t * (e[k] - e[l])
    phase += 0.5 * (g[k] ** 2 - g[l] ** 2) * lamb_phase_integral(
        t, spec.form_factor, spec.dispersion
    )
    if sample is not None:
        if coeffs is None:
            raise ValueError("a coefficient pair is required with a Brownian sample")
        phase += -t * dg * chi_omega(spec.form_factor, coeffs, sample).real
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
    partials: np.ndarray


def gamma_plateau(g: TestFunction, eps: Dispersion) -> float:
    """Large-time limit |ghat / eps|_2^2 over the cutoff cells."""
    g2, ev = _infrared_cells(g, eps)
    return float(g.grid.cell_volume * np.sum(g2 / ev ** 2))


def plateau_radial(
    angular_l2: Callable[[np.ndarray], np.ndarray],
    r_max: float,
    n_points: int = 200_000,
    cutoffs: Optional[np.ndarray] = None,
    growth_tol: float = 0.02,
) -> PlateauResult:
    """|g/eps|^2 = int r^2 A(r) / r^2 dr with a shrinking infrared cutoff.

    The integral is evaluated at each cutoff; if the partial sums keep
    growing by more than `growth_tol` relative per cutoff decade, the
    infrared exponent is too singular and the plateau is flagged divergent
    (consistent with linear Gamma growth).
    """
    if cutoffs is None:
        cutoffs = np.array([1e-2, 1e-3, 1e-4, 1e-5, 1e-6])
    partials = []
    for r_min in cutoffs:
        h = (r_max - r_min) / n_points
        r = r_min + h * (np.arange(n_points) + 0.5)
        partials.append(float(h * np.sum(angular_l2(r))))
    partials = np.array(partials)
    rel_growth = np.diff(partials) / np.maximum(np.abs(partials[:-1]), 1e-300)
    divergent = bool(rel_growth[-1] > growth_tol)
    return PlateauResult(partials[-1], divergent, partials)
