"""Expectation-level realization of the three infinite-volume
representations: the squeeze coefficients alpha/beta, the real-linear maps R
and T, and numeric verification that each cyclic vector reproduces its
functional.

No Fock-space vectors are materialized; every check is an identity among
functionals.  For the doubled (phase-averaged) representation the vacuum
value of the pair (Rf, Tf) is evaluated with the plain momentum norm, under
which |Rf|^2 + |Tf|^2 = |fhat|^2 + 2 sigma^2 holds pointwise exactly; the
result is then rescaled to the repo Fock convention once, through the
mu_hat(2) = 0 closed-form identity.  See the README convention note.  The
random representation is realized in `ito_sampler`: its cyclic-vector value
at a sample omega of the Brownian fields is `random_functional`,
Fock(f) e^{i Re chi(f)}, for a row of chi draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from cohlim.circle_measure import PhaseMeasure, check_mu2, log_phase_product
from cohlim.functionals import (
    CoherentModeSet,
    FunctionalValue,
    fock_functional,
    mode_amplitudes,
)
from cohlim.mode_space import ModeDensity, TestFunction, norm_sq_momentum, same_grid

_BETA_CUTOFF = 1e-14  # below this |mu_hat(2)| the beta prefactor is a removable 0/0


@dataclass(frozen=True)
class SqueezeCoefficients:
    """Pointwise squeeze data: alpha real positive, beta complex, with
    alpha^2 + |beta|^2 = 1 wherever rho is finite."""

    grid: object
    alpha: np.ndarray
    beta: np.ndarray


def build_alpha_beta(rho: ModeDensity, mu2: complex) -> SqueezeCoefficients:
    """alpha = (sqrt(1+x) + sqrt(1-x))/2,
    beta = conj(mu2)/(2|mu2|) * (sqrt(1+x) - sqrt(1-x)),
    with x = |mu2| sqrt(rho/(1+rho)); beta = 0 at mu2 = 0 (removable)."""
    mu2 = complex(mu2)
    check_mu2(mu2)
    x = abs(mu2) * np.sqrt(rho.values / (1.0 + rho.values))
    sp = np.sqrt(1.0 + x)
    sm = np.sqrt(np.maximum(0.0, 1.0 - x))
    alpha = 0.5 * (sp + sm)
    if abs(mu2) < _BETA_CUTOFF:
        beta = np.zeros_like(alpha, dtype=complex)
    else:
        beta = np.conj(mu2) / (2.0 * abs(mu2)) * (sp - sm)
    return SqueezeCoefficients(rho.grid, alpha, beta)


def apply_R(f: TestFunction, rho: ModeDensity, coeffs: SqueezeCoefficients) -> TestFunction:
    """(Rf)(k) = sqrt(1+rho) alpha fhat + sqrt(rho) beta conj(fhat).
    Real-linear; complex-linear only when beta vanishes."""
    same_grid(f, rho, coeffs)
    vals = (
        np.sqrt(1.0 + rho.values) * coeffs.alpha * f.values
        + np.sqrt(rho.values) * coeffs.beta * np.conj(f.values)
    )
    return TestFunction(f.grid, vals, label=f"R[{f.label}]")


def apply_T(f: TestFunction, rho: ModeDensity, coeffs: SqueezeCoefficients) -> TestFunction:
    """(Tf)(k) = sqrt(1+rho) conj(beta) fhat + sqrt(rho) alpha conj(fhat)."""
    same_grid(f, rho, coeffs)
    vals = (
        np.sqrt(1.0 + rho.values) * np.conj(coeffs.beta) * f.values
        + np.sqrt(rho.values) * coeffs.alpha * np.conj(f.values)
    )
    return TestFunction(f.grid, vals, label=f"T[{f.label}]")


def rep_expectation_n_mode(
    f: TestFunction, modes: CoherentModeSet, mu: PhaseMeasure | None = None
) -> FunctionalValue:
    """Cyclic-vector value of the N-mode representation: `n_mode_functional`
    averaged over i.i.d. phases from any mu (uniform by default),

        Fock(f) * prod_j int dmu(theta) e^{i Re e^{-i theta} z_j},

    over the `mode_amplitudes` z_j, skipping modes with z_j = 0: the
    `log_phase_product` at s = 1.  For uniform mu each factor is J0(|z_j|).
    With the grid cells as modes (`cell_amplitudes`) it tends to the
    phase-averaged functional as the grid refines when mu_hat(1) = 0.
    """
    mu = mu or PhaseMeasure.uniform()
    fock = fock_functional(f)
    z = mode_amplitudes(f, modes)
    value = np.exp(log_phase_product(mu, z[np.abs(z) > 0], [1.0])[0])
    return FunctionalValue(fock.value * complex(value), fock.fock_exponent)


def rep_expectation_averaged(
    f: TestFunction, rho: ModeDensity, mu2: complex
) -> FunctionalValue:
    """Cyclic-vector value of the doubled representation:
    the Fock pair value of (Rf, Tf), calibrated so that the mu_hat(2) = 0
    closed form is exact.  With the momentum-norm identity
    |Rf|^2 + |Tf|^2 = |fhat|^2 + 2 sigma^2 this equals
    Fock(f) * exp(-sigma^2/2) up to floating point.
    """
    coeffs = build_alpha_beta(rho, mu2)
    rf = apply_R(f, rho, coeffs)
    tf = apply_T(f, rho, coeffs)
    fock = fock_functional(f)
    sigma_sq = 0.5 * (
        norm_sq_momentum(rf) + norm_sq_momentum(tf) - norm_sq_momentum(f)
    )
    return FunctionalValue(
        fock.value * math.exp(-sigma_sq / 2.0), fock.fock_exponent, sigma_sq=sigma_sq
    )
