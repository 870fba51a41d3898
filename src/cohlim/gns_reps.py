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
random representation's cyclic-vector value is the sampled functional
`ito_sampler.random_functional` itself, so it has no separate realization here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from cohlim.circle_measure import PhaseMeasure, check_mu2
from cohlim.functionals import (
    CoherentModeSet,
    FunctionalValue,
    _circle_average,
    fock_functional,
)
from cohlim.mode_space import (
    GridMismatchError,
    ModeDensity,
    TestFunction,
    norm_sq_momentum,
)

_BETA_CUTOFF = 1e-14  # below this |mu_hat(2)| the beta prefactor is a removable 0/0


@dataclass(frozen=True)
class SqueezeCoefficients:
    """Pointwise squeeze data: alpha real positive, beta complex, with
    alpha^2 + |beta|^2 = 1 wherever rho is finite."""

    grid: object
    alpha: np.ndarray
    beta: np.ndarray
    mu2: complex


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
    return SqueezeCoefficients(rho.grid, alpha, beta, mu2)


def apply_R(f: TestFunction, rho: ModeDensity, coeffs: SqueezeCoefficients) -> TestFunction:
    """(Rf)(k) = sqrt(1+rho) alpha fhat + sqrt(rho) beta conj(fhat).
    Real-linear; complex-linear only when beta vanishes."""
    if f.grid != rho.grid or f.grid != coeffs.grid:
        raise GridMismatchError("function, density and coefficients must share a grid")
    vals = (
        np.sqrt(1.0 + rho.values) * coeffs.alpha * f.values
        + np.sqrt(rho.values) * coeffs.beta * np.conj(f.values)
    )
    return TestFunction(f.grid, vals, label=f"R[{f.label}]")


def apply_T(f: TestFunction, rho: ModeDensity, coeffs: SqueezeCoefficients) -> TestFunction:
    """(Tf)(k) = sqrt(1+rho) conj(beta) fhat + sqrt(rho) alpha conj(fhat)."""
    if f.grid != rho.grid or f.grid != coeffs.grid:
        raise GridMismatchError("function, density and coefficients must share a grid")
    vals = (
        np.sqrt(1.0 + rho.values) * np.conj(coeffs.beta) * f.values
        + np.sqrt(rho.values) * coeffs.alpha * np.conj(f.values)
    )
    return TestFunction(f.grid, vals, label=f"T[{f.label}]")


def rep_expectation_n_mode(
    f: TestFunction, modes: CoherentModeSet, mu: PhaseMeasure | None = None
) -> FunctionalValue:
    """Cyclic-vector value of the N-mode representation with the phase
    factor averaged over the circle (uniform by default):

        Fock(f) * prod_j int dmu e^{-i sqrt(2 rho_j)(cos th Re fhat(k_j)
                                               + sin th Im fhat(k_j))}.

    For uniform mu each factor is J0(sqrt(2 rho_j) |fhat(k_j)|).
    """
    mu = mu or PhaseMeasure.uniform()
    fock = fock_functional(f)
    if len(modes) == 0:
        return fock
    fhat = f.evaluate_at(modes.momenta())
    amps = np.sqrt(2.0 * modes.rhos())

    def integrand(theta):
        arg = amps[:, None] * (
            np.cos(theta)[None, :] * fhat.real[:, None]
            + np.sin(theta)[None, :] * fhat.imag[:, None]
        )
        return np.exp(-1j * arg)

    factors = _circle_average(mu, integrand)
    return FunctionalValue(fock.value * complex(np.prod(factors)), fock.fock_exponent)


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
