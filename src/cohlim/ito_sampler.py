"""Random-phase machinery: Brownian cell increments, the discretized Ito
integral, the complex Gaussian chi(f), sampled random functionals and the
finite-N central-limit diagnostics.

The Ito integral is realized on grid cells exactly as the simple-function
construction: each cell carries an independent N(0, dk) increment and the
integral is the plain cell sum.  Integrands are deterministic, so no
stochastic-calculus semantics beyond the isometry are needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from cohlim.circle_measure import (
    InadmissibleMeasureError,
    PhaseMeasure,
    admissible,
    check_mu2,
    sample_phase,
)
from cohlim.functionals import FunctionalValue, _circle_average, fock_functional
from cohlim.mode_space import (
    GridMismatchError,
    ModeDensity,
    MomentumGrid,
    TestFunction,
)

# Below this margin in 1 + Re mu_hat(2) the generic coefficient formulas
# degenerate and the alternate branch S1 = i sqrt(rho), S2 = sqrt(rho) is used.
BRANCH_MARGIN = 1e-9


class DegenerateVarianceError(ArithmeticError):
    """The variance normalizer s_N vanishes; the ratio is undefined."""


@dataclass(frozen=True)
class BrownianSample:
    """Per-cell increments of two independent d-dimensional Brownian fields,
    each N(0, dk), drawn from a seeded counter-based stream."""

    grid: MomentumGrid
    dB1: np.ndarray
    dB2: np.ndarray
    seed: int
    stream: int = 0


def draw_brownian(grid: MomentumGrid, seed: int, stream: int = 0) -> BrownianSample:
    rng = np.random.default_rng([seed, stream])
    scale = math.sqrt(grid.cell_volume)
    dB1 = rng.normal(0.0, scale, grid.n_cells)
    dB2 = rng.normal(0.0, scale, grid.n_cells)
    return BrownianSample(grid, dB1, dB2, seed, stream)


@dataclass(frozen=True)
class CoefficientPair:
    """Coefficient functions S1, S2 of the chi integral.  The choice is not
    unique; these reproduce the variance integrand rho (|fhat|^2 +
    Re{mu_hat(2) fhat^2}) pointwise."""

    grid: MomentumGrid
    S1: np.ndarray
    S2: np.ndarray
    mu2: complex


def build_coefficients(rho: ModeDensity, mu2: complex) -> CoefficientPair:
    """S1 = sqrt(rho/(1+Re mu2)) (1+mu2), S2 = sqrt(rho/(1+Re mu2))
    sqrt(1-|mu2|^2); at Re mu2 = -1 (which forces mu2 = -1) the alternate
    branch S1 = i sqrt(rho), S2 = sqrt(rho)."""
    mu2 = complex(mu2)
    check_mu2(mu2)
    sqrho = np.sqrt(rho.values)
    if 1.0 + mu2.real <= BRANCH_MARGIN:
        return CoefficientPair(rho.grid, 1j * sqrho, sqrho.astype(complex), mu2)
    base = sqrho / math.sqrt(1.0 + mu2.real)
    s1 = base * (1.0 + mu2)
    s2 = base * math.sqrt(max(0.0, 1.0 - abs(mu2) ** 2))
    return CoefficientPair(rho.grid, s1, s2.astype(complex), mu2)


def ito_integral(phi: Union[TestFunction, np.ndarray], dB: np.ndarray,
                 grid: Optional[MomentumGrid] = None) -> complex:
    """Cell sum sum_j phi(k_j) dB_j; linear in phi for a fixed sample, with
    mean 0 and second moment equal to the momentum norm^2 over resamplings."""
    if isinstance(phi, TestFunction):
        if grid is not None and phi.grid != grid:
            raise GridMismatchError("integrand grid does not match sample grid")
        values = phi.values
    else:
        values = np.asarray(phi)
    if values.shape != dB.shape:
        raise GridMismatchError(
            f"integrand has {values.shape} cells, increments have {dB.shape}"
        )
    return complex(np.sum(values * dB))


def chi_omega(f: TestFunction, coeffs: CoefficientPair, sample: BrownianSample) -> complex:
    """chi(f) = int dB1 S1 fhat + i int dB2 S2 fhat; additive in f per sample,
    with Re chi ~ N(0, sigma_mu(f)^2) over resamplings."""
    if f.grid != coeffs.grid or f.grid != sample.grid:
        raise GridMismatchError("function, coefficients and sample must share a grid")
    return complex(
        np.sum(sample.dB1 * coeffs.S1 * f.values)
        + 1j * np.sum(sample.dB2 * coeffs.S2 * f.values)
    )


def random_functional(
    f: TestFunction, coeffs: CoefficientPair, sample: BrownianSample
) -> FunctionalValue:
    """Fock(f) * e^{i Re chi(f)}; the modulus is exactly the Fock value."""
    fock = fock_functional(f)
    phase = chi_omega(f, coeffs, sample).real
    return FunctionalValue(fock.value * np.exp(1j * phase), fock.fock_exponent, phase=phase)


def sample_chi(
    fs: Sequence[TestFunction],
    coeffs: CoefficientPair,
    n_samples: int,
    rng: np.random.Generator,
    chunk: int = 2000,
) -> np.ndarray:
    """Monte Carlo draws of chi for a battery of functions sharing one grid.

    Returns shape (n_samples, len(fs)); all functions see the same Brownian
    increments within a draw (as they must: chi is a single random field
    evaluated on several integrands), and draws are independent.
    """
    grid = coeffs.grid
    for f in fs:
        if f.grid != grid:
            raise GridMismatchError("all battery functions must share the grid")
    phi1 = np.stack([coeffs.S1 * f.values for f in fs], axis=1)
    phi2 = np.stack([coeffs.S2 * f.values for f in fs], axis=1)
    scale = math.sqrt(grid.cell_volume)
    out = np.empty((n_samples, len(fs)), dtype=complex)
    done = 0
    while done < n_samples:
        m = min(chunk, n_samples - done)
        z1 = rng.normal(0.0, scale, (m, grid.n_cells))
        z2 = rng.normal(0.0, scale, (m, grid.n_cells))
        out[done : done + m] = z1 @ phi1 + 1j * (z2 @ phi2)
        done += m
    return out


def chi_gram_factor(fs: Sequence[TestFunction], coeffs: CoefficientPair) -> np.ndarray:
    """Upper-triangular R with R^T R the covariance of (Re chi | Im chi)
    over the battery, shape (min(2N, 2K), 2K) for N cells and K functions.

    The cell sum of `sample_chi` is z W for z ~ N(0, I_2N) and the real
    2N x 2K matrix W = sqrt(dk) [[Re S1f | Im S1f], [-Im S2f | Re S2f]], so
    its covariance is W^T W = R^T R with R from the QR factorization of W.
    Unlike a Cholesky or eigen factorization of W^T W, this needs no
    clipping when W is rank deficient (|mu_hat(2)| = 1 with real f,
    collinear batteries).
    """
    grid = coeffs.grid
    for f in fs:
        if f.grid != grid:
            raise GridMismatchError("all battery functions must share the grid")
    n, k = grid.n_cells, len(fs)
    w = np.empty((2 * n, 2 * k))
    for j, f in enumerate(fs):
        phi1 = coeffs.S1 * f.values
        phi2 = coeffs.S2 * f.values
        w[:n, j], w[:n, k + j] = phi1.real, phi1.imag
        w[n:, j], w[n:, k + j] = -phi2.imag, phi2.real
    w *= math.sqrt(grid.cell_volume)
    return np.linalg.qr(w, mode="r")


def sample_chi_gram(
    fs: Sequence[TestFunction],
    coeffs: CoefficientPair,
    n_samples: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Draws of chi over a battery with exactly the law of `sample_chi`.

    On a fixed grid (Re chi, Im chi) is a 2K-dimensional Gaussian, so each
    draw is one standard normal 2K-vector times `chi_gram_factor`: O(N K^2)
    once, then O(n K^2), instead of 2 n N cell increments.  Returns shape
    (n_samples, len(fs)), complex; the RNG stream differs from `sample_chi`.
    """
    r = chi_gram_factor(fs, coeffs)
    x = rng.standard_normal((n_samples, r.shape[0])) @ r
    k = len(fs)
    return x[:, :k] + 1j * x[:, k:]


# -- finite-N central limit diagnostics --------------------------------------


def _mode_amplitudes(
    f: TestFunction, grid: MomentumGrid, rho: ModeDensity
) -> np.ndarray:
    """z_j = (2R)^{d/2} sqrt(2 rho(k_j)) fhat(k_j): the per-mode complex
    amplitude whose phase-rotated real part is the CLT summand."""
    if f.grid != grid or rho.grid != grid:
        raise GridMismatchError("inputs must share the supplied grid")
    return (2.0 * grid.R) ** (grid.d / 2.0) * np.sqrt(2.0 * rho.values) * f.values


def clt_sample(
    f: TestFunction,
    grid: MomentumGrid,
    rho: ModeDensity,
    mu: PhaseMeasure,
    n_draws: int,
    rng: np.random.Generator,
    chunk: int = 512,
) -> np.ndarray:
    """Independent draws of N^{-d/2} sum_j xi_j with
    xi_j = Re e^{-i theta_j} z_j and theta_j i.i.d. from mu.

    Converges in distribution to N(0, sigma_mu(f)^2) as the grid refines.
    """
    if not admissible(mu):
        raise InadmissibleMeasureError("mu_hat(1) must vanish for the CLT limit")
    z = _mode_amplitudes(f, grid, rho)
    scale = grid.N ** (-grid.d / 2.0)
    out = np.empty(n_draws)
    done = 0
    while done < n_draws:
        m = min(chunk, n_draws - done)
        theta = sample_phase(mu, rng, size=(m, grid.n_cells))
        out[done : done + m] = scale * np.sum(
            np.real(np.exp(-1j * theta) * z[None, :]), axis=1
        )
        done += m
    return out


def lyapounov_ratio(
    f: TestFunction,
    grid: MomentumGrid,
    rho: ModeDensity,
    mu: PhaseMeasure,
    delta: float,
) -> float:
    """sum_j E|xi_j|^{2+delta} / s_N^{2+delta} with per-mode circle
    quadrature; decays like N^{-d delta / 2} for smooth data."""
    if delta <= 0:
        raise ValueError(f"delta must be positive, got {delta}")
    z = _mode_amplitudes(f, grid, rho)
    active = np.abs(z) > 0
    if not np.any(active):
        raise DegenerateVarianceError("all CLT summands vanish")
    za = z[active]

    def abs_moment(power):
        def integrand(theta):
            return np.abs(np.real(np.exp(-1j * theta)[None, :] * za[:, None])) ** power

        return _circle_average(mu, integrand)

    s_sq = float(np.sum(abs_moment(2.0)))
    if s_sq <= 0:
        raise DegenerateVarianceError("variance normalizer s_N vanished")
    num = float(np.sum(abs_moment(2.0 + delta)))
    return num / s_sq ** (1.0 + delta / 2.0)
