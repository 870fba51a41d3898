"""Deterministic expectation functionals.

Every functional here is a value of a normalized state on a Weyl unitary and
therefore has modulus at most 1.  The common factor is the vacuum (Fock)
value exp(-(2pi)^{-d} |fhat|_2^2 / 4); the discrete-mode functionals multiply
it by a pure phase, the phase-averaged one by a Gaussian damping factor
exp(-sigma^2/2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from cohlim.circle_measure import TWO_PI, check_mu2
from cohlim.mode_space import (
    ModeDensity,
    TestFunction,
    finite_volume_coefficients,
    norm_sq_momentum,
    same_grid,
)

BOX_NODES = 16384  # midpoint nodes of the finite-box Fourier coefficients
RAREFIED_NODES = 8192  # midpoint nodes of the rarefied-limit integral over [a, b]
DIVERGENCE_FLOOR = 1e-12  # mode sums below this are left out of the slope fit
MIN_FIT_POINTS = 4  # fewest mode sums above DIVERGENCE_FLOOR that a slope fit uses


@dataclass(frozen=True)
class CoherentModeSet:
    """Discrete coherent modes j = 1..n: momenta k of shape (n, d) (or (n,)
    when d = 1), particle densities per unit volume rho >= 0 and phases
    theta, reduced mod 2 pi."""

    k: np.ndarray
    rho: np.ndarray
    theta: np.ndarray

    def __post_init__(self):
        k = np.asarray(self.k, dtype=float)
        rho, theta = np.asarray(self.rho, dtype=float), np.asarray(self.theta, dtype=float)
        k = k[:, None] if k.ndim == 1 else k
        if k.ndim != 2 or not rho.shape == theta.shape == (len(k),):
            shapes = f"{k.shape}, {rho.shape}, {theta.shape}"
            raise ValueError(f"need n momenta, densities and phases, got shapes {shapes}")
        if np.any(rho < 0):
            raise ValueError("mode density must be nonnegative")
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "rho", rho)
        object.__setattr__(self, "theta", np.mod(theta, TWO_PI))


@dataclass(frozen=True)
class FunctionalValue:
    """Functional value with its modulus decomposition for diagnostics."""

    value: complex
    fock_exponent: float
    sigma_sq: Optional[float] = None
    phase: Optional[float] = None

    @property
    def modulus(self) -> float:
        return abs(self.value)


def fock_functional(f: TestFunction) -> FunctionalValue:
    """Vacuum value exp(-(2pi)^{-d} |fhat|_2^2 / 4); real, in (0, 1]."""
    exponent = (TWO_PI) ** (-f.grid.d) * norm_sq_momentum(f) / 4.0
    return FunctionalValue(complex(math.exp(-exponent)), exponent)


def mode_amplitudes(f: TestFunction, modes: CoherentModeSet) -> np.ndarray:
    """z_j = sqrt(2 rho_j) fhat(k_j) of each mode: its factor in the
    N-mode value is e^{i Re e^{-i theta_j} z_j}."""
    return np.sqrt(2.0 * modes.rho) * f.evaluate_at(modes.k)


def cell_amplitudes(f: TestFunction, rho: ModeDensity) -> np.ndarray:
    """z_j = sqrt(2 rho_j) fhat(k_j) of the grid cells as modes, with
    rho_j = rho(k_j) dk, from the samples of f and rho."""
    grid = same_grid(f, rho)
    return np.sqrt(2.0 * grid.cell_volume * rho.values) * f.values


def n_mode_functional(f: TestFunction, modes: CoherentModeSet) -> FunctionalValue:
    """Fock value times the pure phase
    exp(i * Re sum_j e^{-i theta_j} z_j) of the `mode_amplitudes` z_j.
    """
    fock = fock_functional(f)
    if not len(modes.rho):
        return fock
    z = mode_amplitudes(f, modes)
    phase = float(np.sum(np.real(np.exp(-1j * modes.theta) * z)))
    return FunctionalValue(fock.value * np.exp(1j * phase), fock.fock_exponent, phase=phase)


def finite_volume_functional(
    f_position: Callable[[np.ndarray], np.ndarray],
    fhat: TestFunction,
    L: float,
    modes: CoherentModeSet,
) -> FunctionalValue:
    """Finite-box value with each requested mode snapped to the nearest
    lattice momentum 2*pi*n/L.

    The phase is sqrt(2) * Re sum_j conj(alpha_j(L)) fhat_{k'_j(L)} with
    alpha_j(L) = L^{d/2} sqrt(rho_j) e^{i theta_j}; it converges to the
    n_mode_functional phase as L grows.  The Fock factor is taken from the
    supplied momentum-space samples `fhat` so that finite-L and limit values
    share the same vacuum envelope.
    """
    if L <= 0:
        raise ValueError(f"box size must be positive, got L={L}")
    fock = fock_functional(fhat)
    if not len(modes.rho):
        return fock
    d = modes.k.shape[1]
    lattice = np.rint(modes.k * L / TWO_PI).astype(int)
    coeffs = finite_volume_coefficients(f_position, L, lattice, d=d, quad_points=BOX_NODES)
    # conj(alpha_j) * fhat_{k'} = sqrt(rho_j) e^{-i theta_j} * L^{d/2} fhat_{k'}
    amp = np.sqrt(modes.rho) * np.exp(-1j * modes.theta) * L ** (d / 2.0)
    phase = math.sqrt(2.0) * float(np.sum(np.real(amp * coeffs)))
    return FunctionalValue(fock.value * np.exp(1j * phase), fock.fock_exponent, phase=phase)


def variances(battery: Sequence[TestFunction], rho: ModeDensity, mu2: complex) -> np.ndarray:
    """The variance integral sigma_mu(f)^2 = int rho (|fhat|^2 + Re{mu_hat(2) fhat^2}) dk >= 0
    of every function f of `battery`: shape (len(battery),).  One function at a
    time goes through buffers reused in place.  At mu_hat(2) = 0 the second
    term, an exact zero, is not formed."""
    check_mu2(mu2)
    grid = same_grid(rho, *battery)
    out = np.empty(len(battery))
    for j, f in enumerate(battery):
        integrand = np.abs(f.values)
        np.square(integrand, out=integrand)
        if mu2 != 0:
            square = f.values ** 2
            np.multiply(mu2, square, out=square)
            integrand += square.real
        np.multiply(rho.values, integrand, out=integrand)
        out[j] = np.sum(integrand)
    out *= grid.cell_volume
    if np.any(out < -1e-12):
        raise ArithmeticError(f"variance integral came out negative: {out.min()}")
    out[out < 0.0] = 0.0
    return out


def sigma_mu_sq(f: TestFunction, rho: ModeDensity, mu2: complex) -> float:
    """`variances` of the one function f; `benchmark/spans.py` times calls by
    this name."""
    return float(variances([f], rho, mu2)[0])


def phase_averaged_functional(
    f: TestFunction, rho: ModeDensity, mu2: complex
) -> FunctionalValue:
    """Continuous-mode limit of the phase-mixed functional of a measure with
    mu_hat(1) = 0 and mu_hat(2) = mu2: Fock value times exp(-sigma_mu(f)^2 / 2).
    """
    fock = fock_functional(f)
    sig = sigma_mu_sq(f, rho, mu2)
    return FunctionalValue(
        fock.value * math.exp(-sig / 2.0), fock.fock_exponent, sigma_sq=sig
    )


# -- the J0 cross-check ------------------------------------------------------


# The largest |x| that `bessel_j0` is given: about 0.8 s for one J0 there (2 vCPUs).
MAX_J0_ARGUMENT = 5000


def bessel_j0(x: float) -> float:
    """J0 by its power series sum_m (-1)^m (x/2)^{2m} / (m!)^2, to about 1e-16.

    The terms reach about e^|x| and cancel, so a float sum would lose
    e^|x| eps (0.1 at x = 40); the series is summed in `decimal` with
    20 + 0.44|x| digits instead, until a term drops below 1e-18.  That is
    about 1.4|x| terms, each a product at about 0.44|x| digits, so the cost
    grows nearly as |x|^3: about 0.3 ms at x = 200, 9.5 ms at 1000, 60 ms
    at 2000, 0.46 s at 4000 and 7 s at 1e4 (2 vCPUs).  Independent of the
    circle-quadrature route by design.
    """
    import decimal  # on first use: at import it would add ~0.45 MB RSS to every CLI run

    x = float(x)
    with decimal.localcontext() as ctx:
        ctx.prec = 20 + int(0.44 * abs(x))
        q = (decimal.Decimal(x) / 2) ** 2
        term = total = decimal.Decimal(1)
        m = 0
        while abs(term) >= decimal.Decimal("1e-18"):
            m += 1
            term *= -q / (m * m)
            total += term
        return float(total)


# -- diagnostics -------------------------------------------------------------


@dataclass(frozen=True)
class DivergenceFit:
    """Log-log fit of the deterministic phase sum against N."""

    slope: float
    magnitudes: np.ndarray
    conclusive: bool


def divergence_diagnostic(pairs: Iterable[tuple[TestFunction, ModeDensity]]) -> DivergenceFit:
    """Growth exponent of the mode sum with every phase fixed at 0

        S(N) = (2R/N)^{d/2} sum_j sqrt(2 rho(k_j)) fhat(k_j) = sum_j `cell_amplitudes`

    of each built (f, rho) pair, in the order given, as N grows; for
    generic smooth positive data |S(N)| ~ N^{d/2}.  The fit uses only the N
    with |S(N)| >= DIVERGENCE_FLOOR; with fewer than 4 of them (e.g. rho = 0,
    an odd fhat against an even rho, or a narrow fhat that the coarse grids
    miss) the fit is inconclusive and its slope NaN.
    """
    ns, mags = [], []
    for f, rho in pairs:
        ns.append(f.grid.N)
        mags.append(abs(np.sum(cell_amplitudes(f, rho))))
    if len(mags) < MIN_FIT_POINTS:
        raise ValueError(f"need at least {MIN_FIT_POINTS} grid sizes for a slope fit")
    mags = np.array(mags)
    fitted = mags >= DIVERGENCE_FLOOR
    if np.count_nonzero(fitted) < MIN_FIT_POINTS:
        return DivergenceFit(float("nan"), mags, False)
    slope = np.polyfit(np.log(np.array(ns, dtype=float)[fitted]), np.log(mags[fitted]), 1)[0]
    return DivergenceFit(float(slope), mags, True)


def rarefied_functional(
    g: TestFunction,
    alpha_profile: Callable[[np.ndarray], np.ndarray],
    sigma: float,
    a: float,
    b: float,
) -> FunctionalValue:
    """Zero-density limit state populated on a sqrt(L)-spaced subset of modes
    in [a, b]:

        Fock(g) * exp(i sqrt(2) sigma Re int_a^b conj(alpha(k)) ghat(k) dk).

    Requires d = 1 and a closed-form (or grid-resolvable) ghat.
    """
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    if g.grid.d != 1:
        raise ValueError("rarefied limit is implemented for d = 1")
    fock = fock_functional(g)
    h = (b - a) / RAREFIED_NODES
    ks = a + h * (np.arange(RAREFIED_NODES) + 0.5)
    integrand = np.conj(alpha_profile(ks)) * g.evaluate_at(ks[:, None])
    phase = math.sqrt(2.0) * sigma * float(np.real(h * np.sum(integrand)))
    return FunctionalValue(fock.value * np.exp(1j * phase), fock.fock_exponent, phase=phase)


def _rarefied_lattice(sigma: float, a: float, b: float, L: float) -> tuple[int, int]:
    """(s, n): of the modes j = 0..n of the box of size L, every s-th is populated."""
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    return max(1, int(round(math.sqrt(L) / (sigma * math.pi * (b - a))))), int(L / math.pi)


def rarefied_mode_count(sigma: float, a: float, b: float, L: float) -> int:
    """How many modes `rarefied_finite_volume_phase` populates at L, about
    sigma (b - a) sqrt(L), found without building them."""
    s, n_total = _rarefied_lattice(sigma, a, b, L)
    return n_total // s + 1


def rarefied_finite_volume_phase(
    g: TestFunction,
    alpha_profile: Callable[[np.ndarray], np.ndarray],
    sigma: float,
    a: float,
    b: float,
    L: float,
) -> float:
    """Finite-L phase of the rarefied state: modes k_j = a + j pi (b-a)/L
    with only every s-th mode populated, s = sqrt(L) / (sigma pi (b-a)),
    alpha_k = sqrt(2 pi rho(k)) replaced by the supplied amplitude profile.

    Converges to sqrt(2) sigma Re int_a^b conj(alpha) ghat dk as L grows.
    """
    s, n_total = _rarefied_lattice(sigma, a, b, L)
    js = np.arange(0, n_total + 1, s)
    ks = a + js * math.pi * (b - a) / L
    ks = ks[ks <= b + 1e-12]
    vals = np.conj(alpha_profile(ks)) * g.evaluate_at(ks[:, None])
    return math.sqrt(2.0) / math.sqrt(L) * float(np.real(np.sum(vals)))
