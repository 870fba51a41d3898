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
from typing import Callable, Optional, Sequence

import numpy as np

from cohlim.circle_measure import (
    TWO_PI,
    InadmissibleMeasureError,
    PhaseMeasure,
    admissible,
    check_mu2,
    fourier_moment,
)
from cohlim.mode_space import (
    GridMismatchError,
    ModeDensity,
    MomentumGrid,
    TestFunction,
    finite_volume_coefficients,
    norm_sq_momentum,
)

CIRCLE_NODES = 256


@dataclass(frozen=True)
class CoherentMode:
    """One discrete coherent mode: momentum, particle density per unit
    volume, and phase."""

    k: np.ndarray
    rho: float
    theta: float

    def __post_init__(self):
        object.__setattr__(self, "k", np.atleast_1d(np.asarray(self.k, dtype=float)))
        if self.rho < 0:
            raise ValueError("mode density must be nonnegative")
        object.__setattr__(self, "theta", float(np.mod(self.theta, TWO_PI)))


@dataclass(frozen=True)
class CoherentModeSet:
    modes: tuple

    def __post_init__(self):
        object.__setattr__(
            self,
            "modes",
            tuple(
                m if isinstance(m, CoherentMode) else CoherentMode(*m)
                for m in self.modes
            ),
        )

    def __len__(self):
        return len(self.modes)

    def momenta(self) -> np.ndarray:
        return np.stack([m.k for m in self.modes])

    def rhos(self) -> np.ndarray:
        return np.array([m.rho for m in self.modes])

    def thetas(self) -> np.ndarray:
        return np.array([m.theta for m in self.modes])

    def with_thetas(self, thetas: np.ndarray) -> "CoherentModeSet":
        return CoherentModeSet(
            tuple(
                CoherentMode(m.k, m.rho, t) for m, t in zip(self.modes, thetas)
            )
        )


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


def n_mode_functional(f: TestFunction, modes: CoherentModeSet) -> FunctionalValue:
    """Fock value times the pure phase
    exp(i * Re sum_j e^{-i theta_j} sqrt(2 rho_j) fhat(k_j)).
    """
    fock = fock_functional(f)
    if len(modes) == 0:
        return fock
    fhat = f.evaluate_at(modes.momenta())
    amps = np.sqrt(2.0 * modes.rhos())
    phase = float(np.sum(np.real(np.exp(-1j * modes.thetas()) * amps * fhat)))
    return FunctionalValue(fock.value * np.exp(1j * phase), fock.fock_exponent, phase=phase)


def finite_volume_functional(
    f_position: Callable[[np.ndarray], np.ndarray],
    fhat: TestFunction,
    L: float,
    modes: CoherentModeSet,
    quad_points: int = 4096,
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
    if len(modes) == 0:
        return fock
    d = modes.modes[0].k.shape[0]
    lattice = np.rint(modes.momenta() * L / TWO_PI).astype(int)
    coeffs = finite_volume_coefficients(f_position, L, lattice, d=d, quad_points=quad_points)
    # conj(alpha_j) * fhat_{k'} = sqrt(rho_j) e^{-i theta_j} * L^{d/2} fhat_{k'}
    amp = np.sqrt(modes.rhos()) * np.exp(-1j * modes.thetas()) * L ** (d / 2.0)
    phase = math.sqrt(2.0) * float(np.sum(np.real(amp * coeffs)))
    return FunctionalValue(fock.value * np.exp(1j * phase), fock.fock_exponent, phase=phase)


def sigma_mu_sq(f: TestFunction, rho: ModeDensity, mu2: complex) -> float:
    """Variance integral int rho (|fhat|^2 + Re{mu_hat(2) fhat^2}) dk >= 0."""
    check_mu2(mu2)
    if f.grid != rho.grid:
        raise GridMismatchError("test function and density on different grids")
    integrand = rho.values * (
        np.abs(f.values) ** 2 + np.real(mu2 * f.values ** 2)
    )
    val = float(f.grid.cell_volume * np.sum(integrand))
    if val < -1e-12:
        raise ArithmeticError(f"variance integral came out negative: {val}")
    return max(val, 0.0)


def phase_averaged_functional(
    f: TestFunction, rho: ModeDensity, mu: PhaseMeasure, tol: float = 1e-9
) -> FunctionalValue:
    """Continuous-mode limit of the phase-mixed functional:
    Fock value times exp(-sigma_mu(f)^2 / 2).  Requires mu_hat(1) = 0.
    """
    if not admissible(mu, tol):
        raise InadmissibleMeasureError(
            f"mu_hat(1) = {fourier_moment(mu, 1):.3g} is nonzero: "
            "the continuous mode limit diverges"
        )
    fock = fock_functional(f)
    sig = sigma_mu_sq(f, rho, fourier_moment(mu, 2))
    return FunctionalValue(
        fock.value * math.exp(-sig / 2.0), fock.fock_exponent, sigma_sq=sig
    )


# -- circle quadrature and the J0 cross-check --------------------------------


def bessel_j0(x: float) -> float:
    """J0 by its power series sum_m (-1)^m (x/2)^{2m} / (m!)^2.

    Converges for all x; terms are summed until they drop below 1e-18 of the
    running value.  Independent of the circle-quadrature route by design.
    """
    x = float(x)
    term = 1.0
    total = 1.0
    m = 0
    q = (x / 2.0) ** 2
    while True:
        m += 1
        term *= -q / (m * m)
        total += term
        if abs(term) < 1e-18 * max(1.0, abs(total)):
            return total
        if m > 10_000:
            raise ArithmeticError("J0 series failed to converge")


def _circle_average(mu: PhaseMeasure, integrand: Callable[[np.ndarray], np.ndarray]):
    """int integrand(theta) dmu(theta); exact sum for atoms, 256-node uniform
    quadrature otherwise (spectrally accurate for smooth integrands)."""
    if mu.kind == "atoms":
        angles = np.array([a for a, _ in mu.atoms])
        weights = np.array([w for _, w in mu.atoms])
        return np.sum(weights * integrand(angles), axis=-1)
    theta = TWO_PI * (np.arange(CIRCLE_NODES) + 0.5) / CIRCLE_NODES
    if mu.kind == "uniform":
        w = np.full(CIRCLE_NODES, 1.0 / CIRCLE_NODES)
    else:
        dens = np.interp(
            theta, mu.grid_angles(), mu.density, period=TWO_PI
        )
        w = dens * TWO_PI / CIRCLE_NODES
        w = w / w.sum()
    return np.sum(w * integrand(theta), axis=-1)


@dataclass(frozen=True)
class BesselCheck:
    quadrature: complex
    series: float


def bessel_check(amplitude: float) -> BesselCheck:
    """Circle integral int (dtheta/2pi) e^{-i(a cos + b sin)} with
    a^2 + b^2 = amplitude^2, next to the J0 power-series value.

    The split (a, b) = amplitude * (3/5, 4/5) exercises both terms; the
    integral depends only on the amplitude.
    """
    a = 0.6 * amplitude
    b = 0.8 * amplitude
    quad = _circle_average(
        PhaseMeasure.uniform(),
        lambda th: np.exp(-1j * (a * np.cos(th) + b * np.sin(th))),
    )
    return BesselCheck(complex(quad), bessel_j0(amplitude))


def discrete_phase_average_functional(
    f: TestFunction, grid: MomentumGrid, rho: ModeDensity, mu: PhaseMeasure
) -> FunctionalValue:
    """Finite-N product of per-mode circle averages (any mu, admissible or
    not):

        Fock(f) * prod_j int dmu(theta) e^{i Re e^{-i theta} z_j},

    with z_j = sqrt(2 rho(k_j) dk) fhat(k_j).  Converges to the
    phase-averaged functional as N grows when mu_hat(1) = 0; for uniform mu
    each factor equals J0(|z_j|).
    """
    if f.grid != grid or rho.grid != grid:
        raise GridMismatchError("inputs must share the supplied grid")
    fock = fock_functional(f)
    z = np.sqrt(2.0 * rho.values * grid.cell_volume) * f.values
    active = np.abs(z) > 0
    if not np.any(active):
        return fock
    za = z[active]

    def integrand(theta):
        # shape (n_active, n_nodes)
        arg = np.real(np.exp(-1j * theta)[None, :] * za[:, None])
        return np.exp(1j * arg)

    factors = _circle_average(mu, integrand)
    prod = complex(np.prod(factors))
    return FunctionalValue(fock.value * prod, fock.fock_exponent)


# -- diagnostics -------------------------------------------------------------


@dataclass(frozen=True)
class DivergenceFit:
    """Log-log fit of the deterministic phase sum against N."""

    slope: float
    intercept: float
    magnitudes: np.ndarray
    n_values: np.ndarray
    conclusive: bool


def divergence_diagnostic(
    f_profile: Callable,
    rho_profile: Callable,
    theta_fn: Callable,
    n_list: Sequence[int],
    R: float,
    d: int = 1,
) -> DivergenceFit:
    """Growth exponent of the fixed-phase mode sum

        S(N) = (2R/N)^{d/2} sum_j e^{-i theta(k_j)} sqrt(2 rho(k_j)) fhat(k_j)

    as N grows; for generic smooth positive data |S(N)| ~ N^{d/2}.  Returns
    an inconclusive fit if the sums all vanish (e.g. rho = 0 or fhat
    orthogonal to the phase profile).
    """
    n_list = sorted(int(n) for n in n_list)
    if len(n_list) < 4:
        raise ValueError("need at least 4 grid sizes for a slope fit")
    mags = []
    for n in n_list:
        grid = MomentumGrid(d=d, R=R, N=n)
        pts = grid.points() if d > 1 else grid.points()[:, 0]
        rho_v = np.asarray(rho_profile(pts), dtype=float)
        f_v = np.asarray(f_profile(pts), dtype=complex)
        th_v = np.asarray(theta_fn(pts), dtype=float)
        s = (2.0 * R / n) ** (d / 2.0) * np.sum(
            np.exp(-1j * th_v) * np.sqrt(2.0 * rho_v) * f_v
        )
        mags.append(abs(s))
    mags = np.array(mags)
    n_arr = np.array(n_list, dtype=float)
    if np.all(mags < 1e-12):
        return DivergenceFit(float("nan"), float("nan"), mags, n_arr, False)
    slope, intercept = np.polyfit(np.log(n_arr), np.log(mags), 1)
    return DivergenceFit(float(slope), float(intercept), mags, n_arr, True)


def rarefied_functional(
    g: TestFunction,
    alpha_profile: Callable[[np.ndarray], np.ndarray],
    sigma: float,
    a: float,
    b: float,
    quad_points: int = 8192,
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
    h = (b - a) / quad_points
    ks = a + h * (np.arange(quad_points) + 0.5)
    integrand = np.conj(alpha_profile(ks)) * g.evaluate_at(ks[:, None])
    phase = math.sqrt(2.0) * sigma * float(np.real(h * np.sum(integrand)))
    return FunctionalValue(fock.value * np.exp(1j * phase), fock.fock_exponent, phase=phase)


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
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    s = max(1, int(round(math.sqrt(L) / (sigma * math.pi * (b - a)))))
    n_total = int(L / math.pi)
    js = np.arange(0, n_total + 1, s)
    ks = a + js * math.pi * (b - a) / L
    ks = ks[ks <= b + 1e-12]
    vals = np.conj(alpha_profile(ks)) * g.evaluate_at(ks[:, None])
    return math.sqrt(2.0) / math.sqrt(L) * float(np.real(np.sum(vals)))
