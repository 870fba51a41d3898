"""Probability measures on the circle, their Fourier moments, circle
averages and the finite-N phase product.

Only the integer Fourier moments mu_hat(n) = int e^{-i n theta} dmu(theta)
enter any infinite-volume formula; mu_hat(1) must vanish for the continuous
mode limit to exist, and mu_hat(2) is the single parameter carried into the
variance and squeeze formulas.  At finite N the whole measure enters, through
`log_phase_product`: the characteristic function of the sum of
Re e^{-i theta_j} z_j over modes with i.i.d. phases.  This is the one module
that reads how a measure is held.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from cohlim.mode_space import MAX_CELLS

TWO_PI = 2.0 * np.pi
CIRCLE_NODES = 64  # fewest midpoint nodes of a circle average under the uniform measure
PRODUCT_BLOCK = 2 ** 16  # (s, mode, angle) entries of one `log_phase_product` block

_WEIGHT_SLACK = 1e-9


@dataclass(frozen=True)
class PhaseMeasure:
    """Measure on [0, 2pi): finite atoms (angle, weight), or the uniform
    measure when `atoms` is None.  A gridded density is held as the atoms
    of its periodic trapezoid rule (`from_density`).

    Atom weights must sum to 1 within 1e-9 at construction; they are
    renormalized to machine precision, anything further off is rejected.
    """

    atoms: Optional[Tuple[Tuple[float, float], ...]] = None

    def __post_init__(self):
        if self.atoms is None:
            return
        if not self.atoms:
            raise ValueError("atoms measure needs at least one atom")
        angles = np.mod([a for a, _ in self.atoms], TWO_PI)
        weights = np.asarray([w for _, w in self.atoms], dtype=float)
        if np.any(weights < 0):
            raise ValueError("atom weights must be nonnegative")
        total = weights.sum()
        if not abs(total - 1.0) <= _WEIGHT_SLACK:  # a NaN total is refused too
            raise ValueError(f"atom weights sum to {total}, not 1")
        weights = weights / total
        object.__setattr__(
            self, "atoms", tuple(zip(angles.tolist(), weights.tolist()))
        )

    # -- constructors -------------------------------------------------------

    @staticmethod
    def uniform() -> "PhaseMeasure":
        return PhaseMeasure()

    @staticmethod
    def from_atoms(pairs: Sequence[Tuple[float, float]]) -> "PhaseMeasure":
        return PhaseMeasure(tuple((float(a), float(w)) for a, w in pairs))

    @staticmethod
    def from_density(values: Sequence[float]) -> "PhaseMeasure":
        """The periodic trapezoid rule of a density sampled at theta_j =
        2 pi j / M: an atom of weight 2 pi values_j / M at each theta_j.
        Needs M >= 2 nonnegative samples whose weights sum to 1."""
        vals = np.asarray(values, dtype=float)
        if vals.ndim != 1 or len(vals) < 2:
            raise ValueError("density needs at least 2 grid samples")
        m = len(vals)
        return PhaseMeasure.from_atoms(zip(TWO_PI * np.arange(m) / m, TWO_PI * vals / m))


def circle_nodes(radius: float) -> int:
    """Midpoint nodes that average e^{i Re e^{-i theta} z} over uniform
    theta, for every |z| <= radius, to rounding: the error is about
    2 |J_n(|z|)|, which n >= |z| + 13 |z|^(1/3) holds below 1e-19 for |z|
    from 26 to 1e5 (scipy's jv).  Below that the rule asks too few nodes, as
    J_n(x) ~ (x/2)^n / n! there (2 |J_14(1)| = 1.4e-15 at its 14 nodes), so
    CIRCLE_NODES is a floor: it sets the count up to |z| = 25.7."""
    return max(CIRCLE_NODES, math.ceil(radius + 13.0 * radius ** (1.0 / 3.0)))


def circle_angles(mu: PhaseMeasure, radius: float) -> int:
    """The angles of a circle average under mu of e^{i Re e^{-i theta} z}
    for |z| <= radius: its atoms, or the `circle_nodes` of the radius."""
    return circle_nodes(radius) if mu.atoms is None else len(mu.atoms)


def circle_average(mu: PhaseMeasure, integrand: Callable[[np.ndarray], np.ndarray], nodes: int = CIRCLE_NODES):
    """int integrand(theta) dmu(theta), the integrand's last axis running
    over the angles it is given: the exact sum over atoms, and for the
    uniform measure the `nodes`-point midpoint rule (spectrally accurate
    for smooth integrands)."""
    if mu.atoms is None:
        theta = TWO_PI * (np.arange(nodes) + 0.5) / nodes
        weights = np.full(nodes, 1.0 / nodes)
    else:
        theta, weights = np.array(mu.atoms).T
    return np.sum(weights * integrand(theta), axis=-1)


def fourier_moment(mu: PhaseMeasure, n: int) -> complex:
    """mu_hat(n) = int e^{-i n theta} dmu(theta).  Total; |result| <= 1;
    exactly 1 at n = 0 and 0 for the uniform measure at n != 0."""
    if n == 0:
        return 1.0 + 0.0j
    if mu.atoms is None:
        return 0.0 + 0.0j
    return complex(circle_average(mu, lambda theta: np.exp(-1j * n * theta)))


def check_mu2(mu2: complex) -> None:
    """Refuse a second moment no probability measure has: |mu_hat(2)| <= 1
    (to 1e-12) is the bound every mu2 argument must satisfy."""
    if abs(mu2) > 1 + 1e-12:
        raise ValueError(f"|mu_hat(2)| must be <= 1, got {abs(mu2)}")


def admissible(mu: PhaseMeasure) -> bool:
    """True iff |mu_hat(1)| <= 1e-9."""
    return abs(fourier_moment(mu, 1)) <= 1e-9


def log_phase_product(mu: PhaseMeasure, z, s) -> np.ndarray:
    """log prod_j int dmu(theta) e^{i s Re e^{-i theta} z_j} at each s of the
    1-d grid `s`, complex, shape (len(s),): the log characteristic function
    of sum_j Re e^{-i theta_j} z_j, theta_j i.i.d. from mu.  It sums each
    factor's principal log, as the product underflows, so its exp is the
    product on any branch.  Under uniform mu a factor is J0(s |z_j|), the
    mean of cos(s Re e^{-i theta} z_j) on the `circle_nodes` of max s |z_j|.
    The (s, mode, angle) entries go in blocks of at most PRODUCT_BLOCK, whole
    rows of modes while one fits (one mode of more angles is a block alone);
    a mode that needs more than MAX_CELLS angles is refused."""
    z, s = np.asarray(z, dtype=complex), np.asarray(s, dtype=float)
    angles = circle_angles(mu, float(np.max(np.abs(s), initial=0.0) * np.max(np.abs(z), initial=0.0)))
    if angles > MAX_CELLS:
        raise ValueError(f"{angles} angles per mode exceed the cap of {MAX_CELLS}")
    modes = max(1, min(len(z), PRODUCT_BLOCK // angles))
    points = max(1, PRODUCT_BLOCK // (modes * angles))
    out = np.zeros(len(s), dtype=complex)
    for i in range(0, len(z), modes):
        zs = z[i : i + modes, None]
        for k in range(0, len(s), points):
            ss = s[k : k + points, None, None]

            def integrand(theta):
                # e^{i s X_j}, shape (points, modes, angles); under uniform mu
                # its real part, as the rule's sine part is 0 to its aliasing error
                phase = ss * np.real(np.exp(-1j * theta) * zs)
                return np.cos(phase) if mu.atoms is None else np.exp(1j * phase)

            out[k : k + points] += np.sum(np.log(circle_average(mu, integrand, angles) + 0j), axis=1)
    return out
