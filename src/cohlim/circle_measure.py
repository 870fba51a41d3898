"""Probability measures on the circle, their Fourier moments and circle
averages.

Only the integer Fourier moments mu_hat(n) = int e^{-i n theta} dmu(theta)
enter any infinite-volume formula; mu_hat(1) must vanish for the continuous
mode limit to exist, and mu_hat(2) is the single parameter carried into the
variance and squeeze formulas.  This is the one module that reads how a
measure is held.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

TWO_PI = 2.0 * np.pi
CIRCLE_NODES = 256  # midpoint nodes of a circle average under the uniform measure

_WEIGHT_SLACK = 1e-9


class InadmissibleMeasureError(ValueError):
    """mu_hat(1) != 0: the continuous mode limit does not exist."""


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


def circle_average(mu: PhaseMeasure, integrand: Callable[[np.ndarray], np.ndarray]):
    """int integrand(theta) dmu(theta), the integrand's last axis running
    over the angles it is given: the exact sum over atoms, and for the
    uniform measure the CIRCLE_NODES-point midpoint rule (spectrally
    accurate for smooth integrands)."""
    if mu.atoms is None:
        theta = TWO_PI * (np.arange(CIRCLE_NODES) + 0.5) / CIRCLE_NODES
        weights = np.full(CIRCLE_NODES, 1.0 / CIRCLE_NODES)
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


def sample_phase(mu: PhaseMeasure, rng: np.random.Generator, size=None) -> np.ndarray:
    """i.i.d. draws from mu."""
    if mu.atoms is None:
        return rng.uniform(0.0, TWO_PI, size=size)
    angles, weights = np.array(mu.atoms).T
    return angles[rng.choice(len(angles), size=size, p=weights)]
