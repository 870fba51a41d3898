"""Probability measures on the circle and their Fourier moments.

Only the integer Fourier moments mu_hat(n) = int e^{-i n theta} dmu(theta)
enter any infinite-volume formula; mu_hat(1) must vanish for the continuous
mode limit to exist, and mu_hat(2) is the single parameter carried into the
variance and squeeze formulas.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

import numpy as np

TWO_PI = 2.0 * np.pi

_WEIGHT_SLACK = 1e-9


class InadmissibleMeasureError(ValueError):
    """mu_hat(1) != 0: the continuous mode limit does not exist."""


@dataclass(frozen=True)
class PhaseMeasure:
    """Measure on [0, 2pi): uniform, finite atoms, or a gridded density.

    Atom weights (or the density quadrature) must sum to 1 within 1e-9 at
    construction; they are renormalized to machine precision, anything
    further off is rejected.  Immutable, safe to share across workers.
    """

    kind: str
    atoms: Optional[Tuple[Tuple[float, float], ...]] = None
    density: Optional[np.ndarray] = field(default=None)

    def __post_init__(self):
        if self.kind == "uniform":
            return
        if self.kind == "atoms":
            if not self.atoms:
                raise ValueError("atoms measure needs at least one atom")
            angles = np.mod([a for a, _ in self.atoms], TWO_PI)
            weights = np.asarray([w for _, w in self.atoms], dtype=float)
            if np.any(weights < 0):
                raise ValueError("atom weights must be nonnegative")
            total = weights.sum()
            if abs(total - 1.0) > _WEIGHT_SLACK:
                raise ValueError(f"atom weights sum to {total}, not 1")
            weights = weights / total
            object.__setattr__(
                self, "atoms", tuple(zip(angles.tolist(), weights.tolist()))
            )
            return
        if self.kind == "density":
            vals = np.asarray(self.density, dtype=float)
            if vals.ndim != 1 or len(vals) < 2:
                raise ValueError("density needs at least 2 grid samples")
            if np.any(vals < 0):
                raise ValueError("density values must be nonnegative")
            # periodic trapezoid rule on theta_j = 2 pi j / M
            total = vals.sum() * TWO_PI / len(vals)
            if abs(total - 1.0) > _WEIGHT_SLACK:
                raise ValueError(f"density quadrature sums to {total}, not 1")
            object.__setattr__(self, "density", vals / total)
            return
        raise ValueError(f"unknown measure kind {self.kind!r}")

    # -- constructors -------------------------------------------------------

    @staticmethod
    def uniform() -> "PhaseMeasure":
        return PhaseMeasure("uniform")

    @staticmethod
    def from_atoms(pairs: Sequence[Tuple[float, float]]) -> "PhaseMeasure":
        return PhaseMeasure("atoms", atoms=tuple((float(a), float(w)) for a, w in pairs))

    @staticmethod
    def from_density(values: Sequence[float]) -> "PhaseMeasure":
        return PhaseMeasure("density", density=np.asarray(values, dtype=float))

    @staticmethod
    def opposite_pair() -> "PhaseMeasure":
        """(delta_{pi/2} + delta_{-pi/2}) / 2; mu_hat(1) = 0, mu_hat(2) = -1."""
        return PhaseMeasure.from_atoms([(np.pi / 2, 0.5), (3 * np.pi / 2, 0.5)])

    def grid_angles(self) -> np.ndarray:
        assert self.kind == "density"
        return TWO_PI * np.arange(len(self.density)) / len(self.density)


def fourier_moment(mu: PhaseMeasure, n: int) -> complex:
    """mu_hat(n) = int e^{-i n theta} dmu(theta).  Total; |result| <= 1."""
    if n == 0:
        return 1.0 + 0.0j
    if mu.kind == "uniform":
        return 0.0 + 0.0j
    if mu.kind == "atoms":
        return complex(
            sum(w * np.exp(-1j * n * a) for a, w in mu.atoms)
        )
    theta = mu.grid_angles()
    dtheta = TWO_PI / len(theta)
    return complex(dtheta * np.sum(mu.density * np.exp(-1j * n * theta)))


def check_mu2(mu2: complex) -> None:
    """Refuse a second moment no probability measure has: |mu_hat(2)| <= 1
    (to 1e-12) is the bound every mu2 argument must satisfy."""
    if abs(mu2) > 1 + 1e-12:
        raise ValueError(f"|mu_hat(2)| must be <= 1, got {abs(mu2)}")


def admissible(mu: PhaseMeasure, tol: float = 1e-9) -> bool:
    """True iff |mu_hat(1)| <= tol."""
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    return abs(fourier_moment(mu, 1)) <= tol


def sample_phase(mu: PhaseMeasure, rng: np.random.Generator, size=None) -> np.ndarray:
    """i.i.d. draws from mu.

    For a gridded density the cell is drawn by its weight and the angle is
    uniform within the cell, consistent with the trapezoid normalization.
    """
    if mu.kind == "uniform":
        return rng.uniform(0.0, TWO_PI, size=size)
    if mu.kind == "atoms":
        angles = np.array([a for a, _ in mu.atoms])
        weights = np.array([w for _, w in mu.atoms])
        idx = rng.choice(len(angles), size=size, p=weights)
        return angles[idx]
    m = len(mu.density)
    dtheta = TWO_PI / m
    probs = mu.density * dtheta
    probs = probs / probs.sum()
    idx = rng.choice(m, size=size, p=probs)
    return (idx + rng.uniform(0.0, 1.0, size=np.shape(idx))) * dtheta % TWO_PI
