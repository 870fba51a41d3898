"""Discretized momentum space.

Uniform grids over [-R, R]^d with cell centers k_j = -R + j * (2R/N)
(components j_i in {1, ..., N}), complex test-function samples, nonnegative
mode densities, and midpoint-rule quadrature.  All norms in this package are
momentum-space norms with measure dk, approximated by cell sums weighted by
the cell volume (2R/N)^d.  The position-space norm is (2pi)^{-d} times the
momentum-space one; that conversion factor appears exactly once, in the Fock
functional exponent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

# Cells of the largest grid, and entries of the largest table sized like one
# (2^24 float64 values are 128 MiB per array).
MAX_CELLS = 2 ** 24


class GridMismatchError(ValueError):
    """Operands live on different momentum grids."""


@dataclass(frozen=True)
class MomentumGrid:
    """Uniform grid of N^d cells over [-R, R]^d."""

    d: int
    R: float
    N: int

    def __post_init__(self):
        if self.d not in (1, 2, 3):
            raise ValueError(f"dimension must be 1, 2 or 3, got {self.d}")
        if self.N < 2:
            raise ValueError(f"need at least 2 cells per axis, got N={self.N}")
        if self.R <= 0:
            raise ValueError(f"half-width must be positive, got R={self.R}")

    @property
    def spacing(self) -> float:
        return 2.0 * self.R / self.N

    @property
    def cell_volume(self) -> float:
        return self.spacing ** self.d

    @property
    def n_cells(self) -> int:
        return self.N ** self.d

    @property
    def axis(self) -> np.ndarray:
        """Cell centers along one axis: -R + j * 2R/N for j = 1..N."""
        return -self.R + self.spacing * np.arange(1, self.N + 1)

    def points(self) -> np.ndarray:
        """All cell centers, shape (N^d, d), flat C order over the axes."""
        pts = np.empty((self.N,) * self.d + (self.d,))
        for i, axis in enumerate(np.ix_(*[self.axis] * self.d)):
            pts[..., i] = axis
        return pts.reshape(self.n_cells, self.d)

    def radii(self) -> np.ndarray:
        """Euclidean norm |k_j| of every cell center, shape (N^d,), from the
        squared axes summed by broadcasting, without forming the points."""
        if self.d == 1:
            return np.abs(self.axis)
        total = sum(axis ** 2 for axis in np.ix_(*[self.axis] * self.d))
        return np.sqrt(total, out=total).ravel()

    def nearest_index(self, k: np.ndarray) -> np.ndarray:
        """Flat index of the cell whose center is closest to each point.

        `k` has shape (M, d) (or (M,) when d = 1).
        """
        k = np.atleast_2d(np.asarray(k, dtype=float))
        if k.shape[-1] != self.d:
            k = k.reshape(-1, self.d)
        j = np.rint((k + self.R) / self.spacing).astype(int)
        j = np.clip(j, 1, self.N)
        flat = np.zeros(len(j), dtype=int)
        for axis_idx in range(self.d):
            flat = flat * self.N + (j[:, axis_idx] - 1)
        return flat


@dataclass(frozen=True)
class TestFunction:
    """Complex samples of fhat on a grid, optionally backed by a closed form.

    When `profile` is present, off-grid evaluation uses it; otherwise the
    nearest cell value is returned (O(spacing) error, documented behavior for
    isolated coherent modes that sit off the lattice).
    """

    grid: MomentumGrid
    values: np.ndarray
    profile: Optional[Callable[[np.ndarray], np.ndarray]] = field(default=None, compare=False)
    label: str = ""

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=complex)
        if vals.shape != (self.grid.n_cells,):
            raise ValueError(
                f"need one value for each of the {self.grid.n_cells} grid cells, got shape {vals.shape}"
            )
        if not np.all(np.isfinite(vals.view(float))):
            raise ValueError("test function samples must be finite")
        object.__setattr__(self, "values", vals)

    @staticmethod
    def from_profile(grid: MomentumGrid, profile: Callable, label: str = "") -> "TestFunction":
        pts = grid.points()
        vals = np.asarray(profile(pts if grid.d > 1 else pts[:, 0]), dtype=complex)
        fn = profile if grid.d > 1 else (lambda k, p=profile: p(np.asarray(k)[..., 0]))
        return TestFunction(grid, vals, profile=fn, label=label)

    def evaluate_at(self, k) -> np.ndarray:
        """fhat at arbitrary momenta: the closed form if there is one, else
        the nearest cell."""
        pts = np.atleast_2d(np.asarray(k, dtype=float))
        if pts.shape[-1] != self.grid.d:
            pts = pts.reshape(-1, self.grid.d)
        if self.profile is not None:
            return np.asarray(self.profile(pts), dtype=complex).reshape(len(pts))
        return self.values[self.grid.nearest_index(pts)]


@dataclass(frozen=True)
class ModeDensity:
    """Nonnegative samples rho(k_j): particles per unit spatial volume and
    per unit momentum volume."""

    grid: MomentumGrid
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.grid.n_cells,):
            raise ValueError(
                f"need one value for each of the {self.grid.n_cells} grid cells, got shape {vals.shape}"
            )
        if np.any(vals < 0) or not np.all(np.isfinite(vals)):
            raise ValueError("mode density must be finite and nonnegative")
        object.__setattr__(self, "values", vals)

    @staticmethod
    def from_profile(grid: MomentumGrid, profile: Callable) -> "ModeDensity":
        pts = grid.points()
        vals = np.asarray(profile(pts if grid.d > 1 else pts[:, 0]), dtype=float)
        return ModeDensity(grid, vals)


def same_grid(*objs) -> MomentumGrid:
    """The grid shared by every argument (anything with a `grid`); raises
    GridMismatchError if any two differ."""
    grid = objs[0].grid
    for o in objs[1:]:
        if o.grid != grid:
            raise GridMismatchError(f"grid mismatch: {o.grid} vs {grid}")
    return grid


def battery_gram(fs: Sequence[TestFunction], rho: ModeDensity) -> tuple[np.ndarray, np.ndarray]:
    """(G, T) of a battery f_1..f_K: the sesquilinear G_ij = <f_i | rho f_j>
    and the bilinear T_ij = dk * sum rho f_i f_j, both read from the one real
    Gram matrix of the 2K rows sqrt(rho dk) [Re F; Im F].  The moment matrix
    Q and the covariance of chi are linear in them.  np.einsum without
    `optimize` keeps this small product off BLAS (see `ito_sampler`)."""
    grid = same_grid(rho, *fs)
    k, w = len(fs), np.sqrt(grid.cell_volume * rho.values)
    h = np.empty((2 * k, grid.n_cells))
    for i, f in enumerate(fs):
        np.multiply(f.values.real, w, out=h[i])
        np.multiply(f.values.imag, w, out=h[k + i])
    m = np.einsum("ik,jk->ij", h, h)
    rr, ri, ii = m[:k, :k], m[:k, k:], m[k:, k:]
    return rr + ii + 1j * (ri - ri.T), rr - ii + 1j * (ri + ri.T)


def norm_sq_momentum(f: TestFunction) -> float:
    """Momentum-space norm squared dk * sum |fhat|^2."""
    return float(f.grid.cell_volume * np.sum(np.abs(f.values) ** 2))


def finite_volume_coefficients(
    f_position: Callable[[np.ndarray], np.ndarray],
    L: float,
    modes: Sequence,
    d: int = 1,
    quad_points: int = 4096,
) -> np.ndarray:
    """Box Fourier coefficients fhat_k = L^{-d/2} * int_Lambda e^{-ikx} f(x) dx
    at lattice momenta k = 2*pi*n/L, via composite midpoint quadrature.

    `modes` is a list of integers (d=1) or integer d-vectors.
    """
    if L <= 0:
        raise ValueError(f"box size must be positive, got L={L}")
    mode_arr = np.atleast_2d(np.asarray(modes, dtype=float))
    if mode_arr.shape[-1] != d:
        mode_arr = mode_arr.reshape(-1, d)
    h = L / quad_points
    x1 = -L / 2 + h * (np.arange(quad_points) + 0.5)
    if d == 1:
        fx = np.asarray(f_position(x1), dtype=complex)
        if not np.all(np.isfinite(fx.view(float))):
            raise ValueError("position function must be finite on the box")
        ks = 2.0 * np.pi * mode_arr[:, 0] / L
        phases = np.exp(-1j * np.outer(ks, x1))
        return (h / np.sqrt(L)) * (phases @ fx)
    # d >= 2: tensor midpoint rule; cost quad_points^d, keep quad_points modest.
    grids = np.meshgrid(*([x1] * d), indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=-1)
    fx = np.asarray(f_position(pts), dtype=complex)
    if not np.all(np.isfinite(fx.view(float))):
        raise ValueError("position function must be finite on the box")
    ks = 2.0 * np.pi * mode_arr / L
    phases = np.exp(-1j * (ks @ pts.T))
    return (h ** d) * L ** (-d / 2.0) * (phases @ fx)
