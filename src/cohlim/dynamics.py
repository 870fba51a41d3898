"""Free-field (Bogoliubov) dynamics at the test-function level and the
drift of phase-mixed states toward the uniform phase distribution."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from cohlim.circle_measure import check_mu2
from cohlim.functionals import (
    CoherentModeSet,
    FunctionalValue,
    fock_functional,
    n_mode_functional,
)
from cohlim.mode_space import (
    GridMismatchError,
    ModeDensity,
    MomentumGrid,
    TestFunction,
)


@dataclass(frozen=True)
class Dispersion:
    """Dispersion relation samples on a grid; `profile` gives off-grid
    values for isolated coherent modes."""

    grid: MomentumGrid
    values: np.ndarray
    profile: Optional[Callable] = field(default=None, compare=False)
    form: str = "custom"

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.grid.n_cells,):
            raise ValueError("dispersion must be sampled on every cell")
        object.__setattr__(self, "values", vals)

    @staticmethod
    def photon(grid: MomentumGrid) -> "Dispersion":
        """epsilon(k) = |k| on the cell centers, exactly."""
        return Dispersion(
            grid, grid.radii(), profile=lambda k: np.linalg.norm(np.atleast_2d(k), axis=-1),
            form="photon",
        )

    @staticmethod
    def quadratic(grid: MomentumGrid) -> "Dispersion":
        return Dispersion(
            grid,
            grid.radii() ** 2,
            profile=lambda k: np.linalg.norm(np.atleast_2d(k), axis=-1) ** 2,
            form="quadratic",
        )

    def at(self, k) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(k, dtype=float))
        if self.profile is not None:
            return np.asarray(self.profile(pts), dtype=float).reshape(len(pts))
        return self.values[self.grid.nearest_index(pts)]


def evolve(f: TestFunction, eps: Dispersion, t: float) -> TestFunction:
    """Pointwise e^{i eps(k) t} fhat(k); norm preserving."""
    if f.grid != eps.grid:
        raise GridMismatchError("function and dispersion on different grids")
    return TestFunction(
        f.grid, np.exp(1j * eps.values * t) * f.values, label=f.label
    )


def n_mode_evolved(
    f: TestFunction, modes: CoherentModeSet, eps: Dispersion, t: float
) -> FunctionalValue:
    """N-mode value under the free dynamics: each phase shifts as
    theta_j -> theta_j - t eps(k_j)."""
    if len(modes) == 0:
        return fock_functional(f)
    eps_vals = eps.at(modes.momenta())
    shifted = modes.with_thetas(modes.thetas() - t * eps_vals)
    return n_mode_functional(f, shifted)


# Bytes of the one (t, distinct eps) block of cos and sin that sigma_t holds,
# however long the t-grid is: half for each.
PHASE_BLOCK_BYTES = 512 * 1024


def _eps_levels(values: np.ndarray):
    """Group the cells by dispersion value: the cell order that sorts
    `values`, the start of each run of equal values in that order, and the
    distinct values themselves."""
    order = np.argsort(values)
    sorted_vals = values[order]
    is_new = np.empty(len(order), dtype=bool)
    is_new[0] = True
    np.not_equal(sorted_vals[1:], sorted_vals[:-1], out=is_new[1:])
    starts = np.flatnonzero(is_new)
    return order, starts, sorted_vals[starts]


def _sigma_unif(f: TestFunction, rho: ModeDensity) -> float:
    """int rho |fhat|^2 dk: the t-independent part of sigma_t, and its value
    for the uniform phase measure (mu_hat(2) = 0)."""
    density = np.abs(f.values)
    np.square(density, out=density)
    density *= rho.values
    return float(f.grid.cell_volume * np.sum(density))


def _gap(fock, sig_t, sig_unif):
    """|fock e^{-sig_t/2} - fock e^{-sig_unif/2}|, factored so that it is
    exactly zero wherever sig_t == sig_unif."""
    return np.abs(fock * np.exp(-sig_unif / 2.0) * np.expm1((sig_unif - sig_t) / 2.0))


def sigma_t(
    f: TestFunction | Sequence[TestFunction],
    rho: ModeDensity,
    mu2: complex,
    eps: Dispersion,
    t: float | np.ndarray,
) -> float | np.ndarray:
    """Time-evolved variance integral
    int rho (|fhat|^2 + Re{e^{2 i t eps} mu_hat(2) fhat^2}) dk;
    tends to int rho |fhat|^2 dk for smooth data as t grows.

    `f` is one test function or a battery (a sequence of them), `t` a scalar
    or a 1-d time grid.  A battery on a grid gives shape (len(t), len(f)),
    one function at one time a float.  Cells of equal dispersion are summed
    before the phase is applied, which is exact, so e^{2 i t eps} is
    evaluated once per (t, distinct eps value) for the whole battery."""
    check_mu2(mu2)
    battery = [f] if isinstance(f, TestFunction) else list(f)
    if any(g.grid != rho.grid or g.grid != eps.grid for g in battery):
        raise GridMismatchError("inputs must share one grid")
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    order, starts, levels = _eps_levels(eps.values)
    rho_sorted = rho.values[order]
    # [Re | Im] of mu_hat(2) int rho fhat^2 over the cells of each level, one
    # function at a time through one reused buffer to keep the peak memory low
    k = len(battery)
    weights = np.empty((len(levels), 2 * k))
    base = np.array([_sigma_unif(g, rho) for g in battery])
    sq = np.empty(len(order), dtype=complex)
    for j, g in enumerate(battery):
        np.take(g.values, order, out=sq, mode="clip")  # "raise" would buffer a copy
        sq *= sq
        sq *= rho_sorted
        sq *= mu2
        np.add.reduceat(sq.real, starts, out=weights[:, j])
        np.add.reduceat(sq.imag, starts, out=weights[:, k + j])
    del order, rho_sorted, sq  # freed before the phase block is allocated
    # cos (top rows) and sin (bottom rows) of 2 t eps for a run of times share
    # one block, so one product with the weights gives every term; a separate
    # one-row product per function would go to a threaded BLAS ddot, which
    # can take milliseconds a call
    per_block = max(1, PHASE_BLOCK_BYTES // (16 * len(levels)))
    block = np.empty((2 * min(per_block, len(ts)), len(levels)))
    osc = np.empty((len(ts), k))
    for lo in range(0, len(ts), per_block):
        tb = ts[lo : lo + per_block]
        n = len(tb)
        cos, sin = block[:n], block[n : 2 * n]
        np.multiply.outer(2.0 * tb, levels, out=sin)
        np.cos(sin, out=cos)
        np.sin(sin, out=sin)
        terms = np.dot(block[: 2 * n], weights)
        osc[lo : lo + n] = terms[:n, :k] - terms[n:, k:]
    # exactly base when mu_hat(2) = 0: the weights, hence osc, are then zero
    out = base + eps.grid.cell_volume * osc
    if isinstance(f, TestFunction):
        out = out[:, 0]
    if np.ndim(t) == 0:
        out = out[0]
    return float(out) if np.ndim(out) == 0 else out


def uniformization_metric(
    battery: Sequence[TestFunction],
    rho: ModeDensity,
    mu2: complex,
    eps: Dispersion,
    t: float,
) -> float:
    """max over the battery of |<E>(e^{i t eps} f) - <E>_unif(f)|, where the
    uniform-phase value uses mu_hat(2) = 0.  Identically zero when
    mu_hat(2) = 0; decays to zero for smooth batteries as t grows."""
    if not battery:
        raise ValueError("battery must be nonempty")
    worst = 0.0
    for f in battery:
        fock = fock_functional(f).value.real
        sig_t = sigma_t(f, rho, mu2, eps, t)
        worst = max(worst, float(_gap(fock, sig_t, _sigma_unif(f, rho))))
    return worst


def uniformization_curve(
    battery: Sequence[TestFunction], rho: ModeDensity, sigma: np.ndarray
) -> np.ndarray:
    """uniformization_metric at every time of a grid, from the table
    sigma = sigma_t(battery, rho, mu2, eps, ts) of shape (len(ts), len(battery))."""
    if not battery:
        raise ValueError("battery must be nonempty")
    fock = np.array([fock_functional(f).value.real for f in battery])
    unif = np.array([_sigma_unif(f, rho) for f in battery])
    return _gap(fock, sigma, unif).max(axis=1)
