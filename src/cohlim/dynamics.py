"""Free-field (Bogoliubov) dynamics of phase-mixed states: the time-evolved
variance integral and the drift toward the uniform phase distribution."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from cohlim.circle_measure import check_mu2
from cohlim.functionals import fock_functional, variances
from cohlim.mode_space import ModeDensity, MomentumGrid, TestFunction, same_grid


@dataclass(frozen=True)
class Dispersion:
    """Dispersion relation samples on a grid."""

    grid: MomentumGrid
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.grid.n_cells,):
            raise ValueError("dispersion must be sampled on every cell")
        object.__setattr__(self, "values", vals)

    @staticmethod
    def photon(grid: MomentumGrid) -> "Dispersion":
        """epsilon(k) = |k| on the cell centers, exactly."""
        return Dispersion(grid, grid.radii())

    @staticmethod
    def quadratic(grid: MomentumGrid) -> "Dispersion":
        return Dispersion(grid, grid.radii() ** 2)


# Bytes of the one (t, distinct eps) block of cos and sin that the direct
# level sum holds, however long the t-grid is (half for each), and of the
# sin^2 block of `open_system.gamma`; also the most the chirp-z path's
# (functions, FFT length) buffer holds beyond one function.
PHASE_BLOCK_BYTES = 512 * 1024

# Levels are taken for a lattice eps_0 + n h when the lattice has at most
# LATTICE_FILL points per level (the photon dispersion in d = 1 has one) and
# each level is within SNAP_ULPS rounding units of the largest level magnitude
# from its lattice point; times are taken for a uniform grid within SNAP_ULPS
# units of the largest time magnitude.  Either snap moves a phase c t eps by a
# few times its own rounding.
LATTICE_FILL = 4
SNAP_ULPS = 8

# Fewest lattice points, and times, per chirp-z block.  The lattice is cut
# into runs and the t-grid into segments of max(CHIRP_BLOCK, min(M, T)) each,
# for M lattice points and T times, and each (run, segment) pair is one FFT
# convolution: O((M + T) log(M + T)) in all, with buffers that hold
# O(max(CHIRP_BLOCK, min(M, T))) values however long the t-grid is.
CHIRP_BLOCK = 2048


def eps_levels(values: np.ndarray):
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


def _uniform_step(ts: np.ndarray):
    """The step of `ts` if it holds at least two times, equally spaced to
    rounding; else None."""
    if len(ts) < 2:
        return None
    step = (ts[-1] - ts[0]) / (len(ts) - 1)
    drift = np.abs(ts[0] + step * np.arange(len(ts)) - ts)
    tol = SNAP_ULPS * np.finfo(float).eps * np.max(np.abs(ts))
    return step if drift.max() <= tol else None


def _lattice(levels: np.ndarray):
    """(n, h) with levels = levels[0] + n h to rounding, n ascending integers
    from 0 (equal for levels that differ by rounding only), if the lattice
    has at most LATTICE_FILL points per level; else None.  `levels` ascend."""
    tol = SNAP_ULPS * np.finfo(float).eps * max(abs(levels[0]), abs(levels[-1]))
    gaps = np.diff(levels)
    gaps = gaps[gaps > tol]
    span = levels[-1] - levels[0]
    if gaps.size == 0 or span > LATTICE_FILL * len(levels) * gaps.min():
        return None
    n = np.rint((levels - levels[0]) / gaps.min())
    h = span / n[-1]
    if np.max(np.abs(levels[0] + n * h - levels)) > tol:
        return None
    return n.astype(np.intp), h


def _fft_length(n: int) -> int:
    """The smallest 2^a 3^b 5^c >= n: a length numpy.fft transforms fast."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def expi(z: np.ndarray) -> np.ndarray:
    """The complex array `z` set to e^{i z.imag}, in place."""
    np.cos(z.imag, out=z.real)
    np.sin(z.imag, out=z.imag)
    return z


def _quadratic_phase(out: np.ndarray, x: np.ndarray, a: float, b: float, c0: float) -> np.ndarray:
    """The complex array `out` set to e^{i (a x^2 + b x + c0)} for integers x.

    a x^2 can grow far past the other terms, and its rounding with it, so it
    goes in two factors: e^{i a_hi x^2}, where a_hi keeps only as many leading
    bits of a as leave a_hi x^2 exact in float64, and
    e^{i ((a - a_hi) x^2 + b x + c0)}, rounded about as b x + c0 is."""
    keep = 52 - (int(np.max(np.abs(x))) ** 2).bit_length()
    mant, expo = math.frexp(a)
    a_hi = math.ldexp(round(math.ldexp(mant, keep)), expo - keep)
    rest = np.empty_like(out)
    np.multiply(x, a - a_hi, out=rest.imag)
    rest.imag += b
    rest.imag *= x
    rest.imag += c0
    np.multiply(x, x, out=out.imag)
    out.imag *= a_hi
    expi(out)
    out *= expi(rest)
    return out


def _direct_level_sum(weights, levels, ts, c):
    """level_sum by evaluating every phase: O(len(ts) len(levels))."""
    k = weights.shape[1]
    pair = np.concatenate((weights.real, weights.imag), axis=1)  # [Re | Im]
    # cos (top rows) and sin (bottom rows) of c t eps for a run of times share
    # one block, so one product with [Re | Im] gives every term; a separate
    # one-row product per function would go to a threaded BLAS ddot, which
    # can take milliseconds a call
    per_block = max(1, PHASE_BLOCK_BYTES // (16 * len(levels)))
    block = np.empty((2 * min(per_block, len(ts)), len(levels)))
    out = np.empty((len(ts), k))
    for lo in range(0, len(ts), per_block):
        tb = ts[lo : lo + per_block]
        n = len(tb)
        cos, sin = block[:n], block[n : 2 * n]
        np.multiply.outer(c * tb, levels, out=sin)
        np.cos(sin, out=cos)
        np.sin(sin, out=sin)
        terms = np.dot(block[: 2 * n], pair)
        out[lo : lo + n] = terms[:n, :k] - terms[n:, k:]
    return out


def _chirp_level_sum(weights, levels, n, h, ts, step, c):
    """level_sum for levels = levels[0] + n h and ts[m] = ts[0] + m step, by
    Bluestein's chirp-z transform.  For a run of lattice points eps_q + j h
    and a segment of times t_m = t0 + m step, with phi = c h step and
    j m = (j^2 + m^2 - (m - j)^2) / 2, the sum is

        e^{i c eps_q t_m} e^{i phi m^2/2} sum_j [w_j e^{i c h t0 j} e^{i phi j^2/2}] e^{-i phi (m-j)^2/2},

    a convolution done by FFT.  Every run and segment shares the kernel, and
    the functions go through one reused (functions, FFT length) buffer, as
    many at a time as PHASE_BLOCK_BYTES holds (at least one), one 2-d FFT
    pair per run, segment and group of functions."""
    n_times, k = len(ts), weights.shape[1]
    m_len = int(n[-1]) + 1
    side = max(CHIRP_BLOCK, min(m_len, n_times))
    block, seg = min(m_len, side), min(n_times, side)
    size = _fft_length(block + seg - 1)
    half_phi = 0.5 * c * h * step
    # FFT of e^{-i phi l^2/2} for the lags l = m - j in [1 - block, seg), held
    # circularly; the other entries never meet a (j, m) pair
    lags = np.arange(size, dtype=float)
    lags[seg:] -= size
    kernel = np.fft.fft(_quadratic_phase(np.empty(size, dtype=complex), lags, -half_phi, 0.0, 0.0))
    points = np.arange(block, dtype=float)  # j
    offsets = np.arange(seg, dtype=float)  # m
    runs = np.searchsorted(n, np.arange(0, m_len + block, block))  # the levels of each run
    pre = np.empty(block, dtype=complex)
    post = np.empty(seg, dtype=complex)
    group = max(1, min(k, PHASE_BLOCK_BYTES // (16 * size)))
    buf = np.empty((group, size), dtype=complex)
    out = np.zeros((n_times, k))
    for lo in range(0, n_times, seg):
        cnt = min(seg, n_times - lo)
        t0 = ts[lo]
        _quadratic_phase(pre, points, half_phi, c * h * t0, 0.0)
        tail = post[:cnt]
        for q, (first, last) in enumerate(zip(runs[:-1], runs[1:])):
            if first == last:
                continue
            eps_q = levels[0] + q * block * h
            _quadratic_phase(tail, offsets[:cnt], half_phi, c * eps_q * step, c * eps_q * t0)
            js = n[first:last] - q * block
            for j in range(0, k, group):
                g = buf[: min(group, k - j)]
                g.fill(0.0)
                for row, w in zip(g, weights[first:last, j : j + group].T):
                    np.add.at(row, js, w)  # 1-d: a (slice, js) index is several times slower
                g[:, :block] *= pre
                np.fft.fft(g, axis=-1, out=g)
                g *= kernel
                np.fft.ifft(g, axis=-1, out=g)
                head = g[:, :cnt]
                head *= tail
                out[lo : lo + cnt, j : j + group] += head.real.T
    return out


def level_sum(weights: np.ndarray, levels: np.ndarray, ts: np.ndarray, c: float) -> np.ndarray:
    """Re sum_l weights[l, j] e^{i c levels[l] t} at every t of `ts`, for
    every column j of the complex (len(levels), K) `weights`: shape
    (len(ts), K).  `levels` are distinct and ascending, as `eps_levels`
    gives them.

    When `ts` is uniform and the levels lie on a lattice eps_0 + n h of at
    most LATTICE_FILL points per level, the sum is a chirp-z transform, done
    by FFT in O((T + M) log(T + M)) for T times and M lattice points.
    Otherwise (one time, an uneven grid, or levels such as k^2 or |k| in
    d >= 2) every phase is evaluated, blockwise, in O(T L) for L levels.
    Only these properties of the input choose the path."""
    ts = np.asarray(ts, dtype=float)
    step = _uniform_step(ts)
    lattice = None if step is None else _lattice(levels)
    if lattice is None:
        return _direct_level_sum(weights, levels, ts, c)
    return _chirp_level_sum(weights, levels, *lattice, ts, step, c)


def _gap(fock, sig_t, sig_unif):
    """|fock e^{-sig_t/2} - fock e^{-sig_unif/2}|, factored so that it is
    exactly zero wherever sig_t == sig_unif."""
    return np.abs(fock * np.exp(-sig_unif / 2.0) * np.expm1((sig_unif - sig_t) / 2.0))


def sigma_t(
    battery: Sequence[TestFunction],
    rho: ModeDensity,
    mu2: complex,
    eps: Dispersion,
    ts: np.ndarray,
    base: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Time-evolved variance integral
    int rho (|fhat|^2 + Re{e^{2 i t eps} mu_hat(2) fhat^2}) dk
    of every function f of `battery` at every time t of the 1-d `ts`: shape
    (len(ts), len(battery)).  Tends to int rho |fhat|^2 dk for smooth data
    as t grows.

    Cells of equal dispersion are summed before the phase is applied, which
    is exact, and the t-dependent part is `level_sum` over the distinct eps
    values with c = 2.  So a uniform t-grid on lattice levels (the photon
    dispersion in d = 1) costs one chirp-z transform of the functions
    together, a 2-d FFT over (function, time); other
    inputs (quadratic eps, d >= 2, sampled eps, a single time or an uneven
    grid) evaluate e^{2 i t eps} once per (t, distinct eps value) for the
    whole battery.  The t-independent part `base`, variances(battery, rho,
    0.0), is formed here unless the caller already holds it."""
    check_mu2(mu2)
    same_grid(rho, eps, *battery)
    order, starts, levels = eps_levels(eps.values)
    rho_sorted = rho.values[order]
    # mu_hat(2) int rho fhat^2 over the cells of each level, one function at a
    # time through one reused buffer to keep the peak memory low
    weights = np.empty((len(levels), len(battery)), dtype=complex)
    base = variances(battery, rho, 0.0) if base is None else base
    sq = np.empty(len(order), dtype=complex)
    for j, g in enumerate(battery):
        np.take(g.values, order, out=sq, mode="clip")  # "raise" would buffer a copy
        sq *= sq
        sq *= rho_sorted
        sq *= mu2
        np.add.reduceat(sq, starts, out=weights[:, j])
    del order, rho_sorted, sq  # freed before the level sum allocates
    # exactly base when mu_hat(2) = 0: the weights, hence the sum, are then zero
    return base + eps.grid.cell_volume * level_sum(weights, levels, ts, 2.0)


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
    for f, unif in zip(battery, variances(battery, rho, 0.0)[:, None]):
        fock = fock_functional(f).value.real
        sig_t = sigma_t([f], rho, mu2, eps, [t], unif)[0, 0]
        worst = max(worst, float(_gap(fock, sig_t, unif[0])))
    return worst


def uniformization_curve(
    battery: Sequence[TestFunction], unif: np.ndarray, sigma: np.ndarray
) -> np.ndarray:
    """uniformization_metric at every time of a grid, from the uniform-phase
    variances unif = variances(battery, rho, 0.0) and the table sigma =
    sigma_t(battery, rho, mu2, eps, ts, unif) of shape (len(ts), len(battery))."""
    if not battery:
        raise ValueError("battery must be nonempty")
    fock = np.array([fock_functional(f).value.real for f in battery])
    return _gap(fock, sigma, unif).max(axis=1)
