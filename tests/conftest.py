import cmath
import importlib.util
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

from cohlim import ito_sampler
from cohlim.circle_measure import PhaseMeasure
from cohlim.ito_sampler import chi_gram_factor
from cohlim.mode_space import ModeDensity, MomentumGrid, TestFunction, battery_gram
from cohlim.moments import build_q


@pytest.fixture
def grid():
    return MomentumGrid(d=1, R=4.0, N=256)


@pytest.fixture
def fine_grid():
    return MomentumGrid(d=1, R=4.0, N=4096)


@pytest.fixture
def gauss(grid):
    return TestFunction.from_profile(
        grid, lambda k: np.exp(-(k ** 2) / 2.0) * np.exp(1j * k), label="gauss"
    )


@pytest.fixture
def rho(grid):
    return ModeDensity.from_profile(grid, lambda k: np.exp(-((k - 1.0) ** 2)))


def built_pairs(f_profile, rho_profile, n_list, d=1, R=4.0):
    """The (f, rho) pairs of the profiles on the grid over [-R, R]^d of each
    N of `n_list`, in that order: the input of `divergence_diagnostic`."""
    for n in n_list:
        grid = MomentumGrid(d=d, R=R, N=n)
        yield TestFunction.from_profile(grid, f_profile), ModeDensity.from_profile(grid, rho_profile)


def opposite_pair():
    """(delta_{pi/2} + delta_{-pi/2}) / 2; mu_hat(1) = 0, mu_hat(2) = -1."""
    return PhaseMeasure.from_atoms([(np.pi / 2, 0.5), (3 * np.pi / 2, 0.5)])


def with_values(f, values):
    """f with new samples.  A closed form carries over: the new sample of the
    nearest cell plus the closed form's departure from the old sample there,
    scaled by new/old.  So off-grid reads follow the samples (-f reads -fhat,
    exactly on a cell centre and to rounding off it), and where the old
    sample is 0 the new one is read."""
    if f.profile is None:
        return TestFunction(f.grid, values, label=f.label)
    grid, profile, old = f.grid, f.profile, f.values

    def rescaled(pts):
        cell = grid.nearest_index(pts)
        was, now = old[cell], new.values[cell]
        ratio = np.divide(now, was, out=np.zeros_like(now), where=was != 0)
        return now + (np.asarray(profile(pts), dtype=complex).reshape(len(cell)) - was) * ratio

    new = TestFunction(f.grid, values, profile=rescaled, label=f.label)
    return new


def make_battery(grid, n, rng=None):
    """Deterministic battery of smooth complex test functions."""
    rng = rng or np.random.default_rng(2024)
    fns = []
    for i in range(n):
        c = rng.uniform(-1.5, 1.5)
        w = rng.uniform(0.6, 1.6)
        m = rng.uniform(-2.0, 2.0)
        a = rng.uniform(0.5, 1.5)
        fns.append(
            TestFunction.from_profile(
                grid,
                lambda k, c=c, w=w, m=m, a=a: a
                * np.exp(-((k - c) ** 2) / (2 * w ** 2))
                * np.exp(1j * m * k),
                label=f"b{i}",
            )
        )
    return fns


@st.composite
def gaussian_setups(draw):
    """(grid, battery, density) for property tests: a 1-d grid of at most 256
    cells, one to three complex modulated Gaussians and a Gaussian density,
    every parameter drawn.  Amplitudes are zero or at least 1e-3: products of
    subnormal numbers carry no relative precision."""

    def amplitude(hi):
        return draw(st.one_of(st.just(0.0), st.floats(1e-3, hi)))

    grid = MomentumGrid(d=1, R=draw(st.floats(2.0, 8.0)), N=draw(st.sampled_from([16, 64, 256])))

    def gaussian(a):
        c, w, m = draw(st.floats(-3.0, 3.0)), draw(st.floats(0.2, 2.0)), draw(st.floats(-3.0, 3.0))
        return lambda k: a * np.exp(-((k - c) ** 2) / (2 * w ** 2) + 1j * m * k)

    battery = [
        TestFunction.from_profile(
            grid, gaussian(amplitude(4.0) * cmath.exp(1j * draw(st.floats(0.0, 2 * math.pi))))
        )
        for _ in range(draw(st.integers(1, 3)))
    ]
    rho = gaussian(amplitude(3.0))
    return grid, battery, ModeDensity.from_profile(grid, lambda k: np.abs(rho(k)))


# mu_hat(2) anywhere in the closed unit disk, the range of a phase measure's
# second Fourier coefficient
unit_disk = st.builds(
    lambda r, phi: r * cmath.exp(1j * phi), st.floats(0.0, 1.0), st.floats(0.0, 2 * math.pi)
)


def ito_pair(grid):
    """(rho, mu_hat(2)) = (1/2, 1), whose coefficient pair is (S1, S2) = (1, 0):
    chi(f) is then the plain Ito integral of fhat against one Brownian field,
    so E|chi(f)|^2 = |f|^2."""
    return ModeDensity(grid, np.full(grid.n_cells, 0.5)), 1.0


def q_matrix(fs, gs, rho, mu2):
    """`build_q` of a*(f_1)..a*(f_p) a(g_1)..a(g_q) from the Gram of fs + gs."""
    return build_q(battery_gram(list(fs) + list(gs), rho), len(fs), mu2)


def whole_chi_table(gram, mu2, n_samples, rng):
    """The Gram-law draws as one table: all n_samples x r normals from one
    `standard_normal` call, times `chi_gram_factor` in one np.einsum.  The
    reference that the blocks of `chi_gram_blocks` must stack to."""
    r = chi_gram_factor(gram, mu2)
    x = np.einsum("ij,jk->ik", rng.standard_normal((n_samples, r.shape[0])), r)
    k = len(gram[0])
    return x[:, :k] + 1j * x[:, k:]


def set_gram_block_rows(monkeypatch, rows, n_fns):
    """Make `chi_gram_blocks` draw `rows` rows per block over n_fns functions."""
    monkeypatch.setattr(ito_sampler, "GRAM_BLOCK", rows * max(1, 2 * n_fns))


SPANS = Path(__file__).resolve().parents[1] / "benchmark" / "spans.py"


def traced_pairs():
    """The (module, name) pairs that the benchmark tracer wraps: `TRACED` of
    benchmark/spans.py, loaded from its file."""
    spec = importlib.util.spec_from_file_location("benchmark_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    # dataclasses resolves a class's module through sys.modules
    sys.modules[spec.name] = spans
    try:
        spec.loader.exec_module(spans)
    finally:
        del sys.modules[spec.name]
    return spans.TRACED


# pytest tries to collect the imported TestFunction dataclass as a test class;
# it is library code, not a test.
from cohlim.mode_space import TestFunction as _TF  # noqa: E402

_TF.__test__ = False
