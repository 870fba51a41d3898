"""Experiment orchestration.

Every experiment is named, seeded and reproducible: deterministic paths give
bit-identical result digests on rerun, Monte Carlo paths reproduce within
their stated tolerances.  JSON carries the machine-readable summary
(schema "1"), CSV carries time series and draws for downstream plotting.

Each handler `run_<name>(run)` holds only its physics and returns the record's
`values`; the `Run` supplies its inputs and collects its assertions and outputs.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import time
from functools import cache, cached_property
from pathlib import Path
from typing import NamedTuple

import numpy as np

from cohlim import config as cfgmod
from cohlim.circle_measure import (
    admissible,
    check_mu2,
    circle_angles,
    circle_average,
    fourier_moment,
    log_phase_product,
)
from cohlim.config import ConfigError
from cohlim.dynamics import sigma_t, uniformization_curve
from cohlim.float_text import repr_chars
from cohlim.functionals import (
    DIVERGENCE_FLOOR,
    MAX_J0_ARGUMENT,
    MIN_FIT_POINTS,
    CoherentModeSet,
    bessel_j0,
    cell_amplitudes,
    divergence_diagnostic,
    fock_functional,
    mode_amplitudes,
    n_mode_functional,
    phase_averaged_functional,
    rarefied_finite_volume_phase,
    rarefied_functional,
    rarefied_mode_count,
    sigma_mu_sq,
    variances,
)
from cohlim.gns_reps import rep_expectation_averaged, rep_expectation_n_mode
from cohlim.ito_sampler import random_functional, sample_chi_gram
from cohlim.mode_space import battery_gram
from cohlim.moments import MAX_PAIRING_ORDER, MIN_ORACLE_SAMPLES, mc_oracle, quasifree_moment
from cohlim.open_system import envelopes

SCHEMA_VERSION = "1"
# Floats per block of `Run.write_csv` rows, in whole samples (rows, without
# labels), at least one: 256 samples of the chi benchmark's 4 functions x 4
# columns, every row of a 1001-time dynamics table.
CSV_CELLS = 4096
# The s-grid of `clt`, in units of 1/sigma_mu(f): 31 points from 0 to 6,
# where the limit's e^{-s^2 sigma^2 / 2} has fallen to e^{-18}.
CLT_S = np.linspace(0.0, 6.0, 31)


def _json_default(o):
    """Coerce numpy scalars (and complex) for json.dump."""
    if isinstance(o, (np.bool_, np.integer, np.floating)):
        return o.item()
    if isinstance(o, complex):
        return {"re": o.real, "im": o.imag}
    if isinstance(o, np.ndarray):
        return o.tolist()
    raise TypeError(f"not JSON serializable: {type(o)}")


def usable_cpus() -> int:
    """The CPUs this process may run on (its affinity mask), or 1 where
    that is unknown."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return 1


def environment() -> dict:
    """The interpreter, numpy and BLAS a run used, the CPU count and the
    usable CPUs; cheap lookups, so it costs no measurable time."""
    blas = getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
    return {
        "python": "%d.%d.%d" % sys.version_info[:3],
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "cpu_count": os.cpu_count(),
        "usable_cpus": usable_cpus(),
    }


def _sample_chars(start, stop):
    """(chars, keep) of the sample numbers start..stop-1 in decimal, as
    (digit place, sample) matrices: digits right-aligned, leading zeros
    not kept."""
    v = np.arange(start, stop)
    places = 10 ** np.arange(len(str(stop - 1)) - 1, -1, -1)[:, None]
    keep = v >= places
    keep[-1] = True
    return (v // places % 10 + 48).astype(np.uint8), keep


def _label_chars(labels, encoding, errors):
    """(chars, keep) of each label's cell as csv.writer quotes it, encoded
    as the output file is, as (byte, label) matrices.  A NUL byte is kept
    like any other: csv.writer writes it unchanged."""
    cells = []
    for label in labels:
        buf = io.StringIO()
        csv.writer(buf).writerow([label, ""])
        cells.append(buf.getvalue()[: -len(",\r\n")].encode(encoding, errors))
    lengths = np.array([len(cell) for cell in cells])
    chars = np.zeros((lengths.max(), len(cells)), dtype=np.uint8)
    for j, cell in enumerate(cells):
        chars[: len(cell), j] = np.frombuffer(cell, dtype=np.uint8)
    return chars, np.arange(len(chars))[:, None] < lengths


def _table_rows(labels, columns, numbered, start, stop):
    """The bytes of the `Run.write_csv` rows of samples start..stop, with
    the label cells `labels` of `_label_chars` (or None).  Each field
    (sample number, label, a float of `repr_chars`, an empty cell,
    separators, line end) fills some positions of one uint8 matrix, position
    by sample by label, with a mask of the bytes to keep, and is broadcast
    over the samples or labels it does not vary with; the matrix is read in
    row order."""
    floats = [col[start:stop] for col in columns if col is not None]
    b, c = floats[0].shape
    chars, keep = repr_chars(np.concatenate([col.ravel() for col in floats]))
    chars, keep = chars.T.reshape(-1, len(floats), b, c), keep.T.reshape(-1, len(floats), b, c)
    cells = []
    if numbered:
        index, index_keep = _sample_chars(start, stop)
        cells.append((index[:, :, None], index_keep[:, :, None]))
    if labels is not None:
        cells.append((labels[0][:, None], labels[1][:, None]))
    float_cells = iter([(chars[:, j], keep[:, j]) for j in range(len(floats))])
    empty = np.empty((0, 1, 1), dtype=np.uint8), True
    cells += [empty if col is None else next(float_cells) for col in columns]
    comma = np.full((1, 1, 1), 44, dtype=np.uint8), True
    fields = [field for cell in cells for field in (comma, cell)][1:]
    fields.append((np.array([13, 10], dtype=np.uint8)[:, None, None], True))  # \r\n
    width = sum(len(f) for f, _ in fields)
    text = np.empty((width, b, c), dtype=np.uint8)
    mask = np.empty((width, b, c), dtype=bool)
    at = 0
    for f, k in fields:
        text[at : at + len(f)], mask[at : at + len(f)] = f, k
        at += len(f)
    return text.reshape(width, -1).T[mask.reshape(width, -1).T]


class Run:
    """One experiment invocation: the config, its inputs built on first use,
    the assertions recorded so far and the output files written so far."""

    def __init__(self, cfg: dict, out_dir):
        self.cfg = cfg
        self.out_dir = Path(out_dir)  # made by the first write
        self.assertions = []
        self.outputs = []
        self._rng = None
        self.rng_provenance = None

    def need(self, key):
        if key not in self.cfg:
            raise ConfigError(f"/{key}", f"required by the {self.cfg['experiment']} experiment")
        return self.cfg[key]

    def read(self, key, kind=float, default=None, each=False, **bounds):
        """cfg[key], or `default` when absent (required when None), read
        strictly as a `kind` number, or as a list of them if `each`, within
        the `bounds` of `config.number` (and `min_count` of `config.numbers`)."""
        value = self.need(key) if default is None else self.cfg.get(key, default)
        with cfgmod.reading(f"/{key}"):
            return (cfgmod.numbers if each else cfgmod.number)(value, kind, **bounds)

    def tol(self, name, default=None):
        """tolerances[name], a number > 0, or `default` when it is absent."""
        tols = self.cfg.get("tolerances", {})
        with cfgmod.reading(f"/tolerances/{name}"):
            return cfgmod.number(tols[name], above=0.0) if name in tols else default

    def samples(self, default, width, minimum=2):
        """The sample count; the default minimum is the two draws var(ddof=1)
        needs.  More than MAX_CELLS drawn entries, `width` per sample, are
        refused before any function is built.  The cap bounds the draws and
        the (samples, K) table that `chi` holds for its CSV; `moments`
        reduces its draws block by block and holds one product per sample."""
        m = self.read("samples", int, default, least=minimum)
        cfgmod.cap("/samples", m * width, cfgmod.MAX_CELLS, f"{m} samples x {width} entries")
        return m

    @cached_property
    def variant(self):
        """The kind or rep of a run whose experiment declares its reads per
        value of one key (`Variants`), else None; a value that declares no
        reads exits 2 at that key."""
        reads = EXPERIMENTS[self.cfg["experiment"]][1]
        if not isinstance(reads, Variants):
            return None
        value = self.cfg.get(reads.key, reads.default)
        if not (isinstance(value, str) and value in reads.keys):
            raise ConfigError(f"/{reads.key}", f"unknown {reads.key} {value!r}; use {' | '.join(reads.keys)}")
        return value

    @cached_property
    def reads(self):
        """The keys the run's experiment reads, with its kind or rep."""
        reads = EXPERIMENTS[self.cfg["experiment"]][1]
        return reads if self.variant is None else (reads.key, *reads.keys[self.variant])

    def refuse_unread(self):
        """Exit 2 at the first config key, then the first `tolerances` name,
        that the run does not read, and so would silently ignore; then at
        the first tolerance that is not a number > 0.  Every config may hold
        `experiment` and `tolerances` themselves."""
        name = self.cfg["experiment"]
        if self.variant is not None:
            name += f" {self.reads[0]} {self.variant}"  # the first key read is the kind or rep
        tols = self.cfg.get("tolerances", {})
        for key in [*self.cfg, *(f"tolerances/{t}" for t in tols)]:
            if key not in {"experiment", "tolerances", *self.reads}:
                raise ConfigError(f"/{key}", f"not read by {name}, which reads {', '.join(self.reads)}")
        for t in tols:
            self.tol(t)

    def rng(self):
        """The run's seeded generator, which draws chi from its exact Gram
        law ("gram" in result.json, with the seed and bit generator)."""
        if self._rng is None:
            with cfgmod.reading("/seed"):
                self._rng = np.random.default_rng(self.read("seed", int))
            self.rng_provenance = {
                "seed": self.cfg["seed"],
                "bit_generator": type(self._rng.bit_generator).__name__,
                "sampler": "gram",
            }
        return self._rng

    @cached_property
    def grid(self):
        return cfgmod.build_grid(self.need("grid"))

    @cached_property
    def density(self):
        return cfgmod.build_density(self.need("density"), self.grid)

    @cached_property
    def measure(self):
        """The phase measure; refused unless mu_hat(1) = 0, else the mode limit diverges."""
        mu = cfgmod.build_measure(self.need("measure"))
        if not admissible(mu):
            raise ConfigError(
                "/measure", f"mu_hat_1 nonzero ({fourier_moment(mu, 1):.3g}): limit diverges"
            )
        return mu

    @cached_property
    def mu2(self):
        """mu_hat(2): the mu2 key, else the measure's; a mu2 key that
        disagrees with a measure given beside it is refused."""
        if "mu2" in self.cfg:
            z = self.read("mu2", complex)
            with cfgmod.reading("/mu2"):
                check_mu2(z)
            m2 = fourier_moment(self.measure, 2) if "measure" in self.cfg else z
            if abs(z - m2) > 1e-12:
                raise ConfigError("/mu2", f"mu2 = {z} disagrees with mu_hat(2) = {m2} of /measure")
            return z
        if "measure" in self.cfg:
            return fourier_moment(self.measure, 2)
        return 0.0 + 0.0j

    @cached_property
    def entries(self):
        """The config's `functions`, not yet built: a non-empty list."""
        fns = self.cfg.get("functions", [])
        if not (isinstance(fns, list) and fns):
            raise ConfigError("/functions", f"expected a non-empty list, got {fns!r}")
        return fns

    def build(self, entries):
        """The test functions of `entries`, the first of the config's
        `functions`, built once their cells are within the cap: the
        samplers hold a cells x functions matrix."""
        n = self.grid.n_cells
        cfgmod.cap("/functions", len(entries) * n, cfgmod.MAX_CELLS, f"{len(entries)} functions x {n} cells")
        return [
            cfgmod.build_test_function(obj, self.grid, f"/functions/{i}")
            for i, obj in enumerate(entries)
        ]

    @cached_property
    def battery(self):
        return self.build(self.entries)

    @cached_property
    def function(self):
        """The one function of an experiment that reads one; a second exits 2
        at /functions/1 before any function is built."""
        if len(self.entries) > 1:
            raise ConfigError("/functions/1", f"{self.cfg['experiment']} reads one function, /functions/0")
        return self.battery[0]

    @cached_property
    def labels(self):
        """The name of each battery function in result.json and in every CSV:
        its label, or f<j> when that is empty.  Two equal keys are refused,
        as the later function's values would replace the earlier one's."""
        keys = {}
        for j, f in enumerate(self.battery):
            key = f.label or f"f{j}"
            if key in keys:
                raise ConfigError(
                    f"/functions/{j}",
                    f"label {key!r} repeats that of /functions/{keys[key]}; give each function its own",
                )
            keys[key] = j
        return list(keys)

    @cached_property
    def dispersion(self):
        return cfgmod.build_dispersion(self.cfg.get("dispersion", {"form": "photon"}), self.grid)

    @cached_property
    def modes(self):
        """The coherent modes; each momentum k has one component per grid axis.
        Only `functional` reads a phase theta: `gns-check` averages the
        phases, so there a theta exits 2 at its key."""
        d, ks, rhos, thetas = self.grid.d, [], [], []
        keys = ("k", "rho", "theta") if self.cfg["experiment"] == "functional" else ("k", "rho")
        with cfgmod.reading("/modes"):
            for i, m in enumerate(self.cfg.get("modes", [])):
                cfgmod.only_keys(m, f"/modes/{i}", keys)
                k = m["k"] if isinstance(m["k"], list) else [m["k"]]
                with cfgmod.reading(f"/modes/{i}/k"):
                    if len(k) != d:
                        raise ValueError(f"expected {d} momentum components, got {m['k']!r}")
                    ks.append(cfgmod.numbers(k))
                rhos.append(cfgmod.number(m["rho"]))
                thetas.append(cfgmod.number(m.get("theta", 0.0)))
            return CoherentModeSet(np.reshape(ks, (len(ks), d)), rhos, thetas)

    @cached_property
    def rarefied(self):
        """(alpha, sigma, a, b) of the zero-density limit, which is taken in d = 1."""
        if self.grid.d != 1:
            raise ConfigError("/grid/d", f"the rarefied limit is taken in d = 1, got {self.grid.d}")
        alpha = cfgmod.closed_form(self.need("alpha"), "/alpha")
        sigma, a, b = self.read("sigma", above=0.0), self.read("a"), self.read("b")
        if not a < b:
            raise ConfigError("/b", f"must exceed a = {a}, got {b}")
        return alpha, sigma, a, b

    def check(self, name, value, tol, passed):
        self.assertions.append({"name": name, "value": value, "tol": tol, "pass": passed})

    def write_csv(self, name, header, columns, labels=None, numbered=False):
        """The CSV csv.writer writes for the rows ([sample,] [label,] x_1..x_n),
        byte for byte, but without the csv module per row.  Each column is a
        float array, one value per row; with `labels`, of shape (samples,
        len(labels)), and the rows run sample-major over the labels, led by
        the sample number if `numbered`.  A None column is an empty cell in
        every row.  Each label is quoted once by csv.writer; a float's repr,
        which is what csv.writer writes, never needs quoting, and comes from
        `repr_chars`.  The rows go out in blocks of about CSV_CELLS floats,
        so the table never sits in memory as text; a failed write removes
        the output, so no truncated table is left."""
        self.out_dir.mkdir(parents=True, exist_ok=True)
        path = self.out_dir / name
        c = 1 if labels is None else len(labels)
        columns = [None if col is None else np.asarray(col, dtype=float).reshape(-1, c) for col in columns]
        n = next(len(col) for col in columns if col is not None)
        block = max(1, CSV_CELLS // (c * sum(col is not None for col in columns)))
        try:
            with open(path, "w", newline="") as fh:
                csv.writer(fh).writerow(header)
                fh.flush()  # the rows go to the byte buffer beneath
                cells = None if labels is None else _label_chars(labels, fh.encoding, fh.errors)
                for start in range(0, n, block):
                    fh.buffer.write(_table_rows(cells, columns, numbered, start, min(start + block, n)))
        except BaseException:
            path.unlink(missing_ok=True)
            raise
        self.outputs.append(path)

    def write_json(self, name, obj):
        self.out_dir.mkdir(parents=True, exist_ok=True)
        path = self.out_dir / name
        with open(path, "w") as fh:
            json.dump(obj, fh, indent=2, default=_json_default)
        self.outputs.append(path)


# -- experiment handlers -----------------------------------------------------


def run_functional(run):
    value = {
        "fock": fock_functional,
        "nmode": lambda f: n_mode_functional(f, run.modes),
        "averaged": lambda f: phase_averaged_functional(f, run.density, run.mu2),
        "rarefied": lambda f: rarefied_functional(f, *run.rarefied),
    }[run.variant]
    rows, values = [], {}
    for f, label in zip(run.battery, run.labels):
        fv = value(f)
        rows.append((fv.value.real, fv.value.imag, fv.modulus, fv.fock_exponent, fv.sigma_sq, fv.phase))
        values[label] = fv.value
        # a state's value on a Weyl unitary has modulus at most 1
        tol = 1.0 + 1e-12
        run.check(f"modulus[{label}]", fv.modulus, tol, fv.modulus <= tol)
    # one sample over the labels; a kind sets sigma_sq (phase) for every
    # function or for none, and none is an empty column
    run.write_csv(
        "functional.csv",
        ["label", "re", "im", "modulus", "fock_exponent", "sigma_sq", "phase"],
        [None if col[0] is None else [col] for col in zip(*rows)],
        labels=run.labels,
    )
    return values


def run_clt(run):
    """The exact finite-N law of sum_j X_j, X_j = Re e^{-i theta_j} z_j over
    the `cell_amplitudes`: its characteristic function phi_N on CLT_S / sigma
    (`log_phase_product`), the limit's Gaussian G and G's Edgeworth form in
    the cumulants kappa3, kappa4 of the X_j.  It asserts
    max |phi_N - Edgeworth| <= tolerances.edgeworth * max |phi_N - G|."""
    mu, f = run.measure, run.function
    sigma = math.sqrt(sigma_mu_sq(f, run.density, run.mu2))
    if sigma == 0:
        # the limit law N(0, 0) is a point mass, and sigma sets the s-grid
        raise ConfigError("/functions/0", "sigma_mu(f) = 0: the limit law is degenerate")
    z = cell_amplitudes(f, run.density)
    s = CLT_S / sigma
    angles = circle_angles(mu, s[-1] * float(np.max(np.abs(z))))
    what = f"{len(s)} points x {len(z)} cells x {angles} angles"
    cfgmod.cap("/grid", len(s) * len(z) * angles, cfgmod.MAX_CELLS, what)
    phi = np.exp(log_phase_product(mu, z, s))

    def powers(theta):
        x = np.real(np.exp(-1j * theta) * z[:, None])
        return np.stack([x * x, x * x * x, x * x * x * x])  # products, as ** calls pow

    m2, m3, m4 = circle_average(mu, powers)
    kappa3, kappa4 = float(np.sum(m3)), float(np.sum(m4 - 3.0 * m2 ** 2))
    gauss = np.exp(-0.5 * CLT_S ** 2)
    edgeworth = gauss * (1.0 + (1j * s) ** 3 * kappa3 / 6.0 + s ** 4 * kappa4 / 24.0)
    run.write_csv(
        "clt.csv",
        ["s", "phi_re", "phi_im", "gaussian", "edgeworth_re", "edgeworth_im"],
        [s, phi.real, phi.imag, gauss, edgeworth.real, edgeworth.imag],
    )
    gap = float(np.max(np.abs(phi - gauss)))
    residual = float(np.max(np.abs(phi - edgeworth)))
    tol = run.tol("edgeworth", 0.25) * gap
    run.check("edgeworth_residual", residual, tol, residual <= tol)
    return {"sigma": sigma, "kappa3": kappa3, "kappa4": kappa4, "gaussian_gap": gap, "edgeworth_residual": residual}


def run_chi(run):
    """Re chi(f) ~ N(0, sigma_mu(f)^2): the sample mean and variance of each
    function's draws are checked against that law at z standard errors."""
    m = run.samples(1000, len(run.entries))
    battery, labels = run.battery, run.labels
    chis = sample_chi_gram(battery_gram(battery, run.density), run.mu2, m, run.rng())
    vals = random_functional(battery, chis)
    run.write_csv(
        "chi_samples.csv",
        ["sample", "label", "chi_re", "chi_im", "functional_re", "functional_im"],
        [chis.real, chis.imag, vals.real, vals.imag],
        labels=labels,
        numbered=True,
    )
    z = run.tol("z", 5.0)
    values = {}
    for j, (f, label) in enumerate(zip(battery, labels)):
        mean = float(np.mean(chis[:, j].real))
        var = float(np.var(chis[:, j].real, ddof=1))
        sig2 = sigma_mu_sq(f, run.density, run.mu2)
        values[label] = {
            "mean_re_chi": mean,
            "mean_re_chi_se": math.sqrt(var / m),
            "var_re_chi": var,
            "var_re_chi_se": var * math.sqrt(2.0 / (m - 1)),
            "sigma_sq": sig2,
        }
        tol = z * math.sqrt(sig2 / m)
        run.check(f"mean_re_chi[{label}]", abs(mean), tol, abs(mean) <= tol)
        tol = z * sig2 * math.sqrt(2.0 / (m - 1))
        run.check(f"var_re_chi[{label}]", abs(var - sig2), tol, abs(var - sig2) <= tol)
    return values


def run_moments(run):
    p, q = cfgmod.parse_orders(run.cfg.get("pq", "1,1"))
    cfgmod.cap("/pq", p + q, MAX_PAIRING_ORDER, f"moment orders p+q = {p + q}")
    if p + q > len(run.entries):
        raise ConfigError("/functions", f"need at least p+q={p+q} functions")
    m = run.samples(10_000, p + q, MIN_ORACLE_SAMPLES)
    gram = battery_gram(run.build(run.entries[: p + q]), run.density)
    closed = quasifree_moment(gram, p, run.mu2)
    est = mc_oracle(gram, p, run.mu2, m, run.rng())
    z = est.z_score(closed)
    values = {
        "p": p,
        "q": q,
        "closed_form": closed,
        "mc_value": est.value,
        "mc_stderr": est.stderr,
        "z_score": z,
    }
    tol = run.tol("z", 5.0)
    run.check("z_score", z, tol, z < tol)
    run.write_json("moments.json", values)
    return values


def run_gns_check(run):
    rep = run.variant
    checks = []
    if rep == "averaged":
        rho, mu2 = run.density, run.mu2
        for f, label in zip(run.battery, run.labels):
            lhs = rep_expectation_averaged(f, rho, mu2).value
            rhs = phase_averaged_functional(f, rho, mu2).value
            checks.append((label, lhs, rhs))
    else:
        modes = run.modes
        if not len(modes.rho):
            raise ConfigError("/modes", "rep nmode needs at least one mode")
        amplitudes = [np.abs(mode_amplitudes(f, modes)) for f in run.battery]
        # one J0 costs about |z|^3: refuse a mode too strong before any mode is averaged
        for i, z in enumerate(np.max(amplitudes, axis=0)):
            cfgmod.cap(f"/modes/{i}/rho", z, MAX_J0_ARGUMENT, f"amplitudes up to |z| = {z:.6g}")
        for f, label, zs in zip(run.battery, run.labels, amplitudes):
            lhs = rep_expectation_n_mode(f, modes).value
            rhs = fock_functional(f).value * np.prod([bessel_j0(z) for z in zs])
            checks.append((label, lhs, rhs))
    tol = run.tol("residual", 1e-9)
    values = {"rep": rep, "checks": []}
    for label, lhs, rhs in checks:
        residual = abs(lhs - rhs)
        values["checks"].append(
            {"label": label, "lhs": lhs, "rhs": rhs, "residual": residual}
        )
        run.check(f"residual[{label}]", residual, tol, residual < tol)
    run.write_json("gns_check.json", values)
    return values


def run_dynamics(run):
    ts = cfgmod.parse_t_grid(run.cfg.get("t_grid", "0:100:1"))
    # sigma_t and the metric hold a few (T, K) tables
    t, k = len(ts), len(run.entries)
    cfgmod.cap("/t_grid", t * k, cfgmod.MAX_CELLS, f"{t} times x {k} functions")
    battery, rho, mu2, eps = run.battery, run.density, run.mu2, run.dispersion
    unif = variances(battery, rho, 0.0)
    sig = sigma_t(battery, rho, mu2, eps, ts, unif)
    metric = uniformization_curve(battery, unif, sig)
    run.write_csv("dynamics.csv", ["t", "sigma_t", "metric"], [ts, sig[:, 0], metric])
    final = float(metric[-1])
    tol = run.tol("metric_final")
    if tol is not None:
        run.check("final_metric", final, tol, final < tol)
    return {"final_t": float(ts[-1]), "final_metric": final}


def run_decohere(run):
    """Exact dephasing of one density-matrix element: its Gaussian and Gamma
    envelopes over the t-grid, in closed form, under the uniform phase
    measure (mu_hat(2) = 0).  It asserts nothing itself: the Gaussian
    envelope is the characteristic function of the law of Re chi(g), which
    `chi` asserts."""
    ts = cfgmod.parse_t_grid(run.cfg.get("t_grid", "0:2:0.1"))
    g = cfgmod.build_test_function(run.need("form_factor"), run.grid, "/form_factor")
    couplings = run.read("couplings", each=True, min_count=2)
    element = run.read("element", int, [0, 1], each=True)
    n = len(couplings)
    if not (len(element) == 2 and all(0 <= i < n for i in element) and element[0] != element[1]):
        raise ConfigError("/element", f"expected two distinct levels in 0..{n - 1}, got {element}")
    k, l = element
    rate = sigma_mu_sq(g, run.density, 0.0)
    gaussian, decay = envelopes(couplings[k] - couplings[l], g, run.dispersion, ts, rate)
    run.write_csv("decohere.csv", ["t", "envelope_gaussian", "envelope_gamma"], [ts, gaussian, decay])
    return {"element": [k, l], "gaussian_rate": rate, "rows": len(ts)}


def run_diverge(run):
    d, R = run.read("d", int, 1, least=1, most=3), run.read("R", float, 4.0, above=0.0)
    n_list = run.read(
        "n_list", int, [64, 128, 256, 512, 1024], each=True, min_count=MIN_FIT_POINTS, least=2
    )
    cells = max(n_list) ** d
    cfgmod.cap("/n_list", cells, cfgmod.MAX_CELLS, f"{cells} grid cells")
    fn, density = run.need("function"), run.need("density")
    grids = (cfgmod.build_grid({"d": d, "R": R, "N": n}) for n in sorted(n_list))
    fit = divergence_diagnostic(
        (cfgmod.build_test_function(fn, grid, "/function"), cfgmod.build_density(density, grid))
        for grid in grids
    )
    values = {
        "slope": fit.slope if fit.conclusive else None,
        "expected": d / 2.0,
        "conclusive": fit.conclusive,
        "magnitudes": list(map(float, fit.magnitudes)),
    }
    # recorded on every run, so that a fit with no slope fails: the value is the
    # MIN_FIT_POINTS-th largest |S(N)|, which reaches the floor iff the fit is conclusive
    fitted = float(np.sort(fit.magnitudes)[-MIN_FIT_POINTS])
    run.check("conclusive", fitted, DIVERGENCE_FLOOR, fit.conclusive)
    if fit.conclusive:
        tol = run.tol("slope", 0.05)
        run.check("slope", fit.slope, tol, abs(fit.slope - d / 2.0) <= tol)
    run.write_json("diverge.json", values)
    return values


def run_rarefied(run):
    L_values = run.read("L_values", float, [100.0, 1000.0, 10000.0], each=True, above=0.0)
    _, sigma, a, b = run.rarefied
    for i, L in enumerate(L_values):
        n = rarefied_mode_count(sigma, a, b, L)
        cfgmod.cap(f"/L_values/{i}", n, cfgmod.MAX_CELLS, f"{n} modes at L = {L:g}")
    gfun = run.function
    limit = rarefied_functional(gfun, *run.rarefied)
    phases = np.array([rarefied_finite_volume_phase(gfun, *run.rarefied, L) for L in L_values])
    run.write_csv("rarefied.csv", ["L", "phase", "abs_error"], [L_values, phases, np.abs(phases - limit.phase)])
    return {"limit_phase": limit.phase, "limit_value": limit.value}


# Flags that override the config key of the same name ("--t-grid" sets "t_grid").
FLAGS = {
    "seed": (int, "override the config seed"),
    "samples": (int, "override the sample count"),
    "pq": (str, "p,q orders, e.g. 2,2"),
    "rep": (str, "nmode | averaged"),
    "t_grid": (str, "start:stop:step"),
}


class Variants(NamedTuple):
    """The reads of an experiment that differ with the value of one config
    key: that key, its default, and the keys read with each value."""

    key: str
    default: str
    keys: dict


BATTERY = ("grid", "functions")
PHASES = ("density", "mu2", "measure")  # Run.mu2 reads measure and mu2
RAREFIED = ("alpha", "sigma", "a", "b")

# The one list of experiments: each subcommand's handler and the config keys
# it reads, a tolerance as "tolerances/<name>", with `experiment` and
# `tolerances` themselves beside them in every config.  Its flags are the
# keys of FLAGS among them; a run refuses any other key (Run.refuse_unread).
EXPERIMENTS = {
    "functional": (
        run_functional,
        Variants(
            "kind",
            "fock",
            {
                "fock": BATTERY,
                "nmode": (*BATTERY, "modes"),
                "averaged": (*BATTERY, *PHASES),
                "rarefied": (*BATTERY, *RAREFIED),
            },
        ),
    ),
    "clt": (run_clt, (*BATTERY, *PHASES, "tolerances/edgeworth")),
    "chi": (run_chi, ("seed", "samples", *BATTERY, *PHASES, "tolerances/z")),
    "moments": (run_moments, ("seed", "samples", "pq", *BATTERY, *PHASES, "tolerances/z")),
    "gns-check": (
        run_gns_check,
        Variants(
            "rep",
            "averaged",
            {
                "averaged": (*BATTERY, *PHASES, "tolerances/residual"),
                "nmode": (*BATTERY, "modes", "tolerances/residual"),
            },
        ),
    ),
    "dynamics": (run_dynamics, ("t_grid", *BATTERY, *PHASES, "dispersion", "tolerances/metric_final")),
    "decohere": (run_decohere, ("t_grid", "grid", "density", "dispersion", "form_factor", "couplings", "element")),
    "diverge": (run_diverge, ("d", "R", "n_list", "function", "density", "tolerances/slope")),
    "rarefied": (run_rarefied, (*BATTERY, *RAREFIED, "L_values")),
}


def experiment_keys(name) -> set:
    """Every key the experiment reads, of any kind or rep."""
    reads = EXPERIMENTS[name][1]
    if isinstance(reads, Variants):
        return {reads.key, *(key for keys in reads.keys.values() for key in keys)}
    return set(reads)


def run_experiment(cfg: dict, out_dir) -> dict:
    """Run the config's experiment into `out_dir` and write its result.json."""
    started = time.perf_counter()
    run = Run(cfg, out_dir)
    handler, _ = EXPERIMENTS[cfg["experiment"]]
    run.refuse_unread()
    values = handler(run)
    record = {
        "schema": SCHEMA_VERSION,
        "experiment": cfg["experiment"],
        "inputs_digest": cfgmod.config_digest(cfg),
        "seed": cfg.get("seed"),
        "values": values,
        "tolerances": cfg.get("tolerances", {}),
        "assertions": run.assertions,
        "pass": all(a["pass"] for a in run.assertions),
        "runtime_s": round(time.perf_counter() - started, 3),
        "outputs": [str(p) for p in run.outputs],
        "environment": environment(),
    }
    if run.rng_provenance is not None:
        record["rng"] = run.rng_provenance
    run.write_json("result.json", record)
    return record


@cache
def parser() -> argparse.ArgumentParser:
    """The `cohlim` parser, built once per process: one subcommand per
    experiment, offering the override flags of the keys it reads."""
    top = argparse.ArgumentParser(
        prog="cohlim",
        description="Seeded, reproducible experiments on infinite-volume coherent states.",
    )
    sub = top.add_subparsers(dest="command", required=True)
    for name in sorted(EXPERIMENTS):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", default="out")
        keys = experiment_keys(name)
        for key, (kind, help_text) in FLAGS.items():
            if key in keys:
                p.add_argument("--" + key.replace("_", "-"), type=kind, help=help_text)
    return top


def main(argv=None) -> int:
    args = parser().parse_args(argv)
    try:
        cfg = cfgmod.load_config(args.config)
        if cfg.get("experiment") != args.command:
            raise ConfigError(
                "/experiment", f"config is for {cfg.get('experiment')!r}, invoked as {args.command!r}"
            )
        cfg.update({key: v for key, v in vars(args).items() if key in FLAGS and v is not None})
        record = run_experiment(cfg, args.out)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    status = "PASS" if record["pass"] else "FAIL"
    print(f"{record['experiment']}: {status} ({record['runtime_s']} s)")
    for a in record["assertions"]:
        mark = "ok" if a["pass"] else "FAIL"
        print(f"  {a['name']}: {a['value']:.6g} (tol {a['tol']:.3g}) {mark}")
    return 0 if record["pass"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
