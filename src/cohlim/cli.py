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
from functools import cached_property
from pathlib import Path

import numpy as np

from cohlim import config as cfgmod
from cohlim.circle_measure import admissible, check_mu2, fourier_moment
from cohlim.config import ConfigError
from cohlim.dynamics import sigma_t, uniformization_curve
from cohlim.functionals import (
    DIVERGENCE_FLOOR,
    MIN_FIT_POINTS,
    CoherentModeSet,
    bessel_j0,
    divergence_diagnostic,
    fock_functional,
    n_mode_functional,
    phase_averaged_functional,
    rarefied_finite_volume_phase,
    rarefied_functional,
    sigma_mu_sq,
)
from cohlim.gns_reps import rep_expectation_averaged, rep_expectation_n_mode
from cohlim.ito_sampler import build_coefficients, clt_sample, ks_distance, sample_chi_gram
from cohlim.moments import MAX_PAIRING_ORDER, MIN_ORACLE_SAMPLES, build_q, mc_oracle, wick_moment
from cohlim.open_system import envelopes

SCHEMA_VERSION = "1"
CSV_BLOCK = 1024  # samples per block of `Run.write_draws` rows


def _json_default(o):
    """Coerce numpy scalars (and complex) for json.dump."""
    if isinstance(o, (np.bool_, np.integer, np.floating)):
        return o.item()
    if isinstance(o, complex):
        return {"re": o.real, "im": o.imag}
    if isinstance(o, np.ndarray):
        return o.tolist()
    raise TypeError(f"not JSON serializable: {type(o)}")


def environment() -> dict:
    """The interpreter, numpy and BLAS a run used, and the CPU count; only
    attribute lookups, so it costs no measurable time."""
    blas = getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
    return {
        "python": "%d.%d.%d" % sys.version_info[:3],
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "cpu_count": os.cpu_count(),
    }


def _cnum(z):
    z = complex(z)
    return {"re": z.real, "im": z.imag}


class Run:
    """One experiment invocation: the config, its inputs built on first use,
    the assertions recorded so far and the output files written so far."""

    def __init__(self, cfg: dict, out_dir):
        self.cfg = cfg
        self.out_dir = Path(out_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)
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
        """tolerances[name], or `default` when it is absent."""
        tols = self.cfg.get("tolerances", {})
        with cfgmod.reading(f"/tolerances/{name}"):
            return cfgmod.number(tols[name]) if name in tols else default

    def samples(self, default, minimum=2):
        """The sample count; the default minimum is the two draws var(ddof=1) needs."""
        return self.read("samples", int, default, least=minimum)

    def closed_form(self, key):
        return cfgmod._closed_form(self.need(key), f"/{key}")

    def rng(self, sampler):
        """The run's seeded generator; `sampler` names what draws from it
        ("gram": chi from its exact Gram law, "phases": i.i.d. mode phases)
        and enters result.json with the seed and bit generator."""
        if self._rng is None:
            with cfgmod.reading("/seed"):
                self._rng = np.random.default_rng(self.read("seed", int))
            self.rng_provenance = {
                "seed": self.cfg["seed"],
                "bit_generator": type(self._rng.bit_generator).__name__,
                "sampler": sampler,
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
        return cfgmod.build_measure(self.need("measure"))

    def admissible_measure(self):
        """The measure; refused unless mu_hat(1) = 0, else the mode limit diverges."""
        mu = self.measure
        if not admissible(mu):
            raise ConfigError(
                "/measure", f"mu_hat_1 nonzero ({fourier_moment(mu, 1):.3g}): limit diverges"
            )
        return mu

    @cached_property
    def mu2(self):
        if "mu2" in self.cfg:
            z = self.read("mu2", complex)
            with cfgmod.reading("/mu2"):
                check_mu2(z)
            return z
        if "measure" in self.cfg:
            return fourier_moment(self.measure, 2)
        return 0.0 + 0.0j

    @cached_property
    def battery(self):
        fns = self.cfg.get("functions", [])
        if not (isinstance(fns, list) and fns):
            raise ConfigError("/functions", f"expected a non-empty list, got {fns!r}")
        # the samplers hold a cells x functions matrix; refuse it before building any function
        if len(fns) * self.grid.n_cells > cfgmod.MAX_CELLS:
            raise ConfigError(
                "/functions",
                f"{len(fns)} functions x {self.grid.n_cells} cells exceed the cap of {cfgmod.MAX_CELLS}",
            )
        return [
            cfgmod.build_test_function(obj, self.grid, f"/functions/{i}")
            for i, obj in enumerate(fns)
        ]

    @cached_property
    def labels(self):
        """The key of each battery function in result.json: its label, or f<j>
        when that is empty.  Two equal keys are refused, as the later
        function's values would replace the earlier one's."""
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
        """The coherent modes; each momentum k has one component per grid axis."""
        d, modes = self.grid.d, []
        with cfgmod.reading("/modes"):
            for i, m in enumerate(self.cfg.get("modes", [])):
                k = m["k"] if isinstance(m["k"], list) else [m["k"]]
                with cfgmod.reading(f"/modes/{i}/k"):
                    if len(k) != d:
                        raise ValueError(f"expected {d} momentum components, got {m['k']!r}")
                    k = cfgmod.numbers(k)
                modes.append((k, cfgmod.number(m["rho"]), cfgmod.number(m.get("theta", 0.0))))
            return CoherentModeSet(modes)

    @cached_property
    def rarefied(self):
        """(alpha, sigma, a, b) of the zero-density limit."""
        alpha = self.closed_form("alpha")
        sigma, a, b = self.read("sigma", above=0.0), self.read("a"), self.read("b")
        if not a < b:
            raise ConfigError("/b", f"must exceed a = {a}, got {b}")
        return alpha, sigma, a, b

    def check(self, name, value, tol, passed):
        self.assertions.append({"name": name, "value": value, "tol": tol, "pass": passed})

    def write_csv(self, name, header, rows):
        path = self.out_dir / name
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
        self.outputs.append(path)

    def write_draws(self, name, header, labels, columns):
        """The CSV `write_csv` would write for the rows (sample, label, x_1..x_c),
        sample-major over `labels`, with x_i from `columns[i]`, a float array of
        shape (samples, len(labels)); byte for byte, but without the csv module
        per field.  Each label is quoted once by csv.writer; a float's repr,
        which is what csv.writer writes, never needs quoting.  The rows go out
        in blocks of CSV_BLOCK samples, so the table never sits in memory."""
        cells = []
        for label in labels:
            buf = io.StringIO()
            csv.writer(buf).writerow([label, ""])
            cells.append(buf.getvalue()[: -len(",\r\n")])
        line = ",".join(["{}"] * (len(columns) + 1)) + "\r\n"
        n = len(columns[0])
        path = self.out_dir / name
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerow(header)
            for start in range(0, n, CSV_BLOCK):
                stop = min(start + CSV_BLOCK, n)
                keys = [f"{i},{cell}" for i in range(start, stop) for cell in cells]
                floats = (map(repr, c[start:stop].ravel().tolist()) for c in columns)
                fh.writelines(map(line.format, keys, *floats))
        self.outputs.append(path)

    def write_json(self, name, obj):
        path = self.out_dir / name
        with open(path, "w") as fh:
            json.dump(obj, fh, indent=2, default=_json_default)
        self.outputs.append(path)


# -- experiment handlers -----------------------------------------------------


def run_functional(run):
    kind = run.cfg.get("kind", "fock")
    rows, values = [], {}
    for f, label in zip(run.battery, run.labels):
        if kind == "fock":
            fv = fock_functional(f)
        elif kind == "nmode":
            fv = n_mode_functional(f, run.modes)
        elif kind == "averaged":
            fv = phase_averaged_functional(f, run.density, run.admissible_measure())
        elif kind == "rarefied":
            fv = rarefied_functional(f, *run.rarefied)
        else:
            raise ConfigError("/kind", f"unknown functional kind {kind!r}")
        rows.append(
            [
                f.label,
                fv.value.real,
                fv.value.imag,
                fv.modulus,
                fv.fock_exponent,
                "" if fv.sigma_sq is None else fv.sigma_sq,
                "" if fv.phase is None else fv.phase,
            ]
        )
        values[label] = _cnum(fv.value)
        # a state's value on a Weyl unitary has modulus at most 1
        tol = 1.0 + 1e-12
        run.check(f"modulus[{label}]", fv.modulus, tol, fv.modulus <= tol)
    run.write_csv(
        "functional.csv",
        ["label", "re", "im", "modulus", "fock_exponent", "sigma_sq", "phase"],
        rows,
    )
    return values


def run_clt(run):
    mu = run.admissible_measure()
    f = run.battery[0]
    m = run.samples(2000)
    sigma = math.sqrt(sigma_mu_sq(f, run.density, fourier_moment(mu, 2)))
    if sigma == 0:
        # the limit law N(0, 0) is a point mass, and no KS distance to it is defined
        raise ConfigError("/functions/0", "sigma_mu(f) = 0: the limit law is degenerate")
    draws = clt_sample(f, run.density, mu, m, run.rng("phases"))
    ks = ks_distance(draws, sigma)
    tol = run.tol("ks", 1.95 / math.sqrt(m))
    run.write_csv("clt_draws.csv", ["draw"], [[x] for x in draws])
    run.check("ks_distance", ks, tol, ks < tol)
    return {"ks_distance": ks, "sigma": sigma, "samples": m}


def run_chi(run):
    """Re chi(f) ~ N(0, sigma_mu(f)^2): the sample mean and variance of each
    function's draws are checked against that law at z standard errors."""
    battery, labels = run.battery, run.labels
    m = run.samples(1000)
    coeffs = build_coefficients(run.density, run.mu2)
    chis = sample_chi_gram(battery, coeffs, m, run.rng("gram"))
    fock = np.array([fock_functional(f).value for f in battery])
    vals = fock * np.exp(1j * chis.real)
    run.write_draws(
        "chi_samples.csv",
        ["sample", "label", "chi_re", "chi_im", "functional_re", "functional_im"],
        [f.label for f in battery],
        [chis.real, chis.imag, vals.real, vals.imag],
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
    if p + q > MAX_PAIRING_ORDER:
        raise ConfigError("/pq", f"moment order p+q={p+q} is above the cap {MAX_PAIRING_ORDER}")
    battery = run.battery
    if p + q > len(battery):
        raise ConfigError("/functions", f"need at least p+q={p+q} functions")
    m = run.samples(10_000, MIN_ORACLE_SAMPLES)
    fs, gs = battery[:p], battery[p : p + q]
    closed = wick_moment(build_q(fs, gs, run.density, run.mu2))
    est = mc_oracle(fs, gs, build_coefficients(run.density, run.mu2), m, run.rng("gram"))
    z = est.z_score(closed)
    values = {
        "p": p,
        "q": q,
        "closed_form": _cnum(closed),
        "mc_value": _cnum(est.value),
        "mc_stderr": est.stderr,
        "z_score": z,
    }
    tol = run.tol("z", 5.0)
    run.check("z_score", z, tol, z < tol)
    run.write_json("moments.json", values)
    return values


def run_gns_check(run):
    rep = run.cfg.get("rep", "averaged")
    checks = []
    if rep == "averaged":
        rho, mu2 = run.density, run.mu2
        if "measure" in run.cfg:
            run.admissible_measure()
        for f, label in zip(run.battery, run.labels):
            lhs = rep_expectation_averaged(f, rho, mu2).value
            rhs = fock_functional(f).value * math.exp(-sigma_mu_sq(f, rho, mu2) / 2.0)
            checks.append((label, lhs, rhs))
    elif rep == "nmode":
        modes = run.modes
        for f, label in zip(run.battery, run.labels):
            lhs = rep_expectation_n_mode(f, modes).value
            fhat = f.evaluate_at(modes.momenta())
            j0s = [bessel_j0(math.sqrt(2.0 * r) * abs(v)) for r, v in zip(modes.rhos(), fhat)]
            rhs = fock_functional(f).value * np.prod(j0s)
            checks.append((label, lhs, rhs))
    else:
        raise ConfigError("/rep", f"unknown representation {rep!r}; use nmode or averaged")
    tol = run.tol("residual", 1e-9)
    values = {"rep": rep, "checks": []}
    for label, lhs, rhs in checks:
        residual = abs(lhs - rhs)
        values["checks"].append(
            {"label": label, "lhs": _cnum(lhs), "rhs": _cnum(rhs), "residual": residual}
        )
        run.check(f"residual[{label}]", residual, tol, residual < tol)
    run.write_json("gns_check.json", values)
    return values


def run_dynamics(run):
    battery, rho, mu2, eps = run.battery, run.density, run.mu2, run.dispersion
    ts = cfgmod.parse_t_grid(run.cfg.get("t_grid", "0:100:1"))
    sig = sigma_t(battery, rho, mu2, eps, ts)
    metric = uniformization_curve(battery, rho, sig)
    rows = [[t, s, m] for t, s, m in zip(ts, sig[:, 0].tolist(), metric.tolist())]
    run.write_csv("dynamics.csv", ["t", "sigma_t", "metric"], rows)
    tol = run.tol("metric_final")
    if tol is not None:
        run.check("final_metric", rows[-1][2], tol, rows[-1][2] < tol)
    return {"final_t": float(ts[-1]), "final_metric": rows[-1][2]}


def run_decohere(run):
    """Exact dephasing of one density-matrix element.  The Monte Carlo mean
    over chi draws must match the Gaussian envelope within z standard
    errors at every t > 0."""
    g = cfgmod.build_test_function(run.need("form_factor"), run.grid, "/form_factor")
    couplings = run.read("couplings", each=True, min_count=2)
    element = run.read("element", int, [0, 1], each=True)
    n = len(couplings)
    if not (len(element) == 2 and all(0 <= i < n for i in element) and element[0] != element[1]):
        raise ConfigError("/element", f"expected two distinct levels in 0..{n - 1}, got {element}")
    k, l = element
    dg = couplings[k] - couplings[l]
    m = run.samples(10_000)
    coeffs = build_coefficients(run.density, 0.0)
    re_chi = sample_chi_gram([g], coeffs, m, run.rng("gram"))[:, 0].real
    rate = sigma_mu_sq(g, run.density, 0.0)
    ts = cfgmod.parse_t_grid(run.cfg.get("t_grid", "0:2:0.1"))
    gaussian, decay = envelopes(dg, g, run.dispersion, ts, rate)
    rows = []
    worst = 0.0
    for t, gaussian_env, gamma_env in zip(ts.tolist(), gaussian.tolist(), decay.tolist()):
        mc_vals = np.exp(-1j * t * dg * re_chi)
        mc_mean = complex(np.mean(mc_vals))
        mc_se = float(np.std(mc_vals.real, ddof=1) / math.sqrt(m))
        rows.append([t, gaussian_env, gamma_env, mc_mean.real, mc_mean.imag, mc_se])
        if t > 0 and mc_se > 0:  # equal draws (dg = 0) give the envelope exactly
            worst = max(worst, abs(mc_mean.real - gaussian_env) / mc_se)
    run.write_csv(
        "decohere.csv",
        ["t", "envelope_gaussian", "envelope_gamma", "mc_mean_re", "mc_mean_im", "mc_stderr"],
        rows,
    )
    tol = run.tol("z", 5.0)
    run.check("envelope_z", worst, tol, worst < tol)
    return {"element": [k, l], "gaussian_rate": rate, "rows": len(rows)}


def run_diverge(run):
    d, R = run.read("d", int, 1, least=1, most=3), run.read("R", float, 4.0, above=0.0)
    n_list = run.read(
        "n_list", int, [64, 128, 256, 512, 1024], each=True, min_count=MIN_FIT_POINTS, least=2
    )
    with cfgmod.reading("/n_list"):
        cfgmod.check_cells(max(n_list) ** d)
    f_form = run.closed_form("function")
    rho_form = run.closed_form("density")

    def radius(pts):
        pts = np.asarray(pts)
        return pts if d == 1 else np.linalg.norm(pts, axis=-1)

    fit = divergence_diagnostic(
        lambda pts: f_form(radius(pts)),
        lambda pts: np.abs(rho_form(radius(pts))),
        n_list, R, d,
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
    gfun = run.battery[0]
    L_values = run.read("L_values", float, [100.0, 1000.0, 10000.0], each=True, above=0.0)
    limit = rarefied_functional(gfun, *run.rarefied)
    rows = []
    for L in L_values:
        phase = rarefied_finite_volume_phase(gfun, *run.rarefied, L)
        rows.append([L, phase, abs(phase - limit.phase)])
    run.write_csv("rarefied.csv", ["L", "phase", "abs_error"], rows)
    return {"limit_phase": limit.phase, "limit_value": _cnum(limit.value)}


HANDLERS = {
    "functional": run_functional,
    "clt": run_clt,
    "chi": run_chi,
    "moments": run_moments,
    "gns-check": run_gns_check,
    "dynamics": run_dynamics,
    "decohere": run_decohere,
    "diverge": run_diverge,
    "rarefied": run_rarefied,
}


def run_experiment(cfg: dict, out_dir) -> dict:
    """Run the config's experiment into `out_dir` and write its result.json."""
    started = time.perf_counter()
    run = Run(cfg, out_dir)
    values = HANDLERS[cfg["experiment"]](run)
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


# Flags that override the config key of the same name ("--t-grid" sets
# "t_grid"), and the experiments that take each (None: all of them).
OVERRIDES = (
    ("--seed", int, "override the config seed", None),
    ("--samples", int, "override the sample count", None),
    ("--pq", str, "p,q orders, e.g. 2,2", {"moments"}),
    ("--rep", str, "nmode | averaged", {"gns-check"}),
    ("--t-grid", str, "start:stop:step", {"dynamics", "decohere"}),
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="cohlim",
        description="Seeded, reproducible experiments on infinite-volume coherent states.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in sorted(HANDLERS):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", default="out")
        for flag, kind, help_text, commands in OVERRIDES:
            if commands is None or name in commands:
                p.add_argument(flag, type=kind, default=None, help=help_text)
    args = parser.parse_args(argv)

    try:
        cfg = cfgmod.load_config(args.config)
        if cfg["experiment"] != args.command:
            raise ConfigError(
                "/experiment", f"config is for {cfg['experiment']!r}, invoked as {args.command!r}"
            )
        for flag, *_ in OVERRIDES:
            key = flag[2:].replace("-", "_")
            if getattr(args, key, None) is not None:
                cfg[key] = getattr(args, key)
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
