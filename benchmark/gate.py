"""Correctness gate: checks one invocation's outputs, returns the failures.

Deterministic values are compared with references recorded at the commit
that defined the benchmark (`reference/<workload>.json`), within the stated
tolerances.  Stochastic values are checked in law, never draw for draw: a
sampler that is exact in law but consumes the RNG differently passes.
Standard library only, so the gate adds nothing to the worker's imports.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

Z = 5.0  # z bound for every check in law
RTOL = 1e-9  # deterministic values: relative tolerance ...
ATOL = 1e-12  # ... plus absolute tolerance, for values that decay to 0

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def load_reference(workload: str) -> dict:
    with open(REFERENCE_DIR / f"{workload}.json") as fh:
        return json.load(fh)


def _close(value: float, ref: float) -> bool:
    return abs(value - ref) <= RTOL * abs(ref) + ATOL


def _result(out_dir: Path, failures: list):
    path = out_dir / "result.json"
    if not path.exists():
        failures.append("result.json missing")
        return None
    with open(path) as fh:
        record = json.load(fh)
    if record.get("pass") is not True:
        failures.append(f"result.json reports pass={record.get('pass')!r}")
    return record


def check_chi(out_dir: Path, record: dict, sizes: dict, ref: dict) -> list:
    failures = []
    m, battery = sizes["samples"], sizes["battery"]
    chi_re, fn_mod = {}, {}
    with open(out_dir / "chi_samples.csv", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != ["sample", "label", "chi_re", "chi_im", "functional_re", "functional_im"]:
            failures.append(f"chi_samples.csv header {header}")
            return failures
        rows = 0
        for _, label, c_re, _, f_re, f_im in reader:
            rows += 1
            chi_re.setdefault(label, []).append(float(c_re))
            fn_mod.setdefault(label, []).append(math.hypot(float(f_re), float(f_im)))
    if rows != m * battery:
        failures.append(f"chi_samples.csv has {rows} rows, expected {m} x {battery}")
    for label, expect in ref["functions"].items():
        sig2 = expect["sigma_sq"]
        got = record["values"].get(label)
        if got is None or label not in chi_re:
            failures.append(f"{label}: missing from outputs")
            continue
        if not _close(got["sigma_sq"], sig2):
            failures.append(f"{label}: sigma_sq {got['sigma_sq']!r} != reference {sig2!r}")
        xs = chi_re[label]
        n = len(xs)
        mean = math.fsum(xs) / n
        var = math.fsum((x - mean) ** 2 for x in xs) / (n - 1)
        # sampling law of Re chi ~ N(0, sigma_sq): se of the mean and of the
        # unbiased variance
        if abs(mean) > Z * math.sqrt(sig2 / n):
            failures.append(f"{label}: mean Re chi {mean:.4g} off 0 by > {Z} se")
        if abs(var - sig2) > Z * sig2 * math.sqrt(2.0 / (n - 1)):
            failures.append(f"{label}: var Re chi {var:.6g} vs sigma_sq {sig2:.6g} off by > {Z} se")
        for key, value in (("mean_re_chi", mean), ("var_re_chi", var)):
            if not math.isclose(got[key], value, rel_tol=1e-9, abs_tol=1e-12):
                failures.append(f"{label}: result.json {key} {got[key]!r} disagrees with the CSV ({value!r})")
        if any(not _close(v, expect["fock"]) for v in fn_mod[label]):
            failures.append(f"{label}: |functional| differs from the Fock value {expect['fock']!r}")
    return failures


def check_moments(out_dir: Path, record: dict, sizes: dict, ref: dict) -> list:
    failures = []
    values = record["values"]
    if (values["p"] + values["q"]) != sizes["moment_order"]:
        failures.append(f"moment order p+q = {values['p'] + values['q']}, expected {sizes['moment_order']}")
    closed = complex(values["closed_form"]["re"], values["closed_form"]["im"])
    expect = complex(ref["closed_form"]["re"], ref["closed_form"]["im"])
    if abs(closed - expect) > RTOL * abs(expect):
        failures.append(f"closed_form {closed!r} != reference {expect!r}")
    mc = complex(values["mc_value"]["re"], values["mc_value"]["im"])
    se = values["mc_stderr"]
    if not se > 0:
        failures.append(f"mc_stderr {se!r} is not positive")
    elif abs(mc - expect) / se >= Z:
        failures.append(f"MC estimate {mc!r} is {abs(mc - expect) / se:.3g} se from the reference")
    if not (out_dir / "moments.json").exists():
        failures.append("moments.json missing")
    return failures


def check_dynamics(out_dir: Path, record: dict, sizes: dict, ref: dict) -> list:
    failures = []
    with open(out_dir / "dynamics.csv", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [[float(x) for x in row] for row in reader]
    if header != ["t", "sigma_t", "metric"]:
        failures.append(f"dynamics.csv header {header}")
        return failures
    if len(rows) != sizes["t_points"]:
        failures.append(f"dynamics.csv has {len(rows)} rows, expected {sizes['t_points']}")
        return failures
    bad = [
        i
        for i, (row, t, s, metric) in enumerate(zip(rows, ref["t"], ref["sigma_t"], ref["metric"]))
        if not (abs(row[0] - t) <= 1e-9 and _close(row[1], s) and _close(row[2], metric))
    ]
    if bad:
        i = bad[0]
        failures.append(
            f"dynamics.csv differs from the reference on {len(bad)} rows; first t={rows[i][0]!r}: "
            f"{rows[i][1:]!r} vs {[ref['sigma_t'][i], ref['metric'][i]]!r}"
        )
    return failures


CHECKS = {
    "chi_table": check_chi,
    "moments_order16": check_moments,
    "dynamics_tgrid": check_dynamics,
}


def check(workload: str, out_dir, exit_code: int, sizes: dict, ref: dict) -> list:
    """Failures of one invocation; an empty list means it passed."""
    out_dir = Path(out_dir)
    failures = [] if exit_code == 0 else [f"exit code {exit_code}"]
    record = _result(out_dir, failures)
    if record is None:
        return failures
    try:
        failures += CHECKS[workload](out_dir, record, sizes, ref)
    except (OSError, KeyError, ValueError, TypeError, StopIteration) as exc:
        failures.append(f"unreadable output: {type(exc).__name__}: {exc}")
    return failures
