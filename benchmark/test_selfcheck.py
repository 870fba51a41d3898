"""Self-tests of the benchmark: span arithmetic, tracer patching, and the
correctness gate's ability to reject wrong outputs.

    python3 -m pytest -q benchmark/test_selfcheck.py
"""

from __future__ import annotations

import csv
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import gate  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from spans import Span  # noqa: E402


def _tree():
    # root [0, 10] -> a [1, 4], b [5, 9] -> c [6, 8]
    return [
        Span("cli.run_experiment", 0.0, 10.0, -1),
        Span("moments.build_q", 1.0, 4.0, 0),
        Span("dynamics.uniformization_metric", 5.0, 9.0, 0),
        Span("dynamics.sigma_t", 6.0, 8.0, 2),
    ]


def test_self_time_subtracts_direct_children_only():
    s = spans.summarize(_tree())
    assert s["cli.run_experiment"] == {"calls": 1, "total_s": 10.0, "self_s": 3.0}
    assert s["dynamics.uniformization_metric"]["self_s"] == 2.0
    assert s["dynamics.sigma_t"]["self_s"] == 2.0
    assert s["moments.build_q"]["self_s"] == 3.0


def test_top_level_s_does_not_double_count_nested_spans():
    assert spans.top_level_s(_tree(), "dynamics.") == 4.0
    assert spans.top_level_s(_tree(), "moments.") == 3.0


def test_tracer_wraps_every_import_site_and_restores():
    from cohlim import cli, dynamics, functionals
    from cohlim.mode_space import ModeDensity, MomentumGrid, TestFunction

    originals = (cli.sigma_t, dynamics.sigma_t, dynamics.fock_functional, functionals.fock_functional)
    grid = MomentumGrid(1, 4.0, 64)
    f = TestFunction.from_profile(grid, lambda k: np.exp(-k ** 2))
    rho = ModeDensity.from_profile(grid, lambda k: np.exp(-k ** 2))
    eps = dynamics.Dispersion.photon(grid)
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert cli.sigma_t is dynamics.sigma_t is not originals[0]
        dynamics.uniformization_metric([f, f], rho, -1.0, eps, 0.5)
    finally:
        tracer.uninstall()
    assert (cli.sigma_t, dynamics.sigma_t, dynamics.fock_functional, functionals.fock_functional) == originals
    got = tracer.take()
    assert [s.name for s in got] == [
        "dynamics.uniformization_metric",
        "functionals.fock_functional", "dynamics.sigma_t",
        "functionals.fock_functional", "dynamics.sigma_t",
    ]
    assert [s.parent for s in got] == [-1, 0, 0, 0, 0]
    assert all(s.end >= s.start for s in got)


# -- the gate -------------------------------------------------------------


def _write_result(out, values, passed=True):
    out.mkdir(parents=True, exist_ok=True)
    (out / "result.json").write_text(json.dumps({"pass": passed, "values": values}))


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def _dynamics_out(out, ref, perturb=None):
    rows = [list(r) for r in zip(ref["t"], ref["sigma_t"], ref["metric"])]
    if perturb:
        perturb(rows)
    _write_result(out, {})
    _write_csv(out / "dynamics.csv", ["t", "sigma_t", "metric"], rows)


def test_gate_accepts_reference_dynamics_and_rejects_perturbed(tmp_path):
    ref = gate.load_reference("dynamics_tgrid")
    sizes = workloads.generate("dynamics_tgrid", 0).sizes
    _dynamics_out(tmp_path / "ok", ref)
    assert gate.check("dynamics_tgrid", tmp_path / "ok", 0, sizes, ref) == []

    def nudge(rows):
        rows[500][1] *= 1 + 1e-6

    _dynamics_out(tmp_path / "nudged", ref, nudge)
    assert gate.check("dynamics_tgrid", tmp_path / "nudged", 0, sizes, ref)
    _dynamics_out(tmp_path / "short", ref, lambda rows: rows.pop())
    assert gate.check("dynamics_tgrid", tmp_path / "short", 0, sizes, ref)
    _dynamics_out(tmp_path / "exit", ref)
    assert gate.check("dynamics_tgrid", tmp_path / "exit", 1, sizes, ref) == ["exit code 1"]


def _chi_out(out, ref, m, scale=1.0, seed=3):
    rng = np.random.default_rng(seed)
    rows, values = [], {}
    labels = list(ref["functions"])
    draws = {k: scale * rng.normal(0.0, np.sqrt(v["sigma_sq"]), m) for k, v in ref["functions"].items()}
    for i in range(m):
        for k in labels:
            x, fock = draws[k][i], ref["functions"][k]["fock"]
            rows.append([i, k, x, 0.0, fock * np.cos(x), fock * np.sin(x)])
    for k, v in ref["functions"].items():
        values[k] = {
            "mean_re_chi": float(np.mean(draws[k])),
            "var_re_chi": float(np.var(draws[k], ddof=1)),
            "sigma_sq": v["sigma_sq"],
        }
    _write_result(out, values)
    _write_csv(out / "chi_samples.csv", ["sample", "label", "chi_re", "chi_im", "functional_re", "functional_im"], rows)


def test_gate_checks_chi_table_in_law(tmp_path):
    ref = gate.load_reference("chi_table")
    m = 4000
    sizes = {**workloads.generate("chi_table", 0).sizes, "samples": m}
    _chi_out(tmp_path / "ok", ref, m)
    assert gate.check("chi_table", tmp_path / "ok", 0, sizes, ref) == []
    _chi_out(tmp_path / "wide", ref, m, scale=1.15)
    failures = gate.check("chi_table", tmp_path / "wide", 0, sizes, ref)
    assert failures and all("var Re chi" in f for f in failures)
    # the right law but too few rows for the stated sample count
    assert gate.check("chi_table", tmp_path / "ok", 0, {**sizes, "samples": m + 1}, ref)


def test_gate_checks_moments_closed_form_and_z(tmp_path):
    ref = gate.load_reference("moments_order16")
    sizes = workloads.generate("moments_order16", 0).sizes
    closed = ref["closed_form"]

    def out(name, closed_form, mc, se):
        d = tmp_path / name
        values = {"p": 8, "q": 8, "closed_form": closed_form, "mc_value": mc, "mc_stderr": se}
        _write_result(d, values)
        (d / "moments.json").write_text(json.dumps(values))
        return d

    mag = abs(complex(closed["re"], closed["im"]))
    assert gate.check("moments_order16", out("ok", closed, closed, mag), 0, sizes, ref) == []
    off = {"re": closed["re"] * (1 + 1e-6), "im": closed["im"]}
    assert gate.check("moments_order16", out("closed", off, closed, mag), 0, sizes, ref)
    far = {"re": closed["re"] + 6 * mag, "im": closed["im"]}
    assert gate.check("moments_order16", out("z", closed, far, mag), 0, sizes, ref)


def test_run_fails_without_the_program(tmp_path):
    """In a directory holding only the benchmark, run.py exits nonzero and
    prints no result."""
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "chi_table", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.parametrize("name", workloads.NAMES)
def test_generator_is_deterministic_in_the_seed(name, tmp_path):
    a, b = workloads.generate(name, 7), workloads.generate(name, 7)
    assert a.write(tmp_path / "a").read_text() == b.write(tmp_path / "b").read_text()
    assert name in workloads.WHY


def test_run_reports_exactly_the_metrics_benchmark_json_declares():
    import run

    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER_UNITS
    assert [w["name"] for w in bench["workloads"]] == list(workloads.NAMES)
    assert {w["name"]: w["why"] for w in bench["workloads"]} == workloads.WHY
