import argparse
import copy
import csv
import hashlib
import json
import math
import os
import struct
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from cohlim import cli
from cohlim import config as cfgmod
from cohlim.config import (
    ConfigError,
    build_density,
    build_grid,
    build_measure,
    build_test_function,
    config_digest,
    load_config,
    parse_t_grid,
    read_value_file,
    validate_config,
)
from cohlim.circle_measure import log_phase_product
from cohlim.dynamics import sigma_t
from cohlim.functionals import cell_amplitudes, variances
from cohlim.mode_space import MomentumGrid
from cohlim.moments import MIN_ORACLE_SAMPLES

from oracles import clt_sample, gamma_fsum, ks_distance, permanent_moment, uniformization_gap

GRID = {"d": 1, "R": 4.0, "N": 512}
DENSITY = {"name": "gaussian", "center": 1.0, "width": 0.70710678}
GAUSS_F = {"name": "gaussian", "label": "f", "modulation": 1.0}

# One valid config per experiment; the runs below start from these.
CONFIGS = {
    "functional": {
        "experiment": "functional",
        "kind": "fock",
        "grid": GRID,
        "functions": [GAUSS_F],
    },
    "clt": {
        "experiment": "clt",
        "grid": GRID,
        "measure": {"kind": "uniform"},
        "density": DENSITY,
        "functions": [GAUSS_F],
    },
    "chi": {
        "experiment": "chi",
        "seed": 5,
        "samples": 200,
        "grid": GRID,
        "mu2": [0.0, 0.0],
        "density": DENSITY,
        "functions": [GAUSS_F],
    },
    "moments": {
        "experiment": "moments",
        "seed": 3,
        "samples": 2000,
        "pq": "1,1",
        "grid": GRID,
        "mu2": [0.3, 0.2],
        "density": DENSITY,
        "functions": [GAUSS_F, {"name": "gaussian", "label": "g", "center": 0.5}],
    },
    "gns-check": {
        "experiment": "gns-check",
        "rep": "averaged",
        "grid": GRID,
        "mu2": [-1.0, 0.0],
        "density": DENSITY,
        "functions": [GAUSS_F],
    },
    "dynamics": {
        "experiment": "dynamics",
        "grid": GRID,
        "mu2": [-1.0, 0.0],
        "density": DENSITY,
        "dispersion": {"form": "photon"},
        "functions": [{"name": "gaussian", "label": "f", "center": 2.0}],
        "t_grid": "0:10:2",
    },
    "decohere": {
        "experiment": "decohere",
        "grid": GRID,
        "density": DENSITY,
        "dispersion": {"form": "photon"},
        "form_factor": {"name": "gaussian", "label": "g"},
        "couplings": [0.0, 1.0],
        "element": [0, 1],
        "t_grid": "0:1:0.5",
    },
    "diverge": {
        "experiment": "diverge",
        "d": 1,
        "R": 4.0,
        "function": {"name": "gaussian"},
        "density": {"name": "gaussian"},
        "tolerances": {"slope": 0.05},
    },
    "rarefied": {
        "experiment": "rarefied",
        "grid": {"d": 1, "R": 4.0, "N": 1024},
        "functions": [{"name": "gaussian", "label": "g", "center": 1.0}],
        "alpha": {"name": "gaussian", "center": 1.0},
        "sigma": 0.7,
        "a": 0.2,
        "b": 1.8,
        "L_values": [1000.0, 100000.0],
    },
}

# The CONFIGS entries that finish with no assertion, each with its reason.
UNASSERTED = {
    "dynamics": "asserts only the metric_final tolerance, which its config does not set",
    "rarefied": "writes its convergence table and asserts no rate",
    "decohere": "writes closed-form envelopes only; chi asserts the law of Re chi they rest on",
}

# A key that each experiment requires, one or two per experiment.
REQUIRED_KEYS = [
    ("functional", "grid"),
    ("clt", "measure"),
    ("chi", "density"),
    ("moments", "density"),
    ("gns-check", "density"),
    ("dynamics", "density"),
    ("decohere", "couplings"),
    ("decohere", "form_factor"),
    ("diverge", "function"),
    ("rarefied", "alpha"),
]

# The experiments that read a seed, and those that read a sample count.
SEEDED = sorted(name for name in cli.EXPERIMENTS if "seed" in cli.experiment_keys(name))
SAMPLED = sorted(name for name in cli.EXPERIMENTS if "samples" in cli.experiment_keys(name))
# For each CONFIGS entry of an experiment in SAMPLED: the fewest samples it
# accepts, and the draw-table entries per sample (the functions drawn).
SAMPLE_BOUNDS = {"chi": (2, 1), "moments": (MIN_ORACLE_SAMPLES, 2)}
# (experiment, name) of each tolerance an experiment reads.
TOLERANCES = [
    (name, key.removeprefix("tolerances/"))
    for name in sorted(cli.EXPERIMENTS)
    for key in sorted(cli.experiment_keys(name))
    if key.startswith("tolerances/")
]

# The gns-check config of the N-mode representation: two modes, and neither a
# density nor a phase measure, which it does not read.
GNS_NMODE = {
    **{k: v for k, v in CONFIGS["gns-check"].items() if k not in ("density", "mu2")},
    "rep": "nmode",
    "modes": [{"k": 0.5, "rho": 0.3}, {"k": -1.0, "rho": 0.2}],
}

# The functional config of the phase-averaged limit, which reads a measure.
FUNCTIONAL_AVERAGED = {
    **CONFIGS["functional"],
    "kind": "averaged",
    "density": DENSITY,
    "measure": {"kind": "uniform"},
}
# Every CONFIGS entry, and a config of each other kind or rep.
VARIANTS = {
    **CONFIGS,
    "functional-nmode": {**CONFIGS["functional"], "kind": "nmode", "modes": GNS_NMODE["modes"]},
    "functional-averaged": FUNCTIONAL_AVERAGED,
    "functional-rarefied": {
        **CONFIGS["functional"],
        "kind": "rarefied",
        **{key: CONFIGS["rarefied"][key] for key in ("alpha", "sigma", "a", "b")},
    },
    "gns-check-nmode": GNS_NMODE,
}


class RecordingConfig(dict):
    """A config that notes each key looked up in it, present or not, and
    each name looked up in its `tolerances` as "tolerances/<name>"."""

    def __init__(self, cfg, seen, prefix=""):
        super().__init__(cfg)
        self.seen, self.prefix = seen, prefix

    def _note(self, key, value):
        self.seen.add(self.prefix + key)
        if key == "tolerances" and not self.prefix and isinstance(value, dict):
            return RecordingConfig(value, self.seen, "tolerances/")
        return value

    def __getitem__(self, key):
        return self._note(key, super().__getitem__(key))

    def get(self, key, default=None):
        return self._note(key, super().get(key, default))

    def __contains__(self, key):
        self._note(key, None)
        return super().__contains__(key)


def recorded_reads(cfg, out_dir):
    """The keys (and tolerance names) that cfg's handler and the Run it
    reads through look up while running cfg, beside `experiment` and
    `tolerances` themselves; and the keys the run declares."""
    seen = set()
    run = cli.Run(RecordingConfig(cfg, seen), out_dir)
    cli.EXPERIMENTS[cfg["experiment"]][0](run)
    return seen - {"experiment", "tolerances"}, set(run.reads)


def key_table():
    """The README's table of the keys each experiment reads, as EXPERIMENTS
    declares them: a row per kind or rep, and each key that a flag sets
    followed by that flag."""
    rows = ["| experiment | keys it reads |", "| --- | --- |"]
    for name, (_, reads) in cli.EXPERIMENTS.items():
        if isinstance(reads, cli.Variants):
            variants = [
                (f" {reads.key} `{value}`" + (" (default)" if value == reads.default else ""), (reads.key, *keys))
                for value, keys in reads.keys.items()
            ]
        else:
            variants = [("", reads)]
        for variant, keys in variants:
            cells = [f"`{key}`" + (f" (`--{key.replace('_', '-')}`)" if key in cli.FLAGS else "") for key in keys]
            rows.append(f"| `{name}`{variant} | {', '.join(cells)} |")
    return "\n".join(rows) + "\n"


# clt under the M = 8 trapezoid density (1 + 0.8 cos 2 theta) / 2 pi, with
# mu_hat(2) = 0.4.
CLT_DENSITY = {
    **CONFIGS["clt"],
    "functions": [{"name": "gaussian", "label": "f", "width": 0.5}],
    "measure": {
        "kind": "density",
        "values": [(1 + 0.8 * math.cos(2 * 2 * math.pi * j / 8)) / (2 * math.pi) for j in range(8)],
    },
}

# clt under three atoms at 0, 2pi/3 and 4pi/3 (mu_hat(3) = 1) with an
# unmodulated f: kappa3 is then far from 0, and the gap to the Gaussian is
# ten times that of CONFIGS["clt"].
CLT_ATOMS = {
    **CONFIGS["clt"],
    "functions": [{"name": "gaussian", "label": "f"}],
    "measure": {"kind": "atoms", "atoms": [[2 * math.pi * j / 3, 1 / 3] for j in range(3)]},
}

# The diverge config with a zero density: every mode sum vanishes.
DIVERGE_ZERO = {**CONFIGS["diverge"], "density": {"name": "gaussian", "amplitude": 0}}
# A narrow box fhat that the three coarsest grids miss: |S(N)| is 0 there, so
# only two mode sums are left for the slope fit.
DIVERGE_NARROW = {
    "experiment": "diverge",
    "function": {"name": "box", "lo": 0.001, "hi": 0.02},
    "density": {"name": "gaussian", "center": 0.0, "width": 1.0},
}

# Parameters of each named form, none of them a shift, for the radial tests.
RADIAL_PARAMETERS = {
    "gaussian": {"center": 0.5, "width": 0.8},
    "box": {"lo": 0.5, "hi": 2.0},
    "plane_wave": {"lo": -0.5, "hi": 2.5},
}
# Named-form configs on a d = 3 grid, where every named form is radial: each
# function is a gaussian in |k| without modulation.
GRID_3D = {"d": 3, "R": 4.0, "N": 16}
RADIAL_F = {"name": "gaussian", "label": "f", "center": 0.5}
NAMED_3D = {
    "functional": {
        **CONFIGS["functional"],
        "kind": "nmode",
        "grid": GRID_3D,
        "functions": [RADIAL_F],
        "modes": [{"k": [0.5, 0.0, -0.5], "rho": 0.3}],
    },
    "gns-check": {**CONFIGS["gns-check"], "grid": GRID_3D, "functions": [RADIAL_F]},
    "chi": {**CONFIGS["chi"], "grid": GRID_3D, "functions": [RADIAL_F]},
    "dynamics": {**CONFIGS["dynamics"], "grid": GRID_3D},
    "decohere": {**CONFIGS["decohere"], "grid": GRID_3D},
}

# Malformed or out-of-range values tried in place of every key of every
# CONFIGS entry, and of every value nested below one: each run must return,
# and exit 2 only with a JSON pointer.
MALFORMED = ["x", True, None, -1, 0, 2.5, [], {}, [0], "0:1"]

# CONFIGS, and the clt config with each measure kind that carries numbers.
FUZZ_BASES = {
    **CONFIGS,
    "clt+atoms": {
        **CONFIGS["clt"],
        "measure": {"kind": "atoms", "atoms": [[math.pi / 2, 0.5], [3 * math.pi / 2, 0.5]]},
    },
    "clt+density": {
        **CONFIGS["clt"],
        "measure": {"kind": "density", "values": [1.0 / (2.0 * math.pi)] * 4},
    },
}


def nested_paths(obj, prefix):
    """Slash-separated paths of every value below `obj`, itself at `prefix`."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield f"{prefix}/{key}"
        yield from nested_paths(value, f"{prefix}/{key}")


def with_value(cfg, path, value):
    """A copy of `cfg` with the value at the slash-separated `path` replaced."""
    cfg = copy.deepcopy(cfg)
    *parents, last = path.split("/")
    node = cfg
    for key in parents:
        node = node[int(key)] if isinstance(node, list) else node[key]
    node[int(last) if isinstance(node, list) else last] = value
    return cfg


# (config, path, value) for every CONFIGS key, then for every nested value:
# grid fields, descriptor parameters, list entries, tolerances and the
# measures' atoms and values (the bool and string weights among them).  A
# list or object value is named by its JSON in the test id, not by its
# position, so that the ids stay put when a config gains or loses a key.
MALFORMED_CASES = (
    [(name, key, value) for name, cfg in CONFIGS.items() for key in cfg for value in MALFORMED]
    + [
        (name, path, value)
        for name, cfg in CONFIGS.items()
        for key in cfg
        for path in nested_paths(cfg[key], key)
        for value in MALFORMED
    ]
    + [
        (name, path, value)
        for name in ("clt+atoms", "clt+density")
        for path in nested_paths(FUZZ_BASES[name]["measure"], "measure")
        for value in MALFORMED
    ]
    + [("clt+atoms", "measure/atoms", [[0, True]]), ("clt+atoms", "measure/atoms", [["1.5", "1"]])]
)


@pytest.fixture
def unbuildable(monkeypatch):
    """Fail the test when any function or density is built: the refusal
    under test must come before anything is built."""

    def never(*args):
        raise AssertionError("a function or density was built before the refusal")

    monkeypatch.setattr(cfgmod, "build_test_function", never)
    monkeypatch.setattr(cfgmod, "build_density", never)


def write_cfg(tmp_path, cfg, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return str(p)


def read_result(out_dir):
    with open(out_dir / "result.json") as fh:
        return json.load(fh)


def canonical_json(cfg) -> bytes:
    """The config as inputs_digest hashes it: sorted keys, no spaces."""
    return json.dumps(cfg, sort_keys=True, separators=(",", ":")).encode()


def csv_writer_bytes(tmp_path, header, rows):
    """The bytes csv.writer writes for `header` and then `rows`, one call per row."""
    path = tmp_path / "expected.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(row)
    return path.read_bytes()


class TestConfigValidation:
    def test_deterministic_needs_no_seed(self):
        validate_config({"experiment": "functional"})

    def test_digest_stable_under_key_order(self):
        a = {"experiment": "functional", "grid": GRID}
        b = {"grid": dict(GRID), "experiment": "functional"}
        assert config_digest(a) == config_digest(b)

    @pytest.mark.parametrize("name", [*CONFIGS, "non-ascii-label"])
    def test_digest_is_sha256_of_canonical_json(self, name):
        # the digest is hashlib's sha256, so inputs_digest is the same
        # whichever SHA-256 implementation computes it
        cfg = CONFIGS.get(name) or {**CONFIGS["functional"], "functions": [{**GAUSS_F, "label": "χ(f) café"}]}
        assert config_digest(cfg) == hashlib.sha256(canonical_json(cfg)).hexdigest()

    def test_load_rejects_bad_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        with pytest.raises(ConfigError, match="JSON"):
            load_config(p)

    def test_parse_t_grid(self):
        np.testing.assert_allclose(parse_t_grid("0:1:0.25"), [0, 0.25, 0.5, 0.75, 1.0])
        # a step that does not divide the span stops short of stop
        np.testing.assert_allclose(parse_t_grid("0:1:0.35"), [0, 0.35, 0.7])
        ts = parse_t_grid("0:100:0.1")
        assert len(ts) == 1001 and ts[-1] == pytest.approx(100.0)

    def test_number_bounds(self):
        assert cfgmod.number(3, int, least=1, most=3) == 3
        assert cfgmod.numbers([2, 5], int, min_count=2, least=2) == [2, 5]
        for value, bounds in ((0, {"least": 1}), (4, {"most": 3}), (0.0, {"above": 0.0})):
            with pytest.raises(ValueError, match="must be"):
                cfgmod.number(value, int if isinstance(value, int) else float, **bounds)
        with pytest.raises(ValueError, match="at least 3"):
            cfgmod.numbers([1.0, 2.0], min_count=3)

    def test_parse_t_grid_rejects_garbage(self):
        with pytest.raises(ConfigError):
            parse_t_grid("0,1,2")

    @pytest.mark.parametrize("spec", ["0:1:0", "0:1:-0.5", "0:0:0"])
    def test_parse_t_grid_rejects_a_step_not_above_0(self, spec):
        # a step of 0 would never reach stop
        with pytest.raises(ConfigError, match="^/t_grid: .*need a finite step > 0"):
            parse_t_grid(spec)

    @pytest.mark.parametrize(
        "experiment, path, pointer",
        [
            ("diverge", "R", "/R"),
            ("chi", "mu2/0", "/mu2"),
            ("dynamics", "grid/R", "/grid"),
            ("functional", "functions/0/width", "/functions/0"),
            ("decohere", "couplings/1", "/couplings"),
        ],
    )
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_number_exits_2(self, tmp_path, capsys, experiment, path, pointer, value):
        # json.load reads NaN and Infinity as floats; the strict reader refuses them
        cfg_path = write_cfg(tmp_path, with_value(CONFIGS[experiment], path, value))
        assert load_config(cfg_path)
        assert cli.main([experiment, "--config", cfg_path, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {pointer}: ") and "expected a finite number" in err
        assert not (tmp_path / "o").exists()


class TestBuilders:
    def test_grid_roundtrip(self):
        assert build_grid(GRID) == MomentumGrid(1, 4.0, 512)

    def test_measure_kinds(self):
        assert build_measure({"kind": "uniform"}).atoms is None
        mu = build_measure({"kind": "atoms", "atoms": [[0.0, 0.5], [3.14159, 0.5]]})
        assert mu.atoms == ((0.0, 0.5), (3.14159, 0.5))

    @pytest.mark.parametrize(
        "measure",
        [
            {"kind": "atoms", "atoms": [[0, True]]},
            {"kind": "atoms", "atoms": [["1.5", "1"]]},
            {"kind": "atoms", "atoms": [[0.0, 0.5, 0.5]]},
            {"kind": "density", "values": [1.0 / math.pi, "0"]},
            {"kind": "gaussian"},
        ],
    )
    def test_measure_read_strictly(self, measure):
        with pytest.raises(ConfigError, match="^/measure:"):
            build_measure(measure)

    def test_size_caps(self):
        # the benchmark's 32 768 cells and 1001 times fit; diverge at d = 3
        # with the default n_list (1024^3 cells, about 26 GB of points) does not
        assert 32_768 <= cfgmod.MAX_CELLS < 1024 ** 3 and 1001 <= cfgmod.MAX_T_POINTS
        assert build_grid({"d": 3, "R": 4.0, "N": 256}).n_cells == cfgmod.MAX_CELLS
        with pytest.raises(ConfigError, match="^/grid:"):
            build_grid({"d": 3, "R": 4.0, "N": 257})
        assert len(parse_t_grid(f"0:{cfgmod.MAX_T_POINTS - 1}:1")) == cfgmod.MAX_T_POINTS
        for spec in (f"0:{cfgmod.MAX_T_POINTS}:1", "0:1e10:1"):
            with pytest.raises(ConfigError, match="^/t_grid:"):
                parse_t_grid(spec)
        # a well-formed grid that is too long is refused for its length alone
        with pytest.raises(ConfigError) as refused:
            parse_t_grid("0:1e7:1")
        assert str(refused.value) == "/t_grid: 10000001 time points exceed the cap of 1000000"

    def test_value_file_roundtrip(self, tmp_path):
        vals = np.arange(6, dtype=float).reshape(3, 2)
        p = tmp_path / "vals.bin"
        with open(p, "wb") as fh:
            for re, im in vals:
                fh.write(struct.pack("<dd", re, im))
        out = read_value_file(p)
        np.testing.assert_allclose(out, [0 + 1j, 2 + 3j, 4 + 5j])

    def test_value_file_odd_count_rejected(self, tmp_path):
        p = tmp_path / "vals.bin"
        p.write_bytes(struct.pack("<ddd", 1.0, 2.0, 3.0))
        with pytest.raises(ConfigError, match="odd"):
            read_value_file(p)

    def test_test_function_from_file(self, tmp_path):
        g = MomentumGrid(1, 2.0, 4)
        p = tmp_path / "f.bin"
        with open(p, "wb") as fh:
            for i in range(4):
                fh.write(struct.pack("<dd", float(i), 0.0))
        f = build_test_function({"values_file": str(p), "label": "x"}, g)
        np.testing.assert_allclose(f.values, [0, 1, 2, 3])

    @pytest.mark.parametrize("grid", [GRID, {"d": 1, "R": 4.0, "N": 4096}, {"d": 1, "R": 8.0, "N": 32768}])
    def test_closed_forms_have_the_bits_of_complex_exp(self, grid):
        """e^{imk} and e^{i x0 k}, taken as cos + i sin, give the values the
        complex exp gave, bit for bit, so every output keeps its bytes."""
        g = build_grid(grid)
        k = g.axis
        for m in (0.5, -1.0, 2.0):
            f = build_test_function({"name": "gaussian", "center": 0.5, "width": 0.7, "modulation": m}, g)
            gauss = (1.0 + 0j) * np.exp(-((k - 0.5) ** 2) / (2.0 * 0.7**2))
            assert np.array_equal((gauss * np.exp(1j * m * k)).view(np.uint64), f.values.view(np.uint64))
        f = build_test_function({"name": "plane_wave", "x0": -0.7, "lo": -1.0, "hi": 2.0}, g)
        wave = (1.0 + 0j) * np.exp(1j * -0.7 * k) * ((k >= -1.0) & (k <= 2.0))
        assert np.array_equal(wave.view(np.uint64), f.values.view(np.uint64))

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("name", cfgmod.CLOSED_FORMS)
    def test_named_form_is_radial(self, name, d):
        """In d >= 2 each named form is its 1-d form at |k|: on the cells and,
        through `evaluate_at`, off the grid."""
        obj = {"name": name, "amplitude": [0.5, -1.0], **RADIAL_PARAMETERS[name]}
        grid = build_grid({"d": d, "R": 3.0, "N": 12})
        f, form = build_test_function(obj, grid), cfgmod.closed_form(obj, "/functions")
        assert np.array_equal(f.values, form(np.linalg.norm(grid.points(), axis=-1)))
        off = np.random.default_rng(d).uniform(-3.0, 3.0, (50, d))
        assert np.array_equal(f.evaluate_at(off), form(np.linalg.norm(off, axis=-1)))

    def test_test_function_wrong_size(self, tmp_path):
        g = MomentumGrid(1, 2.0, 8)
        p = tmp_path / "f.bin"
        p.write_bytes(struct.pack("<dd", 1.0, 0.0))
        with pytest.raises(ConfigError, match="cells"):
            build_test_function({"values_file": str(p)}, g)


class TestCliRuns:
    def test_functional_fock(self, tmp_path):
        cfg = write_cfg(tmp_path, CONFIGS["functional"])
        out = tmp_path / "out"
        rc = cli.main(["functional", "--config", cfg, "--out", str(out)])
        assert rc == 0
        record = read_result(out)
        assert record["schema"] == "1" and record["pass"]
        with open(out / "functional.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["label"] == "f"
        assert 0.0 < float(rows[0]["modulus"]) <= 1.0
        assert [a["name"] for a in record["assertions"]] == ["modulus[f]"]
        assert record["assertions"][0]["pass"]
        env = record["environment"]
        assert env["python"] == "%d.%d.%d" % sys.version_info[:3]
        assert env["numpy"] == np.__version__
        assert set(env["blas"]) == {"name", "version"}
        assert env["cpu_count"] == os.cpu_count()
        affinity = getattr(os, "sched_getaffinity", None)
        assert env["usable_cpus"] == (len(affinity(0)) if affinity else 1)

    def test_clt_pass_and_reproducible(self, tmp_path):
        # deterministic: a rerun writes the same bytes, and nothing is drawn
        cfg = write_cfg(tmp_path, CONFIGS["clt"])
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert cli.main(["clt", "--config", cfg, "--out", str(out1)]) == 0
        assert cli.main(["clt", "--config", cfg, "--out", str(out2)]) == 0
        r1, r2 = read_result(out1), read_result(out2)
        assert r1["values"] == r2["values"] and r1["inputs_digest"] == r2["inputs_digest"]
        assert (out1 / "clt.csv").read_bytes() == (out2 / "clt.csv").read_bytes()
        assert r1["seed"] is None and "rng" not in r1
        assert [a["name"] for a in r1["assertions"]] == ["edgeworth_residual"]
        # the finite-N gap to the Gaussian, nearly all of it the kappa4 term
        values = r1["values"]
        assert 1e-3 < values["gaussian_gap"] < 1.5e-3
        assert values["edgeworth_residual"] < 0.01 * values["gaussian_gap"]

    def test_clt_rejects_inadmissible_measure(self, tmp_path, capsys):
        body = {**CONFIGS["clt"], "measure": {"kind": "atoms", "atoms": [[0.0, 1.0]]}}
        cfg = write_cfg(tmp_path, body)
        rc = cli.main(["clt", "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "mu_hat_1 nonzero" in capsys.readouterr().err

    def test_averaged_functional_rejects_inadmissible_measure(self, tmp_path, capsys):
        body = {**FUNCTIONAL_AVERAGED, "measure": {"kind": "atoms", "atoms": [[0.0, 1.0]]}}
        rc = cli.main(["functional", "--config", write_cfg(tmp_path, body), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: /measure: mu_hat_1 nonzero")

    def test_clt_follows_a_density_measure(self, tmp_path):
        # sigma_mu is that of mu_hat(2) = 0.4, the trapezoid atoms' value for
        # this M = 8 density, and kappa3, kappa4 account for the gap
        cfg, out = write_cfg(tmp_path, CLT_DENSITY), tmp_path / "o"
        assert cli.main(["clt", "--config", cfg, "--out", str(out)]) == 0
        record = read_result(out)
        run = cli.Run(CLT_DENSITY, tmp_path / "inputs")
        assert record["values"]["sigma"] ** 2 == pytest.approx(variances([run.function], run.density, 0.4)[0], rel=1e-12)
        assert record["values"]["edgeworth_residual"] < 0.01 * record["values"]["gaussian_gap"]

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_clt_draws_follow_a_density_measure(self, tmp_path, seed):
        # Monte Carlo draws of the phase sum under this M = 8 density: within
        # the old ks tolerance 1.95 / sqrt(m) of N(0, sigma^2) at the run's
        # sigma, and their empirical characteristic function within 5
        # standard errors sqrt((1 - |phi|^2) / m) of clt.csv's exact phi_N
        cfg, out, m = write_cfg(tmp_path, CLT_DENSITY), tmp_path / "o", 500
        assert cli.main(["clt", "--config", cfg, "--out", str(out)]) == 0
        run = cli.Run(CLT_DENSITY, tmp_path / "inputs")
        draws = clt_sample(run.function, run.density, run.measure, m, np.random.default_rng(seed))
        assert ks_distance(draws, read_result(out)["values"]["sigma"]) < 1.95 / math.sqrt(m)
        with open(out / "clt.csv", newline="") as fh:
            table = [{k: float(v) for k, v in row.items()} for row in csv.DictReader(fh)]
        s = np.array([row["s"] for row in table])
        exact = np.array([row["phi_re"] + 1j * row["phi_im"] for row in table])
        empirical = np.mean(np.exp(1j * s[:, None] * draws), axis=1)
        assert np.all(np.abs(empirical - exact) <= 5.0 * np.sqrt((1.0 - np.abs(exact) ** 2) / m))

    @pytest.mark.parametrize("name, cut", [("clt", "kappa4"), ("clt-atoms", "kappa3")])
    def test_clt_fails_without_a_cumulant(self, tmp_path, monkeypatch, name, cut):
        # a mutation: with kappa4 left out the gap of the uniform measure is
        # unexplained, and with kappa3 left out that of three atoms, whose
        # mu_hat(3) = 1; each passes with both
        cfg = {"clt": CONFIGS["clt"], "clt-atoms": CLT_ATOMS}[name]
        out, average = tmp_path / "o", cli.circle_average
        assert cli.main(["clt", "--config", write_cfg(tmp_path, cfg), "--out", str(out)]) == 0

        def cut_average(mu, integrand):
            m2, m3, m4 = average(mu, integrand)
            return (m2, 0.0 * m3, m4) if cut == "kappa3" else (m2, m3, 3.0 * m2 ** 2)

        monkeypatch.setattr(cli, "circle_average", cut_average)
        assert cli.main(["clt", "--config", write_cfg(tmp_path, cfg), "--out", str(out)]) == 1
        values = read_result(out)["values"]
        assert values["edgeworth_residual"] > 0.9 * values["gaussian_gap"]

    def test_wrong_subcommand_for_config(self, tmp_path):
        cfg = write_cfg(tmp_path, CONFIGS["functional"])
        rc = cli.main(["dynamics", "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == 2

    def test_moments_subcommand(self, tmp_path):
        cfg = write_cfg(tmp_path, CONFIGS["moments"])
        out = tmp_path / "o"
        assert cli.main(["moments", "--config", cfg, "--out", str(out)]) == 0
        record = read_result(out)
        assert record["values"]["z_score"] < 5.0
        assert record["rng"] == {"seed": 3, "bit_generator": "PCG64", "sampler": "gram"}

    @pytest.mark.parametrize("pq", ["2,2", "3,1"])
    def test_moments_at_uniform_phase_is_the_ryser_permanent(self, tmp_path, pq):
        # mu_hat(2) = 0: perm(<g_i | rho f_j>) when p = q, and exactly 0 otherwise
        fns = [{"name": "gaussian", "label": f"h{j}", "center": j / 4, "modulation": j / 2} for j in range(4)]
        cfg = {**CONFIGS["moments"], "mu2": [0.0, 0.0], "pq": pq, "functions": fns}
        out = tmp_path / "o"
        assert cli.main(["moments", "--config", write_cfg(tmp_path, cfg), "--out", str(out)]) == 0
        closed = read_result(out)["values"]["closed_form"]
        grid = build_grid(GRID)
        battery = [build_test_function(f, grid) for f in fns]
        p = int(pq[0])
        expect = permanent_moment(battery[:p], battery[p:], build_density(DENSITY, grid))
        if p == 2:
            assert complex(closed["re"], closed["im"]) == pytest.approx(expect, rel=1e-12, abs=0)
        else:
            assert expect == 0 and closed == {"re": 0.0, "im": 0.0}

    def test_moments_builds_only_the_functions_of_its_order(self, tmp_path, monkeypatch):
        # --pq 1,1 on 16 functions builds the first two, with the values of
        # the two-function config; the rest are neither built nor capped
        built, build = [], cfgmod.build_test_function
        monkeypatch.setattr(cfgmod, "build_test_function", lambda *args: built.append(args[2]) or build(*args))
        extra = [{"name": "gaussian", "label": f"h{j}", "center": j / 8} for j in range(14)]
        wide = {**CONFIGS["moments"], "functions": CONFIGS["moments"]["functions"] + extra}
        values = []
        for cfg in (wide, CONFIGS["moments"]):
            out = tmp_path / str(len(cfg["functions"]))
            assert cli.main(["moments", "--config", write_cfg(tmp_path, cfg), "--out", str(out), "--pq", "1,1"]) == 0
            values.append(read_result(out)["values"])
        assert built == ["/functions/0", "/functions/1"] * 2
        assert values[0] == values[1]

    def test_gns_check_averaged(self, tmp_path):
        cfg = write_cfg(tmp_path, CONFIGS["gns-check"])
        out = tmp_path / "o"
        assert cli.main(["gns-check", "--config", cfg, "--out", str(out)]) == 0
        record = read_result(out)
        assert record["assertions"][0]["value"] < 1e-9

    def test_dynamics_time_series(self, tmp_path):
        cfg = write_cfg(tmp_path, CONFIGS["dynamics"])
        out = tmp_path / "o"
        assert cli.main(["dynamics", "--config", cfg, "--out", str(out)]) == 0
        with open(out / "dynamics.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 6
        assert float(rows[-1]["metric"]) < float(rows[0]["metric"])

    def test_dynamics_matches_per_t_loop(self, tmp_path):
        """The one-pass table equals single-time sigma_t and the per-t metric oracle."""
        cfg = CONFIGS["dynamics"]
        out = tmp_path / "o"
        assert cli.main(["dynamics", "--config", write_cfg(tmp_path, cfg), "--out", str(out)]) == 0
        with open(out / "dynamics.csv") as fh:
            rows = list(csv.DictReader(fh))
        run = cli.Run(cfg, tmp_path / "inputs")
        battery, rho, mu2, eps = run.battery, run.density, run.mu2, run.dispersion
        ts = parse_t_grid(cfg["t_grid"])
        assert len(rows) == len(ts)
        for t, row in zip(ts, rows):
            assert float(row["t"]) == t
            s = sigma_t(battery[:1], rho, mu2, eps, [float(t)])[0, 0]
            metric = uniformization_gap(battery, rho, mu2, eps, float(t))
            assert float(row["sigma_t"]) == pytest.approx(s, rel=1e-12, abs=1e-15)
            assert float(row["metric"]) == pytest.approx(metric, rel=1e-12, abs=1e-15)

    def test_dynamics_asserts_final_metric_under_its_tolerance(self, tmp_path):
        cfg = CONFIGS["dynamics"]
        assert cli.main(["dynamics", "--config", write_cfg(tmp_path, cfg), "--out", str(tmp_path / "o")]) == 0
        final = read_result(tmp_path / "o")["values"]["final_metric"]
        assert final > 0
        for tol, code in ((2 * final, 0), (final / 2, 1), (final, 1)):
            run_cfg = write_cfg(tmp_path, {**cfg, "tolerances": {"metric_final": tol}})
            assert cli.main(["dynamics", "--config", run_cfg, "--out", str(tmp_path / "o")]) == code
            record = read_result(tmp_path / "o")
            assert record["assertions"] == [{"name": "final_metric", "value": final, "tol": tol, "pass": code == 0}]
            assert record["pass"] == (code == 0)

    def test_dynamics_quadratic_dispersion(self, tmp_path):
        # {"form": "quadratic"} is eps = k^2 on the cell centres
        cfg = {**CONFIGS["dynamics"], "dispersion": {"form": "quadratic"}}
        out = tmp_path / "o"
        assert cli.main(["dynamics", "--config", write_cfg(tmp_path, cfg), "--out", str(out)]) == 0
        run = cli.Run(cfg, tmp_path / "inputs")
        assert np.array_equal(run.dispersion.values, run.grid.axis ** 2)
        with open(out / "dynamics.csv") as fh:
            column = [float(row["sigma_t"]) for row in csv.DictReader(fh)]
        ts = parse_t_grid(cfg["t_grid"])
        expected = sigma_t(run.battery, run.density, run.mu2, run.dispersion, ts)[:, 0]
        np.testing.assert_allclose(column, expected, rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("experiment", ["chi", "gns-check", "dynamics"])
    def test_mu2_defaults_to_0(self, tmp_path, experiment):
        # without mu2 or measure a run reads mu_hat(2) = 0, the uniform measure's
        cfg = {k: v for k, v in CONFIGS[experiment].items() if k != "mu2"}
        assert cli.Run(cfg, tmp_path).mu2 == 0
        values = []
        for changes in ({}, {"mu2": [0.0, 0.0]}):
            run_dir = tmp_path / str(len(values))
            run_dir.mkdir()
            path = write_cfg(run_dir, {**cfg, **changes})
            assert cli.main([experiment, "--config", path, "--out", str(run_dir / "o")]) == 0
            values.append(read_result(run_dir / "o")["values"])
        assert values[0] == values[1]

    def test_decohere_time_series(self, tmp_path):
        cfg = write_cfg(tmp_path, CONFIGS["decohere"])
        out = tmp_path / "o"
        assert cli.main(["decohere", "--config", cfg, "--out", str(out)]) == 0
        with open(out / "decohere.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert list(rows[0]) == ["t", "envelope_gaussian", "envelope_gamma"]
        assert float(rows[0]["envelope_gaussian"]) == 1.0
        assert float(rows[-1]["envelope_gaussian"]) < 1.0
        record = read_result(out)
        # deterministic: no draws, so no rng block and no seed
        assert record["assertions"] == [] and record["pass"]
        assert "rng" not in record and record["seed"] is None
        assert set(record["values"]) == {"element", "gaussian_rate", "rows"}

    @pytest.mark.parametrize("rho", [312.5, 800.0, 45_000.0, 500_000.0])
    def test_gns_check_nmode_strong_mode(self, tmp_path, rho):
        # one mode at k = 0, where fhat = 1: J0 at x = 25 and x = 40, where an
        # alternating float series is off by 5e-9 and 0.1, and at x = 300
        # and 1000, where a fixed 256-node circle rule was off by 0.1
        cfg = {**GNS_NMODE, "modes": [{"k": 0.0, "rho": rho}]}
        out = tmp_path / "o"
        assert cli.main(["gns-check", "--config", write_cfg(tmp_path, cfg), "--out", str(out)]) == 0
        assert read_result(out)["values"]["checks"][0]["residual"] < 1e-12

    def test_diverge_slope(self, tmp_path):
        cfg = write_cfg(tmp_path, CONFIGS["diverge"])
        out = tmp_path / "o"
        assert cli.main(["diverge", "--config", cfg, "--out", str(out)]) == 0
        record = read_result(out)
        assert abs(record["values"]["slope"] - 0.5) < 0.05
        assert [a["name"] for a in record["assertions"]] == ["conclusive", "slope"]

    def test_diverge_asserts_slope_by_default(self, tmp_path):
        cfg = {k: v for k, v in CONFIGS["diverge"].items() if k != "tolerances"}
        out = tmp_path / "o"
        assert cli.main(["diverge", "--config", write_cfg(tmp_path, cfg), "--out", str(out)]) == 0
        record = read_result(out)
        slope = record["assertions"][1]
        assert [a["name"] for a in record["assertions"]] == ["conclusive", "slope"]
        assert slope == {"name": "slope", "value": record["values"]["slope"], "tol": 0.05, "pass": True}

    def test_diverge_inconclusive_fit_fails(self, tmp_path):
        # a zero density makes every mode sum vanish, a narrow fhat all but two:
        # no slope, no NaN and no log(0) warning, and a failed run
        for name, cfg in (("zero", DIVERGE_ZERO), ("narrow", DIVERGE_NARROW)):
            out = tmp_path / name
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert cli.main(["diverge", "--config", write_cfg(tmp_path, cfg), "--out", str(out)]) == 1
            for output in ("diverge.json", "result.json"):
                assert "NaN" not in (out / output).read_text()
            record = read_result(out)
            assert record["values"]["slope"] is None and not record["values"]["conclusive"]
            assert record["assertions"] == [{"name": "conclusive", "value": 0.0, "tol": 1e-12, "pass": False}]
            assert json.loads((out / "diverge.json").read_text())["slope"] is None

    def test_results_are_strict_json(self, tmp_path):
        """No result.json carries NaN or Infinity, which strict JSON refuses."""

        def refuse(constant):
            raise ValueError(f"non-finite number {constant} in result.json")

        for name, cfg in {**CONFIGS, "diverge-zero": DIVERGE_ZERO}.items():
            out = tmp_path / name
            out.mkdir()
            assert cli.main([cfg["experiment"], "--config", write_cfg(out, cfg), "--out", str(out)]) in (0, 1)
            json.loads((out / "result.json").read_text(), parse_constant=refuse)

    def test_rarefied_convergence_table(self, tmp_path):
        cfg = write_cfg(tmp_path, CONFIGS["rarefied"])
        out = tmp_path / "o"
        assert cli.main(["rarefied", "--config", cfg, "--out", str(out)]) == 0
        with open(out / "rarefied.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert float(rows[-1]["abs_error"]) < 0.01

    def test_chi_sample_table(self, tmp_path):
        cfg = write_cfg(tmp_path, CONFIGS["chi"])
        out = tmp_path / "o"
        assert cli.main(["chi", "--config", cfg, "--out", str(out)]) == 0
        with open(out / "chi_samples.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 200
        record = read_result(out)
        assert [a["name"] for a in record["assertions"]] == ["mean_re_chi[f]", "var_re_chi[f]"]
        assert record["pass"] and all(a["pass"] for a in record["assertions"])
        assert record["rng"] == {"seed": 5, "bit_generator": "PCG64", "sampler": "gram"}
        values = record["values"]["f"]
        assert values["mean_re_chi_se"] == pytest.approx(math.sqrt(values["var_re_chi"] / 200), rel=1e-12)
        assert values["var_re_chi_se"] == pytest.approx(values["var_re_chi"] * math.sqrt(2.0 / 199), rel=1e-12)
        assert values["mean_re_chi_se"] > 0 and values["var_re_chi_se"] > 0

    @pytest.mark.parametrize(
        "labels",
        [
            pytest.param(["f", "g"], id="plain"),
            pytest.param(["a,b", 'q"x', '""', ""], id="quoted"),
            pytest.param(["χ(f)", "café", "g"], id="non-ascii"),
            pytest.param(["a\x00b", "\x00", "c"], id="nul"),
        ],
    )
    def test_chi_csv_matches_per_row_loop(self, tmp_path, monkeypatch, labels):
        """The block-built chi_samples.csv equals the bytes csv.writer writes
        row by row for the same chi draws, with labels that need quoting, an
        empty one, non-ASCII ones and ones holding a NUL byte (which
        csv.writer writes unchanged), over blocks that do not divide the
        sample count."""
        drawn = []

        def recording_sampler(*args):
            drawn.append(real_sampler(*args))
            return drawn[-1]

        real_sampler = cli.sample_chi_gram
        monkeypatch.setattr(cli, "sample_chi_gram", recording_sampler)
        monkeypatch.setattr(cli, "CSV_CELLS", 1000)
        fns = [
            {"name": "gaussian", "label": label, "center": 0.5 * j, "modulation": 1.0 - j}
            for j, label in enumerate(labels)
        ]
        cfg = {**CONFIGS["chi"], "mu2": [0.3, 0.2], "functions": fns}
        out = tmp_path / "o"
        assert cli.main(["chi", "--config", write_cfg(tmp_path, cfg), "--out", str(out)]) == 0
        (chis,) = drawn
        run = cli.Run(cfg, tmp_path / "inputs")
        fock = [cli.fock_functional(f).value for f in run.battery]
        rows = []
        for i in range(chis.shape[0]):
            for j, label in enumerate(run.labels):
                val = fock[j] * np.exp(1j * chis[i, j].real)
                rows.append([i, label, chis[i, j].real, chis[i, j].imag, val.real, val.imag])
        header = ["sample", "label", "chi_re", "chi_im", "functional_re", "functional_im"]
        assert (out / "chi_samples.csv").read_bytes() == csv_writer_bytes(tmp_path, header, rows)

    def test_draws_equal_csv_writer_on_special_floats(self, tmp_path, monkeypatch):
        """Floats that `repr_chars` hands to repr (zeros, subnormals, inf,
        nan, exponent forms, powers of two) and sample numbers across a
        change of digit count keep write_csv equal to csv.writer, in a
        numbered, labelled table and in a plain one."""
        monkeypatch.setattr(cli, "CSV_CELLS", 28)  # 7 samples of 2 labels x 2 columns
        special = [0.0, -0.0, 5e-324, -np.inf, np.inf, np.nan, 1e-5, -2.5e16, 0.5, -1024.0, 0.1, 1e15]
        first = np.resize(np.array(special), (12, 2))
        columns = [first, -first[::-1]]
        run = cli.Run({}, tmp_path / "o")
        run.write_csv("t.csv", ["sample", "label", "a", "b"], columns, labels=["x", "y"], numbered=True)
        rows = [
            [i, label, float(columns[0][i, j]), float(columns[1][i, j])]
            for i in range(12)
            for j, label in enumerate(["x", "y"])
        ]
        expected = csv_writer_bytes(tmp_path, ["sample", "label", "a", "b"], rows)
        assert (tmp_path / "o" / "t.csv").read_bytes() == expected
        run.write_csv("p.csv", ["a", "b"], [col.ravel() for col in columns])
        rows = [[float(a), float(b)] for a, b in zip(*[col.ravel() for col in columns])]
        assert (tmp_path / "o" / "p.csv").read_bytes() == csv_writer_bytes(tmp_path, ["a", "b"], rows)

    @pytest.mark.parametrize(
        "name, header, columns, labels",
        [
            pytest.param(
                "chi_samples.csv", ["sample", "label", "a", "b"], [np.zeros((200, 1))] * 2, ["f"], id="chi"
            ),
            pytest.param("dynamics.csv", ["t", "sigma_t", "metric"], [np.zeros(200)] * 3, None, id="plain"),
        ],
    )
    def test_failed_writer_raises_and_cleans_up(self, tmp_path, monkeypatch, name, header, columns, labels):
        """A block that raises, after earlier blocks were written, makes
        write_csv raise; no partial output is left and none is listed."""
        blocks = []

        def failing_rows(*args):
            blocks.append(args)
            if len(blocks) == 2:
                raise OSError("no space left")
            return real_rows(*args)

        real_rows = cli._table_rows
        monkeypatch.setattr(cli, "_table_rows", failing_rows)
        monkeypatch.setattr(cli, "CSV_CELLS", 192)  # 64 or 96 rows a block
        run = cli.Run({}, tmp_path / "o")
        with pytest.raises(OSError):
            run.write_csv(name, header, columns, labels=labels, numbered=labels is not None)
        assert len(blocks) == 2
        assert [p.name for p in (tmp_path / "o").iterdir()] == []
        assert run.outputs == []

    @pytest.mark.parametrize("kind", ["fock", "nmode", "averaged", "rarefied"])
    def test_functional_csv_matches_per_row_loop(self, tmp_path, kind):
        """functional.csv equals the bytes csv.writer writes row by row, with
        an empty cell for a sigma_sq or phase that the kind does not set."""
        fns = [
            GAUSS_F,
            {"name": "gaussian", "label": 'a,"b', "center": 0.5, "modulation": -2.0},
            {"name": "box", "label": "", "lo": 0.1, "hi": 0.9},
            {"name": "plane_wave", "label": "χ", "x0": 0.7, "lo": -1.0, "hi": 2.0},
        ]
        # the keys that this kind reads beside the battery
        reads = {
            "fock": {},
            "nmode": {"modes": [{"k": 0.3, "rho": 0.5, "theta": 0.2}, {"k": -1.1, "rho": 0.2}]},
            "averaged": {"density": DENSITY, "measure": {"kind": "uniform"}},
            "rarefied": {key: CONFIGS["rarefied"][key] for key in ("alpha", "sigma", "a", "b")},
        }
        cfg = {**CONFIGS["functional"], "kind": kind, "functions": fns, **reads[kind]}
        out = tmp_path / "o"
        assert cli.main(["functional", "--config", write_cfg(tmp_path, cfg), "--out", str(out)]) == 0
        run = cli.Run(cfg, tmp_path / "inputs")
        value = {
            "fock": lambda f: cli.fock_functional(f),
            "nmode": lambda f: cli.n_mode_functional(f, run.modes),
            "averaged": lambda f: cli.phase_averaged_functional(f, run.density, run.mu2),
            "rarefied": lambda f: cli.rarefied_functional(f, *run.rarefied),
        }[kind]
        rows = []
        for f, label in zip(run.battery, run.labels):
            fv = value(f)
            optional = ["" if v is None else v for v in (fv.sigma_sq, fv.phase)]
            rows.append([label, fv.value.real, fv.value.imag, fv.modulus, fv.fock_exponent, *optional])
        header = ["label", "re", "im", "modulus", "fock_exponent", "sigma_sq", "phase"]
        assert (out / "functional.csv").read_bytes() == csv_writer_bytes(tmp_path, header, rows)
        assert sum(row[5] == "" for row in rows) == (0 if kind == "averaged" else len(fns))

    def test_clt_csv_matches_per_row_loop(self, tmp_path, monkeypatch):
        # the table of phi_N, the Gaussian and the Edgeworth form at each s,
        # written in blocks of 20 rows
        written, write = [], cli.Run.write_csv

        def recording_write(run, name, header, columns, **kwargs):
            written.append((header, columns))
            return write(run, name, header, columns, **kwargs)

        monkeypatch.setattr(cli.Run, "write_csv", recording_write)
        monkeypatch.setattr(cli, "CSV_CELLS", 100)
        out = tmp_path / "o"
        assert cli.main(["clt", "--config", write_cfg(tmp_path, CLT_ATOMS), "--out", str(out)]) == 0
        ((header, columns),) = written
        assert header == ["s", "phi_re", "phi_im", "gaussian", "edgeworth_re", "edgeworth_im"]
        s, phi_re, phi_im, gauss = columns[:4]
        sigma = read_result(out)["values"]["sigma"]
        assert np.array_equal(s, cli.CLT_S / sigma) and np.array_equal(gauss, np.exp(-0.5 * cli.CLT_S ** 2))
        run = cli.Run(CLT_ATOMS, tmp_path / "inputs")
        phi = np.exp(log_phase_product(run.measure, cell_amplitudes(run.function, run.density), s))
        assert np.array_equal(phi_re, phi.real) and np.array_equal(phi_im, phi.imag)
        rows = [list(row) for row in zip(*(np.asarray(col).tolist() for col in columns))]
        assert len(rows) == 31
        assert (out / "clt.csv").read_bytes() == csv_writer_bytes(tmp_path, header, rows)

    def test_dynamics_csv_matches_per_row_loop(self, tmp_path):
        """dynamics.csv over a long t-grid, whose late metrics are below 1e-4
        and so written in exponent form, equals csv.writer's bytes."""
        cfg = {**CONFIGS["dynamics"], "t_grid": "0:100:0.1"}
        out = tmp_path / "o"
        assert cli.main(["dynamics", "--config", write_cfg(tmp_path, cfg), "--out", str(out)]) == 0
        run = cli.Run(cfg, tmp_path / "inputs")
        ts = parse_t_grid(cfg["t_grid"])
        unif = variances(run.battery, run.density, 0.0)
        sig = sigma_t(run.battery, run.density, run.mu2, run.dispersion, ts, unif)
        metric = cli.uniformization_curve(run.battery, unif, sig)
        assert np.sum(metric < 1e-4) > 10
        rows = [[t, s, m] for t, s, m in zip(ts.tolist(), sig[:, 0].tolist(), metric.tolist())]
        expected = csv_writer_bytes(tmp_path, ["t", "sigma_t", "metric"], rows)
        assert (out / "dynamics.csv").read_bytes() == expected

    def test_decohere_csv_matches_per_row_loop(self, tmp_path):
        cfg = {**CONFIGS["decohere"], "t_grid": "0:20:0.25"}
        out = tmp_path / "o"
        assert cli.main(["decohere", "--config", write_cfg(tmp_path, cfg), "--out", str(out)]) == 0
        run = cli.Run(cfg, tmp_path / "inputs")
        g = build_test_function(cfg["form_factor"], run.grid)
        ts = parse_t_grid(cfg["t_grid"])
        rate = cli.sigma_mu_sq(g, run.density, 0.0)
        dg = -1.0  # couplings[0] - couplings[1]
        gaussian, decay = cli.envelopes(dg, g, run.dispersion, ts, rate)
        rows = list(zip(ts.tolist(), gaussian.tolist(), decay.tolist()))
        header = ["t", "envelope_gaussian", "envelope_gamma"]
        assert (out / "decohere.csv").read_bytes() == csv_writer_bytes(tmp_path, header, rows)

    @pytest.mark.parametrize("t_grid", [None, "0:40:0.1"], ids=["config", "long"])
    @pytest.mark.parametrize("form", ["photon", "quadratic"])
    def test_decohere_csv_matches_fsum_oracle(self, tmp_path, form, t_grid):
        cfg = {**CONFIGS["decohere"], "dispersion": {"form": form}}
        cfg = cfg if t_grid is None else {**cfg, "t_grid": t_grid}
        out = tmp_path / "o"
        assert cli.main(["decohere", "--config", write_cfg(tmp_path, cfg), "--out", str(out)]) == 0
        run = cli.Run(cfg, tmp_path / "inputs")
        g = build_test_function(cfg["form_factor"], run.grid)
        rate = cli.sigma_mu_sq(g, run.density, 0.0)
        with open(out / "decohere.csv") as fh:
            rows = [[float(v) for v in row.values()] for row in csv.DictReader(fh)]
        assert [row[0] for row in rows] == parse_t_grid(cfg["t_grid"]).tolist()
        for t, gaussian, decay in rows:  # couplings [0, 1]: dg^2 = 1
            assert gaussian == pytest.approx(math.exp(-0.5 * t * t * rate), rel=1e-14)
            assert decay == pytest.approx(math.exp(-0.5 * gamma_fsum(t, g, run.dispersion)), rel=1e-14)

    def test_rarefied_csv_matches_per_row_loop(self, tmp_path):
        cfg = {**CONFIGS["rarefied"], "L_values": [1.0, 10.0, 1000.0, 1e5, 1e7]}
        out = tmp_path / "o"
        assert cli.main(["rarefied", "--config", write_cfg(tmp_path, cfg), "--out", str(out)]) == 0
        run = cli.Run(cfg, tmp_path / "inputs")
        limit = cli.rarefied_functional(run.battery[0], *run.rarefied)
        rows = []
        for L in cfg["L_values"]:
            phase = cli.rarefied_finite_volume_phase(run.battery[0], *run.rarefied, L)
            rows.append([L, phase, abs(phase - limit.phase)])
        expected = csv_writer_bytes(tmp_path, ["L", "phase", "abs_error"], rows)
        assert (out / "rarefied.csv").read_bytes() == expected


class TestCliContract:
    """Bad inputs exit 2 with a JSON pointer; override flags set config keys."""

    def run_cli(self, tmp_path, cfg, *flags, command=None):
        path = write_cfg(tmp_path, cfg)
        command = command or cfg["experiment"]
        return cli.main([command, "--config", path, "--out", str(tmp_path / "o"), *flags])

    def test_configs_cover_the_table(self):
        assert sorted(CONFIGS) == sorted(cli.EXPERIMENTS)

    @pytest.mark.parametrize("experiment", sorted(cli.EXPERIMENTS))
    def test_subcommand_offers_the_flags_of_its_row(self, experiment):
        # the flags of the keys the experiment reads, of any kind or rep
        keys = cli.experiment_keys(experiment) & cli.FLAGS.keys()
        for key, (kind, _) in cli.FLAGS.items():
            argv = [experiment, "--config", "c.json", "--" + key.replace("_", "-"), "1"]
            if key in keys:
                args = cli.parser().parse_args(argv)
                assert getattr(args, key) == kind("1")
            else:
                with pytest.raises(SystemExit) as exc:
                    cli.parser().parse_args(argv)
                assert exc.value.code == 2
        args = cli.parser().parse_args([experiment, "--config", "c.json"])
        assert set(vars(args)) == {"command", "config", "out", *keys}

    def test_readme_key_table_is_the_experiment_table(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        assert key_table() in readme

    @pytest.mark.parametrize("name", sorted(VARIANTS))
    def test_run_reads_its_declared_keys(self, tmp_path, name):
        # a key read but not declared would be refused whenever a config
        # gives it, and a key declared but read by no config may be one that
        # no handler reads at all
        seen, declared = recorded_reads(VARIANTS[name], tmp_path / "o")
        assert seen <= declared, f"read but not declared: {sorted(seen - declared)}"
        assert declared <= seen, f"declared but read by no config: {sorted(declared - seen)}"

    def test_recording_sees_absent_keys(self, tmp_path):
        seen = set()
        run = cli.Run(RecordingConfig(CONFIGS["dynamics"], seen), tmp_path)
        assert run.cfg.get("t_gird") is None and run.tol("metric_finall") is None
        assert {"t_gird", "tolerances/metric_finall"} <= seen

    @pytest.mark.parametrize("name", sorted(VARIANTS))
    def test_undeclared_key_exits_2(self, tmp_path, capsys, name):
        # every key that some experiment reads and this one does not (such as
        # the seed of a deterministic run), then a key that none reads and a
        # tolerance that this one does not read: at the parent a misspelt
        # t_gird ran the default t-grid, and a metric_finall tolerance
        # passed dynamics with no assertion at all
        cfg = VARIANTS[name]
        read = set(cli.Run(cfg, tmp_path).reads)
        others = {key for experiment in cli.EXPERIMENTS for key in cli.experiment_keys(experiment)} - read
        changes = [({key: 1}, f"/{key}") for key in sorted(others) if "/" not in key]
        tols = {**cfg.get("tolerances", {}), "metric_finall": 0.5}
        changes += [({"t_gird": "0:5:0.1"}, "/t_gird"), ({"tolerances": tols}, "/tolerances/metric_finall")]
        for change, pointer in changes:
            assert self.run_cli(tmp_path, {**cfg, **change}) == 2, pointer
            assert capsys.readouterr().err.startswith(f"error: {pointer}: not read by "), pointer
            assert not (tmp_path / "o").exists()

    def test_flag_of_another_row_exits_2(self, tmp_path, capsys):
        # a deterministic run takes no seed, so --seed is no flag of dynamics
        with pytest.raises(SystemExit) as exc:
            self.run_cli(tmp_path, CONFIGS["dynamics"], "--seed", "1")
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed 1" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "experiment",
        ["nope", None, ["chi"], {"name": "chi"}, 3],
        ids=["unknown", "missing", "list", "object", "number"],
    )
    def test_unknown_experiment_exits_2(self, tmp_path, capsys, experiment):
        cfg = {k: v for k, v in CONFIGS["chi"].items() if k != "experiment"}
        if experiment is not None:
            cfg["experiment"] = experiment
        assert self.run_cli(tmp_path, cfg, command="chi") == 2
        assert capsys.readouterr().err.startswith("error: /experiment: ")
        assert not (tmp_path / "o").exists()

    def test_parser_is_built_once(self, tmp_path, monkeypatch):
        built, init = [], argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        cli.parser.cache_clear()
        try:
            for _ in range(2):
                assert self.run_cli(tmp_path, CONFIGS["functional"]) == 0
        finally:
            cli.parser.cache_clear()
        # the top-level parser, then one subparser per experiment, each once
        assert built == ["cohlim", *(f"cohlim {name}" for name in sorted(cli.EXPERIMENTS))]

    def test_override_does_not_outlive_its_call(self, tmp_path):
        for flags, seed, samples in ((("--seed", "9", "--samples", "300"), 9, 300), ((), 5, 200)):
            assert self.run_cli(tmp_path, CONFIGS["chi"], *flags) == 0
            with open(tmp_path / "o" / "chi_samples.csv") as fh:
                rows = len(fh.readlines()) - 1
            assert (read_result(tmp_path / "o")["seed"], rows) == (seed, samples)

    @pytest.mark.parametrize("experiment", ["chi", "diverge"])
    @pytest.mark.parametrize(
        "density, pointer",
        [
            ({"name": "gaussian", "amplitude": [0, 1]}, "/density/amplitude"),
            ({"name": "gaussian", "amplitude": [1, 5]}, "/density/amplitude"),
            ({"name": "box", "amplitude": -1}, "/density/amplitude"),
            ({"name": "gaussian", "modulation": 1.0}, "/density/modulation"),
            ({"name": "plane_wave", "x0": 0.5}, "/density/x0"),
        ],
    )
    def test_density_not_real_and_nonnegative_exits_2(self, tmp_path, capsys, experiment, density, pointer):
        assert self.run_cli(tmp_path, {**CONFIGS[experiment], "density": density}) == 2
        assert capsys.readouterr().err.startswith(f"error: {pointer}: ")
        assert not (tmp_path / "o" / "result.json").exists()

    @pytest.mark.parametrize("im, pointer", [(0.0, None), (5.0, "/density/values_file")])
    def test_density_values_file_is_real(self, tmp_path, capsys, im, pointer):
        path = tmp_path / "rho.bin"
        path.write_bytes(struct.pack("<dd", 1.0, im) * GRID["N"])
        cfg = {**CONFIGS["dynamics"], "density": {"values_file": str(path)}}
        assert self.run_cli(tmp_path, cfg) == (0 if pointer is None else 2)
        if pointer is not None:
            assert capsys.readouterr().err.startswith(f"error: {pointer}: ")

    @pytest.mark.parametrize("experiment", ["dynamics", "diverge"])
    def test_density_amplitude_may_be_a_real_pair(self, tmp_path, experiment):
        values = []
        for amplitude in (2, [2, 0]):
            density = {**CONFIGS[experiment]["density"], "amplitude": amplitude}
            assert self.run_cli(tmp_path, {**CONFIGS[experiment], "density": density}) == 0
            values.append(read_result(tmp_path / "o")["values"])
        assert values[0] == values[1]

    @pytest.mark.parametrize("experiment", ["functional", "chi", "gns-check"])
    @pytest.mark.parametrize(
        "fns",
        [
            [{"name": "gaussian"}, {"name": "gaussian", "center": 1.0}],
            [{**GAUSS_F, "label": "f1"}, {**GAUSS_F, "label": ""}],
        ],
        ids=["default-labels", "key-of-empty-label"],
    )
    def test_repeated_label_exits_2(self, tmp_path, capsys, experiment, fns):
        # each function's values sit under its label in result.json, where
        # a repeat would overwrite the earlier function's results
        assert self.run_cli(tmp_path, {**CONFIGS[experiment], "functions": fns}) == 2
        assert capsys.readouterr().err.startswith("error: /functions/1: ")
        assert not (tmp_path / "o" / "result.json").exists()

    @pytest.mark.parametrize("experiment, table", [("functional", "functional.csv"), ("chi", "chi_samples.csv")])
    def test_csv_labels_are_the_result_keys(self, tmp_path, experiment, table):
        # two unlabelled functions are keyed f0 and f1 in result.json, and
        # the label column of the CSV names them the same way
        fns, k = [], build_grid(GRID).axis
        for j in range(2):
            path = tmp_path / f"v{j}.bin"
            path.write_bytes(np.column_stack([np.exp(-((k - j) ** 2)), np.zeros_like(k)]).astype("<f8").tobytes())
            fns.append({"values_file": str(path)})
        assert self.run_cli(tmp_path, {**CONFIGS[experiment], "functions": fns}) == 0
        with open(tmp_path / "o" / table) as fh:
            labels = [row["label"] for row in csv.DictReader(fh)]
        keys = list(read_result(tmp_path / "o")["values"])
        assert keys == ["f0", "f1"]
        assert labels == keys * (len(labels) // 2)

    @pytest.mark.parametrize("experiment", sorted(CONFIGS))
    def test_every_experiment_asserts(self, tmp_path, experiment):
        # an experiment with no assertion passes whatever it computes; an
        # allow-listed one that starts asserting fails here too, so the list
        # only shrinks
        assert self.run_cli(tmp_path, CONFIGS[experiment]) == 0
        asserted = bool(read_result(tmp_path / "o")["assertions"])
        assert asserted != (experiment in UNASSERTED), UNASSERTED.get(experiment, "no assertion")

    @pytest.mark.parametrize("experiment", SEEDED)
    def test_stochastic_requires_seed(self, tmp_path, capsys, experiment):
        # the seed may come from the config or from --seed
        cfg = {k: v for k, v in CONFIGS[experiment].items() if k != "seed"}
        assert self.run_cli(tmp_path, cfg) == 2
        assert capsys.readouterr().err.startswith("error: /seed: ")
        assert not (tmp_path / "o" / "result.json").exists()
        assert self.run_cli(tmp_path, cfg, "--seed", "5") == 0
        assert read_result(tmp_path / "o")["seed"] == 5

    def test_moments_may_repeat_a_function(self, tmp_path):
        fns = [{"name": "gaussian"}, {"name": "gaussian"}]
        assert self.run_cli(tmp_path, {**CONFIGS["moments"], "functions": fns}) == 0

    @pytest.mark.parametrize("experiment, key", REQUIRED_KEYS)
    def test_missing_key_exits_2(self, tmp_path, capsys, experiment, key):
        cfg = {k: v for k, v in CONFIGS[experiment].items() if k != key}
        assert self.run_cli(tmp_path, cfg) == 2
        assert f"/{key}:" in capsys.readouterr().err

    @pytest.mark.parametrize("experiment, key", REQUIRED_KEYS)
    def test_config_error_leaves_no_output_directory(self, tmp_path, experiment, key):
        # the --out directory is made by the first write, so a run refused at
        # a config key leaves nothing behind, as an argparse error does
        cfg = {k: v for k, v in CONFIGS[experiment].items() if k != key}
        assert self.run_cli(tmp_path, cfg) == 2
        assert not (tmp_path / "o").exists()
        assert self.run_cli(tmp_path, CONFIGS[experiment]) == 0
        assert (tmp_path / "o" / "result.json").exists()

    @pytest.mark.parametrize("experiment, samples", [(name, SAMPLE_BOUNDS[name][0] - 1) for name in SAMPLED])
    def test_too_few_samples_exits_2(self, tmp_path, capsys, experiment, samples):
        assert self.run_cli(tmp_path, CONFIGS[experiment], "--samples", str(samples)) == 2
        assert "/samples:" in capsys.readouterr().err

    @pytest.mark.usefixtures("unbuildable")
    @pytest.mark.parametrize(
        "experiment, samples",
        [(name, cfgmod.MAX_CELLS // SAMPLE_BOUNDS[name][1] + 1) for name in SAMPLED]
        + [(name, 10**12) for name in SAMPLED],
    )
    def test_draw_table_above_cap_exits_2(self, tmp_path, capsys, experiment, samples):
        # the smallest count over the cap, then one whose table would need terabytes
        assert self.run_cli(tmp_path, CONFIGS[experiment], "--samples", str(samples)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: /samples: ") and "Traceback" not in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.usefixtures("unbuildable")
    @pytest.mark.parametrize("experiment, name", TOLERANCES)
    @pytest.mark.parametrize("value", [0, -1])
    def test_tolerance_not_above_0_exits_2(self, tmp_path, capsys, experiment, name, value):
        # refused with the unread keys
        assert self.run_cli(tmp_path, {**CONFIGS[experiment], "tolerances": {name: value}}) == 2
        assert capsys.readouterr().err == f"error: /tolerances/{name}: must be > 0.0, got {value}\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("pq", ["2,x", "-1,2", "3"])
    def test_bad_pq_exits_2(self, tmp_path, capsys, pq):
        assert self.run_cli(tmp_path, CONFIGS["moments"], f"--pq={pq}") == 2
        assert "/pq:" in capsys.readouterr().err

    def test_moment_order_above_cap_exits_2(self, tmp_path, capsys):
        fns = [{**GAUSS_F, "center": 0.1 * i, "label": f"f{i}"} for i in range(26)]
        cfg = {**CONFIGS["moments"], "grid": {"d": 1, "R": 4.0, "N": 64}, "functions": fns}
        assert self.run_cli(tmp_path, cfg, "--pq", "13,13") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: /pq:") and "Traceback" not in err
        assert not (tmp_path / "o" / "result.json").exists()

    @pytest.mark.parametrize(
        "experiment, mu2",
        [
            ("dynamics", "x"),
            ("chi", 2.0),
            ("dynamics", [3.0, 0.0]),
            ("moments", [0.8, 0.8]),
            ("gns-check", [0.5]),
            ("dynamics", [0.5, "y"]),
        ],
    )
    def test_bad_mu2_exits_2(self, tmp_path, capsys, experiment, mu2):
        assert self.run_cli(tmp_path, {**CONFIGS[experiment], "mu2": mu2}) == 2
        assert "/mu2:" in capsys.readouterr().err

    @pytest.mark.parametrize("experiment", ["chi", "gns-check", "clt", "functional-averaged"])
    def test_mu2_disagreeing_with_measure_exits_2(self, tmp_path, capsys, experiment):
        # the uniform measure has mu_hat(2) = 0; mu2 = 0.5 would silently replace it
        base = FUNCTIONAL_AVERAGED if experiment == "functional-averaged" else CONFIGS[experiment]
        cfg = {**base, "measure": {"kind": "uniform"}, "mu2": [0.5, 0.0]}
        assert self.run_cli(tmp_path, cfg) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: /mu2: ") and "(0.5+0j)" in err and "0j" in err.split("mu_hat(2)")[1]
        assert not (tmp_path / "o" / "result.json").exists()

    @pytest.mark.parametrize("experiment", ["chi", "gns-check"])
    def test_mu2_matching_measure_runs(self, tmp_path, experiment):
        # opposite-pair atoms have mu_hat(2) = -1 to rounding
        atoms = [[math.pi / 2, 0.5], [3 * math.pi / 2, 0.5]]
        cfg = {**CONFIGS[experiment], "measure": {"kind": "atoms", "atoms": atoms}, "mu2": [-1.0, 0.0]}
        assert self.run_cli(tmp_path, cfg) == 0

    @pytest.mark.parametrize("samples", ["abc", 2.5])
    @pytest.mark.parametrize("experiment", SAMPLED)
    def test_non_integer_samples_exits_2(self, tmp_path, capsys, experiment, samples):
        assert self.run_cli(tmp_path, {**CONFIGS[experiment], "samples": samples}) == 2
        assert "/samples:" in capsys.readouterr().err

    @pytest.mark.parametrize("couplings", [[1.0], []])
    def test_bad_levels_exit_2(self, tmp_path, capsys, couplings):
        cfg = {**CONFIGS["decohere"], "couplings": couplings}
        assert self.run_cli(tmp_path, cfg) == 2
        assert "/couplings:" in capsys.readouterr().err

    @pytest.mark.parametrize("element", [[0, 5], [1, 1], [-1, 0], [0], [0, 1, 1], "01", [0, 1.0]])
    def test_bad_element_exits_2(self, tmp_path, capsys, element):
        assert self.run_cli(tmp_path, {**CONFIGS["decohere"], "element": element}) == 2
        assert "/element:" in capsys.readouterr().err

    @pytest.mark.parametrize("dispersion", [{"form": "samples", "values": [1.0, 2.0]}, {"form": "samples"}])
    def test_bad_sampled_dispersion_exits_2(self, tmp_path, capsys, dispersion):
        assert self.run_cli(tmp_path, {**CONFIGS["dynamics"], "dispersion": dispersion}) == 2
        assert "/dispersion:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "experiment, key, value, pointer",
        [
            ("chi", "functions", [3], "/functions/0"),
            ("chi", "functions", [GAUSS_F, {"name": "gaussian", "center": "x"}], "/functions/1"),
            ("chi", "density", "gaussian", "/density"),
            ("dynamics", "density", {"name": "gaussian", "width": [1.0]}, "/density"),
            ("decohere", "form_factor", {"name": "box", "amplitude": "big"}, "/form_factor"),
            ("diverge", "function", 3, "/function"),
            ("decohere", "couplings", [0.0, "one"], "/couplings"),
            ("decohere", "couplings", "0 1", "/couplings"),
        ],
    )
    def test_malformed_descriptor_exits_2(self, tmp_path, capsys, experiment, key, value, pointer):
        assert self.run_cli(tmp_path, {**CONFIGS[experiment], key: value}) == 2
        assert f"{pointer}:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "experiment, key, value",
        MALFORMED_CASES,
        ids=lambda v: json.dumps(v) if isinstance(v, (list, dict)) else None,
    )
    def test_malformed_value_never_raises(self, tmp_path, capsys, experiment, key, value):
        base = FUZZ_BASES[experiment]
        path = write_cfg(tmp_path, with_value(base, key, value))
        rc = cli.main([base["experiment"], "--config", path, "--out", str(tmp_path / "o")])
        assert rc in (0, 1, 2)
        if rc == 2:
            assert capsys.readouterr().err.startswith("error: /")

    @pytest.mark.parametrize(
        "experiment, changes, pointer",
        [
            ("functional", {"kind": "nmode", "modes": [{"k": 1.0}]}, "/modes"),
            # a momentum needs one component per grid axis, here d = 1
            ("functional", {"kind": "nmode", "modes": [{"k": [1.0, 2.0], "rho": 1}]}, "/modes/0/k"),
            ("gns-check", {"rep": "nmode", "modes": [{"k": [1.0, 2.0], "rho": 1}]}, "/modes/0/k"),
            (
                "functional",
                {"kind": "nmode", "modes": [{"k": 1.0, "rho": 1}, {"k": [1.0, 2.0], "rho": 1}]},
                "/modes/1/k",
            ),
            ("chi", {"seed": True}, "/seed"),
            ("diverge", {"tolerances": "x"}, "/tolerances"),
            ("diverge", {"n_list": [64, 128]}, "/n_list"),
            ("rarefied", {"sigma": -1}, "/sigma"),
            ("rarefied", {"L_values": [0]}, "/L_values"),
            ("chi", {"functions": [{**GAUSS_F, "label": [0]}]}, "/functions/0"),
            # centred between two cells, a zero width gives fhat = 0 everywhere
            ("functional", {"functions": [{**GAUSS_F, "width": 0, "center": 1 / 128}]}, "/functions/0"),
        ],
    )
    def test_bad_value_exits_2(self, tmp_path, capsys, experiment, changes, pointer):
        base = GNS_NMODE if changes.get("rep") == "nmode" else CONFIGS[experiment]
        assert self.run_cli(tmp_path, {**base, **changes}) == 2
        assert f"{pointer}:" in capsys.readouterr().err

    def test_mode_momentum_may_be_a_number_in_one_dimension(self, tmp_path):
        values = []
        for k in (0.5, [0.5]):
            cfg = {**CONFIGS["functional"], "kind": "nmode", "modes": [{"k": k, "rho": 1}]}
            assert self.run_cli(tmp_path, cfg) == 0
            values.append(read_result(tmp_path / "o")["values"])
        assert values[0] == values[1]

    @pytest.mark.parametrize(
        "experiment, changes, pointer",
        [
            ("diverge", {"d": 0}, "/d"),
            ("diverge", {"d": 4}, "/d"),
            ("diverge", {"R": 0.0}, "/R"),
            ("diverge", {"R": -2}, "/R"),
            ("diverge", {"n_list": [64, 128, 256, 1]}, "/n_list"),
            ("chi", {"samples": 1}, "/samples"),
            ("moments", {"samples": 10}, "/samples"),
            ("rarefied", {"sigma": 0}, "/sigma"),
            ("rarefied", {"L_values": [10.0, -1.0]}, "/L_values"),
        ],
    )
    def test_out_of_bounds_exits_2(self, tmp_path, capsys, experiment, changes, pointer):
        # each bound is checked by the strict number reader of its key
        assert self.run_cli(tmp_path, {**CONFIGS[experiment], **changes}) == 2
        assert capsys.readouterr().err.startswith(f"error: {pointer}: ")

    @pytest.mark.parametrize("experiment", ["chi", "moments", "dynamics"])
    def test_point_mass_measure_exits_2(self, tmp_path, capsys, experiment):
        # mu_hat(1) = 1: the mode limit diverges, so the measure is refused
        # even where only its mu_hat(2) is read
        cfg = {k: v for k, v in CONFIGS[experiment].items() if k != "mu2"}
        assert self.run_cli(tmp_path, {**cfg, "measure": {"kind": "atoms", "atoms": [[0, 1]]}}) == 2
        assert capsys.readouterr().err.startswith("error: /measure: mu_hat_1 nonzero")
        assert not (tmp_path / "o" / "result.json").exists()

    def test_averaged_functional_takes_mu2_without_measure(self, tmp_path):
        cfg = {k: v for k, v in FUNCTIONAL_AVERAGED.items() if k != "measure"}
        assert self.run_cli(tmp_path, {**cfg, "mu2": [-1.0, 0.0]}) == 0
        assert read_result(tmp_path / "o")["pass"]

    @pytest.mark.parametrize("atoms", [[[0, True]], [["1.5", "1"]]])
    def test_lenient_measure_exits_2(self, tmp_path, capsys, atoms):
        # the strict reader refuses these before mu_hat(1) is formed
        cfg = {k: v for k, v in CONFIGS["chi"].items() if k != "mu2"}
        assert self.run_cli(tmp_path, {**cfg, "measure": {"kind": "atoms", "atoms": atoms}}) == 2
        assert "/measure:" in capsys.readouterr().err

    @pytest.mark.usefixtures("unbuildable")
    @pytest.mark.parametrize(
        "experiment, changes, flags, pointer",
        [
            ("functional", {"grid": {"d": 2, "R": 4.0, "N": 64}}, (), "/grid"),
            ("diverge", {"d": 2, "n_list": [8, 16, 32, 64]}, (), "/n_list"),
            ("dynamics", {"t_grid": "0:100:1"}, (), "/t_grid"),
            ("decohere", {}, ("--t-grid", "0:100:1"), "/t_grid"),
            # 3 x 512 cells: refused before the malformed third function is built
            ("chi", {"functions": [GAUSS_F, GAUSS_F, {**GAUSS_F, "label": [0]}]}, (), "/functions"),
            # at the real cap too: 1.1e8 modes, more than 4.5 GB, never built
            ("rarefied", {"L_values": [1000.0, 1e16]}, (), "/L_values/1"),
        ],
    )
    def test_oversized_exits_2(self, tmp_path, capsys, monkeypatch, experiment, changes, flags, pointer):
        # the caps are lowered so that the refused sizes stay cheap
        monkeypatch.setattr(cfgmod, "MAX_CELLS", 1024)
        monkeypatch.setattr(cfgmod, "MAX_T_POINTS", 50)
        assert self.run_cli(tmp_path, {**CONFIGS[experiment], **changes}, *flags) == 2
        assert f"{pointer}:" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "experiment, changes, pointer",
        [
            ("functional", {"functions": [GAUSS_F]}, "/functions/0/modulation"),
            ("functional", {"functions": [{"name": "plane_wave", "x0": 0.5}]}, "/functions/0/x0"),
            ("diverge", {"function": {"name": "gaussian", "modulation": -1.0}}, "/function/modulation"),
            ("diverge", {"function": {"name": "plane_wave", "x0": 0.5}}, "/function/x0"),
        ],
    )
    @pytest.mark.parametrize("d", [2, 3])
    def test_shift_in_d_above_1_exits_2(self, tmp_path, capsys, experiment, changes, pointer, d):
        # a shift in position space has no radial form
        if experiment == "functional":
            sizes = {"grid": {**GRID_3D, "d": d}}
        else:
            sizes = {"d": d, "n_list": [8, 12, 16, 24]}
        assert self.run_cli(tmp_path, {**CONFIGS[experiment], **sizes, **changes}) == 2
        assert capsys.readouterr().err.startswith(f"error: {pointer}: ")
        assert not (tmp_path / "o" / "result.json").exists()

    @pytest.mark.parametrize("experiment", NAMED_3D)
    def test_named_forms_run_in_three_dimensions(self, tmp_path, experiment):
        assert self.run_cli(tmp_path, NAMED_3D[experiment]) == 0
        assert read_result(tmp_path / "o")["pass"]

    @pytest.mark.parametrize("name", ["rarefied", "functional-rarefied"])
    @pytest.mark.parametrize("d", [2, 3])
    def test_rarefied_in_d_above_1_exits_2(self, tmp_path, capsys, name, d):
        # the zero-density limit is taken in d = 1; a radial battery builds fine
        cfg = {**VARIANTS[name], "grid": {"d": d, "R": 4.0, "N": 16}, "functions": [RADIAL_F]}
        assert self.run_cli(tmp_path, cfg) == 2
        assert capsys.readouterr().err.startswith("error: /grid/d: ")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "name, path, pointer",
        [
            ("functional", "functions/0/widht", "/functions/0/widht"),
            ("functional", "grid/n", "/grid/n"),
            ("clt", "measure/atoms", "/measure/atoms"),
            ("clt+atoms", "measure/values", "/measure/values"),
            ("clt+density", "measure/atoms", "/measure/atoms"),
            ("chi", "density/label", "/density/label"),
            ("dynamics", "dispersion/values", "/dispersion/values"),
            ("decohere", "form_factor/lo", "/form_factor/lo"),
            ("diverge", "function/x0", "/function/x0"),
            ("rarefied", "alpha/label", "/alpha/label"),
            ("functional-nmode", "modes/1/phase", "/modes/1/phase"),
            ("gns-check-nmode", "modes/0/rho_", "/modes/0/rho_"),
        ],
    )
    def test_unread_nested_key_exits_2(self, tmp_path, capsys, name, path, pointer):
        # each builder reads its own keys; `{"name": "gaussian", "widht": 0.25}`
        # got width 1 and `grid.n` was ignored
        cfg = with_value({**FUZZ_BASES, **VARIANTS}[name], path, 0.25)
        assert self.run_cli(tmp_path, cfg) == 2
        assert capsys.readouterr().err.startswith(f"error: {pointer}: not read here")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "key, obj, pointer",
        [
            ("functions", {"values_file": "f.bin", "center": 1.0}, "/functions/0/center"),
            ("density", {"values_file": "f.bin", "label": "rho"}, "/density/label"),
        ],
    )
    def test_unread_key_beside_a_values_file_exits_2(self, tmp_path, capsys, key, obj, pointer):
        (tmp_path / "f.bin").write_bytes(struct.pack("<dd", 1.0, 0.0) * GRID["N"])
        obj = {**obj, "values_file": str(tmp_path / "f.bin")}
        cfg = {**CONFIGS["chi"], key: [obj] if key == "functions" else obj}
        assert self.run_cli(tmp_path, cfg) == 2
        assert capsys.readouterr().err.startswith(f"error: {pointer}: not read here")
        # without the unread key each runs, a named values_file function among them
        obj.pop(pointer.rsplit("/", 1)[1])
        named = {**obj, "name": "g"} if key == "functions" else obj
        assert self.run_cli(tmp_path, {**cfg, key: [named] if key == "functions" else named}) == 0

    @pytest.mark.parametrize(
        "dispersion", [{"form": "quadratic", "values": [1.0]}, {"form": "samples", "values": [1.0] * 512, "lo": 0}]
    )
    def test_unread_dispersion_key_exits_2(self, tmp_path, capsys, dispersion):
        assert self.run_cli(tmp_path, {**CONFIGS["dynamics"], "dispersion": dispersion}) == 2
        assert capsys.readouterr().err.startswith("error: /dispersion/")

    @pytest.mark.usefixtures("unbuildable")
    def test_moments_with_fewer_functions_than_its_order_exits_2(self, tmp_path, capsys):
        assert self.run_cli(tmp_path, CONFIGS["moments"], "--pq", "2,1") == 2
        assert capsys.readouterr().err.startswith("error: /functions: need at least p+q=3 functions")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("experiment", ["clt", "rarefied"])
    def test_second_function_of_a_one_function_experiment_exits_2(self, tmp_path, capsys, experiment):
        # clt and rarefied read /functions/0 only; the second entry is
        # malformed, so it is refused before it is built
        fns = [*CONFIGS[experiment]["functions"], {"name": "gaussian", "label": "h", "width": "x"}]
        assert self.run_cli(tmp_path, {**CONFIGS[experiment], "functions": fns}) == 2
        assert capsys.readouterr().err.startswith(f"error: /functions/1: {experiment} reads one function")
        assert not (tmp_path / "o").exists()

    def test_gns_check_nmode_theta_exits_2(self, tmp_path, capsys):
        # the N-mode representation averages over the phases, so a fixed
        # theta would be read and ignored; functional --kind nmode reads it
        modes = [GNS_NMODE["modes"][0], {**GNS_NMODE["modes"][1], "theta": 1.234}]
        assert self.run_cli(tmp_path, {**GNS_NMODE, "modes": modes}) == 2
        assert capsys.readouterr().err.startswith("error: /modes/1/theta: not read here")
        assert not (tmp_path / "o").exists()
        values = []
        for theta in (0.0, 1.234):
            modes = [GNS_NMODE["modes"][0], {**GNS_NMODE["modes"][1], "theta": theta}]
            assert self.run_cli(tmp_path, {**VARIANTS["functional-nmode"], "modes": modes}) == 0
            values.append(read_result(tmp_path / "o")["values"]["f"])
        assert values[0] != values[1]

    @pytest.mark.parametrize("experiment", ["dynamics", "decohere"])
    @pytest.mark.parametrize("dispersion", ["quadratic", "photon", ["quadratic"]])
    def test_dispersion_not_an_object_exits_2(self, tmp_path, capsys, experiment, dispersion):
        assert self.run_cli(tmp_path, {**CONFIGS[experiment], "dispersion": dispersion}) == 2
        assert capsys.readouterr().err.startswith("error: /dispersion: expected an object")
        assert not (tmp_path / "o").exists()

    def test_time_by_function_table_above_cap_exits_2(self, tmp_path, capsys, monkeypatch):
        # sigma_t and the metric hold (T, K) tables: 10^6 times x 17
        # functions exceed the 2^24 cap, and are refused before the
        # malformed last function is built or any sigma_t is formed
        def never(*args):
            raise AssertionError("called before the t-grid was checked")

        monkeypatch.setattr(cli, "sigma_t", never)
        fns = [{**CONFIGS["dynamics"]["functions"][0], "label": f"f{i}"} for i in range(16)]
        cfg = {**CONFIGS["dynamics"], "functions": [*fns, {"name": "box", "lo": "x"}]}
        assert self.run_cli(tmp_path, cfg, "--t-grid", "0:999999:1") == 2
        assert capsys.readouterr().err.startswith(
            f"error: /t_grid: 1000000 times x 17 functions exceed the cap of {cfgmod.MAX_CELLS}"
        )
        assert not (tmp_path / "o").exists()

    def test_time_by_function_table_at_cap_runs(self, tmp_path, monkeypatch):
        # with the cap lowered to 1024 entries: 512 times x 2 functions run, 513 do not
        monkeypatch.setattr(cfgmod, "MAX_CELLS", 1024)
        fns = [{"name": "gaussian", "label": "f"}, {"name": "gaussian", "label": "g", "center": 1.0}]
        cfg = {**CONFIGS["dynamics"], "grid": {"d": 1, "R": 4.0, "N": 64}, "functions": fns}
        assert self.run_cli(tmp_path, cfg, "--t-grid", "0:511:1") == 0
        assert self.run_cli(tmp_path, cfg, "--t-grid", "0:512:1") == 2

    def test_degenerate_clt_limit_exits_2(self, tmp_path, capsys):
        # real f and mu_hat(2) = -1 give sigma_mu(f) = 0: the limit law is a
        # point mass, and no s-grid is scaled by its width
        measure = {"kind": "atoms", "atoms": [[math.pi / 2, 0.5], [3 * math.pi / 2, 0.5]]}
        cfg = {**CONFIGS["clt"], "measure": measure, "functions": [{"name": "gaussian", "label": "f"}]}
        assert self.run_cli(tmp_path, cfg) == 2
        assert "/functions/0:" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_clt_above_cap_exits_2(self, tmp_path, capsys, monkeypatch):
        # 31 points x 512 cells x 64 angles: at the cap clt runs, one entry
        # below it is refused before the phase product is formed
        entries = len(cli.CLT_S) * GRID["N"] * 64
        monkeypatch.setattr(cfgmod, "MAX_CELLS", entries)
        assert self.run_cli(tmp_path, CONFIGS["clt"]) == 0
        monkeypatch.setattr(cfgmod, "MAX_CELLS", entries - 1)
        monkeypatch.setattr(cli, "log_phase_product", lambda *args: pytest.fail("formed above the cap"))
        assert self.run_cli(tmp_path, CONFIGS["clt"]) == 2
        err = capsys.readouterr().err
        assert err == f"error: /grid: 31 points x 512 cells x 64 angles exceed the cap of {entries - 1}\n"

    def test_missing_values_file_exits_2(self, tmp_path, capsys):
        fns = [{"values_file": str(tmp_path / "missing.bin")}]
        assert self.run_cli(tmp_path, {**CONFIGS["functional"], "functions": fns}) == 2
        assert "/functions/0:" in capsys.readouterr().err

    def test_negative_seed_flag_exits_2(self, tmp_path, capsys):
        assert self.run_cli(tmp_path, CONFIGS["chi"], "--seed=-1") == 2
        assert "/seed:" in capsys.readouterr().err

    def test_missing_config_file_exits_2(self, tmp_path, capsys):
        rc = cli.main(["chi", "--config", str(tmp_path / "missing.json"), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: /")

    def test_gns_check_random_rep_rejected(self, tmp_path, capsys):
        assert self.run_cli(tmp_path, CONFIGS["gns-check"], "--rep", "random") == 2
        assert "/rep:" in capsys.readouterr().err

    @pytest.mark.parametrize("modes", [{}, {"modes": []}], ids=["absent", "empty"])
    def test_gns_check_nmode_without_modes_exits_2(self, tmp_path, capsys, modes):
        cfg = {**{k: v for k, v in GNS_NMODE.items() if k != "modes"}, **modes}
        assert self.run_cli(tmp_path, cfg) == 2
        assert capsys.readouterr().err.startswith("error: /modes: rep nmode needs at least one mode")

    def test_gns_check_nmode_too_strong_mode_exits_2(self, tmp_path, capsys, monkeypatch):
        # at k = 0, rho = 2e14: |z| = 2e7, where one J0 would take years;
        # refused before any mode is averaged or any J0 is summed
        def never(*args):
            raise AssertionError("called before the modes were checked")

        monkeypatch.setattr(cli, "rep_expectation_n_mode", never)
        monkeypatch.setattr(cli, "bessel_j0", never)
        cfg = {**GNS_NMODE, "modes": [GNS_NMODE["modes"][0], {"k": 0.0, "rho": 2e14}]}
        assert self.run_cli(tmp_path, cfg) == 2
        err = capsys.readouterr().err
        assert err == "error: /modes/1/rho: amplitudes up to |z| = 2e+07 exceed the cap of 5000\n"
        assert not (tmp_path / "o").exists()

    def test_gns_check_nmode_mode_at_the_j0_bound(self, tmp_path, capsys, monkeypatch):
        # with the bound lowered to |z| = 50, a mode at k = 0 of |z| = 51
        # exits 2 before any J0 is summed, and one of |z| = 49 runs
        j0, calls = cli.bessel_j0, []
        monkeypatch.setattr(cli, "MAX_J0_ARGUMENT", 50)
        monkeypatch.setattr(cli, "bessel_j0", lambda x: calls.append(x) or j0(x))
        cfg = {**GNS_NMODE, "modes": [GNS_NMODE["modes"][0], {"k": 0.0, "rho": 51 ** 2 / 2}]}
        assert self.run_cli(tmp_path, cfg) == 2
        assert capsys.readouterr().err.startswith("error: /modes/1/rho: amplitudes up to |z| = 51 exceed")
        assert calls == [] and not (tmp_path / "o").exists()
        cfg = {**GNS_NMODE, "modes": [GNS_NMODE["modes"][0], {"k": 0.0, "rho": 49 ** 2 / 2}]}
        assert self.run_cli(tmp_path, cfg) == 0
        assert calls[-1] == 49.0

    @pytest.mark.parametrize(
        "base, key, value",
        [
            # atoms at 0 and pi: mu_hat(1) = 0, mu_hat(2) = 1
            ("decohere", "measure", [[0, 0.5], [math.pi, 0.5]]),
            ("decohere", "mu2", 0.9),
            # atoms at 0, 2pi/3 and 4pi/3: mu_hat(1) = 0, mu_hat(3) = 1
            ("gns-check-nmode", "measure", [[2 * math.pi * j / 3, 1 / 3] for j in range(3)]),
            ("gns-check-nmode", "mu2", [0.5, 0.0]),
        ],
        ids=["decohere-measure", "decohere-mu2", "gns-check-nmode-measure", "gns-check-nmode-mu2"],
    )
    def test_unread_phase_measure_exits_2(self, tmp_path, capsys, base, key, value):
        # decohere and the N-mode representation average over uniform phases
        # only, so a measure or mu2 that they would silently ignore is refused
        value = {"kind": "atoms", "atoms": value} if key == "measure" else value
        cfg = {**(GNS_NMODE if base == "gns-check-nmode" else CONFIGS[base]), key: value}
        assert self.run_cli(tmp_path, cfg) == 2
        assert capsys.readouterr().err.startswith(f"error: /{key}: ")
        assert not (tmp_path / "o" / "result.json").exists()
        assert not (tmp_path / "o").exists()

    def test_override_flag_digest_is_sha256_of_canonical_json(self, tmp_path):
        cfg = CONFIGS["dynamics"]
        assert self.run_cli(tmp_path, cfg, "--t-grid", "0:4:2") == 0
        expected = hashlib.sha256(canonical_json({**cfg, "t_grid": "0:4:2"})).hexdigest()
        assert read_result(tmp_path / "o")["inputs_digest"] == expected

    def test_override_flag_enters_digest(self, tmp_path):
        fns = CONFIGS["moments"]["functions"] * 2
        digests = []
        for pq, flags in (("2,2", ()), ("1,1", ("--pq", "2,2"))):
            run_dir = tmp_path / pq
            run_dir.mkdir()
            cfg = {**CONFIGS["moments"], "pq": pq, "functions": fns}
            assert self.run_cli(run_dir, cfg, *flags) == 0
            digests.append(read_result(run_dir / "o")["inputs_digest"])
        assert digests[0] == digests[1]
