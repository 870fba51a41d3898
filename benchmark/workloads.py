"""Workload generator: writes fresh `cohlim` experiment configs for one seed.

The program sees only the configs written here and the CLI arguments in
`Workload.argv`.  The seed enters as the config's RNG seed (each invocation
in a run passes its own `--seed`, derived from the run seed), so the same
run seed gives the same inputs.  Grid, density and battery are fixed, which
keeps the deterministic outputs comparable with the recorded references in
`reference/`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

# Why each workload exists; BENCHMARK.json carries the same reasons.
WHY = {
    "chi_table": "cohlim chi 20000 samples x 4 fns x 4096 cells: the Ito sampler, per-row Fock recompute and CSV writer do the work",
    "moments_order16": "cohlim moments --pq 8,8 4000 samples x 16 fns: the pairing sum over 15!! matchings, sampler used wide and short",
    "dynamics_tgrid": "cohlim dynamics 1001 t x 3 fns x 32768 cells: the per-t sigma_t loop does all the work, no random draws",
}


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # cohlim subcommand
    config: dict  # written to disk; the program receives only the file
    extra_argv: tuple  # CLI arguments beyond --config/--out/--seed
    sizes: dict  # input sizes, the base of every ratio reported
    warmup_overrides: tuple  # small-size arguments for the untimed warm-up call

    def argv(self, config_path, out_dir, seed=None, warmup=False) -> list:
        args = [self.command, "--config", str(config_path), "--out", str(out_dir)]
        args += list(self.extra_argv)
        if seed is not None:
            args += ["--seed", str(seed)]
        if warmup:
            args += list(self.warmup_overrides)
        return args

    def write(self, directory) -> Path:
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / f"{self.name}.json"
        path.write_text(json.dumps(self.config, indent=1, sort_keys=True))
        return path


def _gaussian(label, center, width, modulation=0.0, amplitude=1.0):
    return {
        "name": "gaussian",
        "label": label,
        "center": center,
        "width": width,
        "modulation": modulation,
        "amplitude": amplitude,
    }


def invocation_seed(run_seed: int, index: int) -> int:
    """RNG seed of the index-th invocation of a run: distinct draws per
    invocation, fixed by the run seed."""
    return (run_seed % 1_000_000) * 1000 + index


def _chi_table(seed):
    fns = [
        _gaussian("g0", 0.0, 1.0),
        _gaussian("g1", 0.5, 0.7, modulation=1.0),
        _gaussian("g2", -1.0, 1.2, modulation=-0.5),
        _gaussian("g3", 1.5, 0.5, modulation=2.0, amplitude=0.8),
    ]
    cfg = {
        "experiment": "chi",
        "seed": seed,
        "grid": {"d": 1, "R": 4.0, "N": 4096},
        "density": {"name": "gaussian", "center": 0.5, "width": 1.0},
        "mu2": [0.3, 0.2],
        "samples": 20000,
        "functions": fns,
    }
    sizes = {"samples": 20000, "cells": 4096, "battery": 4, "t_points": 0, "moment_order": 0}
    return Workload("chi_table", "chi", cfg, (), sizes, ("--samples", "200"))


def _moments_order16(seed):
    # Eight narrow bumps f_i with partners g_i on the same centres.  The
    # partners' extra modulation of 5 keeps each pair's correlation weak, so
    # the product of 16 chi values is near-symmetric and its MC z-score
    # well behaved at 4000 draws (max z 2.55 over 200 seeds; tolerance 5).
    # With strongly correlated pairs the product is heavy-tailed and the
    # jackknife error bar under-covers (z up to 4.5 in 60 seeds).
    centers = [-2.8 + 0.8 * i for i in range(8)]
    fs = [_gaussian(f"f{i}", c, 0.25, modulation=0.3 * i) for i, c in enumerate(centers)]
    gs = [_gaussian(f"g{i}", c, 0.25, modulation=0.3 * i + 5.0) for i, c in enumerate(centers)]
    cfg = {
        "experiment": "moments",
        "seed": seed,
        "grid": {"d": 1, "R": 4.0, "N": 4096},
        "density": {"name": "gaussian", "center": 0.0, "width": 2.0},
        "mu2": [0.0, 0.0],
        "samples": 4000,
        "functions": fs + gs,
    }
    sizes = {"samples": 4000, "cells": 4096, "battery": 16, "t_points": 0, "moment_order": 16}
    return Workload("moments_order16", "moments", cfg, ("--pq", "8,8"), sizes, ("--pq", "2,2", "--samples", "1000"))


def _dynamics_tgrid(seed):
    fns = [
        _gaussian("h0", 0.0, 1.0, modulation=0.5),
        _gaussian("h1", 1.0, 0.6),
        _gaussian("h2", -2.0, 1.5, modulation=-1.0),
    ]
    cfg = {
        "experiment": "dynamics",
        "grid": {"d": 1, "R": 8.0, "N": 32768},
        "density": {"name": "gaussian", "center": 0.0, "width": 1.5},
        "mu2": [-1.0, 0.0],
        "dispersion": {"form": "photon"},
        "functions": fns,
    }
    sizes = {"samples": 0, "cells": 32768, "battery": 3, "t_points": 1001, "moment_order": 0}
    return Workload("dynamics_tgrid", "dynamics", cfg, ("--t-grid", "0:100:0.1"), sizes, ("--t-grid", "0:1:0.5"))


_MAKERS = {
    "chi_table": _chi_table,
    "moments_order16": _moments_order16,
    "dynamics_tgrid": _dynamics_tgrid,
}

NAMES = tuple(_MAKERS)


def generate(name: str, seed: int) -> Workload:
    if name not in _MAKERS:
        raise KeyError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
    return _MAKERS[name](invocation_seed(seed, 0))
