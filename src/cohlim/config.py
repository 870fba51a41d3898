"""Experiment configuration: JSON descriptors for grids, measures,
densities and test functions, schema validation, and stable input digests.

Test functions are either named closed forms (gaussian, box, plane_wave)
with parameters, or explicit value arrays read from a little-endian float64
binary column file of (re, im) pairs.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Callable

import numpy as np

from cohlim.circle_measure import PhaseMeasure
from cohlim.dynamics import Dispersion
from cohlim.mode_space import ModeDensity, MomentumGrid, TestFunction


class ConfigError(ValueError):
    """Invalid experiment configuration; message carries a JSON pointer."""

    def __init__(self, pointer: str, message: str):
        self.pointer = pointer
        super().__init__(f"{pointer}: {message}")


STOCHASTIC_EXPERIMENTS = {"clt", "chi", "moments", "decohere"}

EXPERIMENTS = {
    "functional",
    "clt",
    "chi",
    "moments",
    "gns-check",
    "dynamics",
    "decohere",
    "diverge",
    "rarefied",
}


def load_config(path) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError("/", f"not valid JSON: {exc}") from exc
    validate_config(cfg)
    return cfg


def validate_config(cfg: dict) -> None:
    if not isinstance(cfg, dict):
        raise ConfigError("/", "config must be a JSON object")
    exp = cfg.get("experiment")
    if exp not in EXPERIMENTS:
        raise ConfigError("/experiment", f"must be one of {sorted(EXPERIMENTS)}, got {exp!r}")
    if exp in STOCHASTIC_EXPERIMENTS:
        if "seed" not in cfg:
            raise ConfigError("/seed", f"a seed is mandatory for the {exp} experiment")
        if not isinstance(cfg["seed"], int):
            raise ConfigError("/seed", "seed must be an integer")
    for key in ("grid",):
        if key in cfg and not isinstance(cfg[key], dict):
            raise ConfigError(f"/{key}", "must be an object")


def config_digest(cfg: dict) -> str:
    """Stable digest: canonical JSON (sorted keys) hashed with sha256."""
    blob = json.dumps(cfg, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


# -- descriptor builders -----------------------------------------------------


def build_grid(obj: dict, pointer: str = "/grid") -> MomentumGrid:
    try:
        return MomentumGrid.from_json(obj)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(pointer, str(exc)) from exc


def build_measure(obj: dict, pointer: str = "/measure") -> PhaseMeasure:
    try:
        return PhaseMeasure.from_json(obj)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(pointer, str(exc)) from exc


def _require_object(obj, pointer: str) -> None:
    if not isinstance(obj, dict):
        raise ConfigError(pointer, f"expected an object, got {obj!r}")


def _closed_form(obj: dict, pointer: str) -> Callable[[np.ndarray], np.ndarray]:
    _require_object(obj, pointer)

    def num(key, default, kind=float):
        try:
            return kind(obj.get(key, default))
        except (TypeError, ValueError) as exc:
            raise ConfigError(pointer, f"{key} must be a number, got {obj[key]!r}") from exc

    name = obj.get("name")
    amp = num("amplitude", 1.0, complex)
    if name == "gaussian":
        center = num("center", 0.0)
        width = num("width", 1.0)
        mod = num("modulation", 0.0)
        return lambda k: amp * np.exp(
            -((np.asarray(k) - center) ** 2) / (2.0 * width ** 2)
        ) * np.exp(1j * mod * np.asarray(k))
    if name == "box":
        lo = num("lo", -1.0)
        hi = num("hi", 1.0)
        return lambda k: amp * ((np.asarray(k) >= lo) & (np.asarray(k) <= hi)).astype(complex)
    if name == "plane_wave":
        x0 = num("x0", 0.0)
        lo = num("lo", -1.0)
        hi = num("hi", 1.0)
        return lambda k: (
            amp
            * np.exp(1j * x0 * np.asarray(k))
            * ((np.asarray(k) >= lo) & (np.asarray(k) <= hi))
        )
    raise ConfigError(pointer, f"unknown closed form {name!r}")


def read_value_file(path, pointer: str = "/functions") -> np.ndarray:
    """Little-endian float64 (re, im) column pairs -> complex array."""
    raw = np.fromfile(Path(path), dtype="<f8")
    if raw.size % 2 != 0:
        raise ConfigError(pointer, f"value file {path} has an odd float count")
    return raw[0::2] + 1j * raw[1::2]


def build_test_function(obj: dict, grid: MomentumGrid, pointer: str = "/functions") -> TestFunction:
    _require_object(obj, pointer)
    label = obj.get("label", obj.get("name", ""))
    if "values_file" in obj:
        vals = read_value_file(obj["values_file"], pointer)
        if vals.shape != (grid.n_cells,):
            raise ConfigError(
                pointer, f"value file holds {vals.shape[0]} cells, grid has {grid.n_cells}"
            )
        return TestFunction(grid, vals, label=label)
    if grid.d != 1:
        raise ConfigError(pointer, "named closed forms are one-dimensional")
    form = _closed_form(obj, pointer)
    return TestFunction.from_profile(grid, form, label=label)


def build_density(obj: dict, grid: MomentumGrid, pointer: str = "/density") -> ModeDensity:
    _require_object(obj, pointer)
    if "values_file" in obj:
        vals = read_value_file(obj["values_file"], pointer).real
        return ModeDensity(grid, vals)
    if grid.d != 1:
        raise ConfigError(pointer, "named closed forms are one-dimensional")
    form = _closed_form(obj, pointer)
    try:
        return ModeDensity(grid, np.asarray(form(grid.axis)).real)
    except ValueError as exc:
        raise ConfigError(pointer, str(exc)) from exc


def build_dispersion(obj: dict, grid: MomentumGrid, pointer: str = "/dispersion") -> Dispersion:
    form = obj.get("form", "photon") if isinstance(obj, dict) else str(obj)
    if form == "photon":
        return Dispersion.photon(grid)
    if form == "quadratic":
        return Dispersion.quadratic(grid)
    if form == "samples":
        try:
            return Dispersion(grid, np.asarray(obj["values"], dtype=float))
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(pointer, f"values must hold one number per cell ({grid.n_cells}): {exc}") from exc
    raise ConfigError(pointer, f"unknown dispersion form {form!r}")


def parse_t_grid(spec: str, pointer: str = "/t_grid") -> np.ndarray:
    """'start:stop:step' -> time grid from start in steps of step, ending at
    stop when stop lies on the grid and never past it."""
    try:
        start, stop, step = (float(x) for x in str(spec).split(":"))
    except ValueError as exc:
        raise ConfigError(pointer, f"expected start:stop:step, got {spec!r}") from exc
    if step <= 0 or stop < start:
        raise ConfigError(pointer, "need step > 0 and stop >= start")
    # the slack keeps a stop that lies on the grid despite rounding in the ratio
    n = int(np.floor((stop - start) / step + 1e-9))
    return start + step * np.arange(n + 1)
