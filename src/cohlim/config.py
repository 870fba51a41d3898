"""Experiment configuration: JSON descriptors for grids, measures,
densities and test functions, schema validation, and stable input digests.

Test functions are either named closed forms (gaussian, box, plane_wave)
with parameters, or explicit value arrays read from a little-endian float64
binary column file of (re, im) pairs.
"""

from __future__ import annotations

import hashlib
import json
import math
from contextlib import contextmanager
from pathlib import Path
from typing import Callable

import numpy as np

from cohlim.circle_measure import PhaseMeasure
from cohlim.dynamics import Dispersion, expi
from cohlim.mode_space import ModeDensity, MomentumGrid, TestFunction


class ConfigError(ValueError):
    """Invalid experiment configuration; message carries a JSON pointer."""

    def __init__(self, pointer: str, message: str):
        self.pointer = pointer
        super().__init__(f"{pointer}: {message}")


@contextmanager
def reading(pointer: str, expected: str = ""):
    """The one place a malformed config value becomes ConfigError(pointer):
    around converting an entry and constructing a value object from it (the
    value objects validate their own input), never around a physics call."""
    try:
        yield
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError, OSError) as exc:
        detail = f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)
        raise ConfigError(pointer, f"{expected}: {detail}" if expected else detail) from exc


_KIND_NAMES = {int: "an integer", float: "a number", complex: "a number or [re, im]"}


def number(value, kind=float, least=None, most=None, above=None):
    """`value` read strictly as a finite int, float or complex: a bool is no
    number, an int refuses 2.5, and a complex is a real or [re, im].  A real
    is also held to least <= value <= most and value > above, where given."""
    if kind is complex and isinstance(value, list) and len(value) == 2:
        return complex(number(value[0]), number(value[1]))
    if isinstance(value, bool) or not isinstance(value, int if kind is int else (int, float)):
        raise TypeError(f"expected {_KIND_NAMES[kind]}, got {value!r}")
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {value!r}")
    if least is not None and value < least:
        raise ValueError(f"must be >= {least}, got {value!r}")
    if most is not None and value > most:
        raise ValueError(f"must be <= {most}, got {value!r}")
    if above is not None and not value > above:
        raise ValueError(f"must be > {above}, got {value!r}")
    return kind(value)


def numbers(values, kind=float, min_count=0, **bounds) -> list:
    """A JSON list of at least `min_count` numbers, each read by `number`
    with `bounds`."""
    if not isinstance(values, list):
        raise TypeError(f"expected a list of numbers, got {values!r}")
    if len(values) < min_count:
        raise ValueError(f"need at least {min_count} values, got {values!r}")
    return [number(v, kind, **bounds) for v in values]


# Size caps, checked before anything is allocated: grid cells (2^24 float64
# values are 128 MiB per array) and t-grid points.
MAX_CELLS = 2 ** 24
MAX_T_POINTS = 10 ** 6


def load_config(path) -> dict:
    with reading("/", "not a readable JSON file"):
        with open(path) as fh:
            cfg = json.load(fh)
    validate_config(cfg)
    return cfg


def validate_config(cfg: dict) -> None:
    if not isinstance(cfg, dict):
        raise ConfigError("/", "config must be a JSON object")
    if not isinstance(cfg.get("tolerances", {}), dict):
        raise ConfigError("/tolerances", f"expected an object, got {cfg['tolerances']!r}")


def config_digest(cfg: dict) -> str:
    """Stable digest: canonical JSON (sorted keys) hashed with sha256."""
    blob = json.dumps(cfg, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


# -- descriptor builders -----------------------------------------------------


def build_grid(obj: dict) -> MomentumGrid:
    _require_object(obj, "/grid")
    with reading("/grid"):
        grid = MomentumGrid(number(obj["d"], int), number(obj["R"]), number(obj["N"], int))
        check_cells(grid.n_cells)
        return grid


def check_cells(n_cells: int) -> None:
    """Refuse a grid of more than MAX_CELLS cells before anything is allocated."""
    if n_cells > MAX_CELLS:
        raise ValueError(f"{n_cells} grid cells exceed the cap of {MAX_CELLS}")


def build_measure(obj: dict) -> PhaseMeasure:
    _require_object(obj, "/measure")
    with reading("/measure"):
        kind = obj["kind"]
        if kind == "atoms":
            return PhaseMeasure.from_atoms([numbers(pair) for pair in obj["atoms"]])
        if kind == "density":
            return PhaseMeasure.from_density(numbers(obj["values"]))
        if kind == "uniform":
            return PhaseMeasure.uniform()
        raise ValueError(f"unknown measure kind {kind!r}")


def _require_object(obj, pointer: str) -> None:
    if not isinstance(obj, dict):
        raise ConfigError(pointer, f"expected an object, got {obj!r}")


# Named closed forms and the defaults of their real parameters; each also
# takes a complex `amplitude` (default 1).
CLOSED_FORMS = {
    "gaussian": {"center": 0.0, "width": 1.0, "modulation": 0.0},
    "box": {"lo": -1.0, "hi": 1.0},
    "plane_wave": {"x0": 0.0, "lo": -1.0, "hi": 1.0},
}


def _wave(x: float, k) -> np.ndarray:
    """e^{i x k}, as cos + i sin of x k written into one complex array: the
    bits of np.exp(1j * x * k) on every grid tried, without a complex exp."""
    k = np.asarray(k)
    z = np.empty(k.shape, dtype=complex)
    np.multiply(x, k, out=z.imag)
    return expi(z)


def closed_form(obj: dict, pointer: str, d: int = 1) -> Callable[[np.ndarray], np.ndarray]:
    """The named closed form `obj`, read at `pointer`, as a profile on a grid:
    a function of k in d = 1, the same form at |k| of points (..., d) in
    d >= 2.  A nonzero `modulation` or `x0`, a shift in position space, has
    no radial form, so d >= 2 refuses it at its key."""
    _require_object(obj, pointer)
    name = obj.get("name")
    if not isinstance(name, str) or name not in CLOSED_FORMS:
        raise ConfigError(pointer, f"unknown closed form {name!r}")
    with reading(pointer):
        amp = number(obj.get("amplitude", 1.0), complex)
        par = {key: number(obj.get(key, default)) for key, default in CLOSED_FORMS[name].items()}
        if par.get("width", 1.0) <= 0:
            raise ValueError(f"width must be positive, got {par['width']}")
    for key in {"modulation", "x0"} & par.keys():
        if d > 1 and par[key] != 0:
            raise ConfigError(f"{pointer}/{key}", f"a shift has no radial form in d = {d}, got {obj[key]!r}")

    def in_band(k):
        return (np.asarray(k) >= par["lo"]) & (np.asarray(k) <= par["hi"])

    def gauss(k):
        return amp * np.exp(-((np.asarray(k) - par["center"]) ** 2) / (2.0 * par["width"] ** 2))

    if name == "gaussian":
        m = par["modulation"]
        # exp(i m k) = 1 at m = 0; otherwise it stays a second factor, since
        # one exp of the complex exponent rounds differently
        form = gauss if m == 0 else lambda k: gauss(k) * _wave(m, k)
    elif name == "box":
        form = lambda k: amp * in_band(k).astype(complex)
    else:
        form = lambda k: amp * _wave(par["x0"], k) * in_band(k)
    return form if d == 1 else lambda pts: form(np.linalg.norm(pts, axis=-1))


def density_form(obj: dict, d: int) -> Callable[[np.ndarray], np.ndarray]:
    """The closed form of the mode density at /density as a profile on a
    d-dimensional grid (radial in d >= 2, as `closed_form`), real and
    nonnegative: a complex or negative `amplitude`, or a nonzero
    `modulation` (`x0`), is refused at its key."""
    form = closed_form(obj, "/density", d)
    amp = number(obj.get("amplitude", 1.0), complex)
    if amp.imag != 0 or amp.real < 0:
        raise ConfigError(
            "/density/amplitude", f"a density needs a real amplitude >= 0, got {obj['amplitude']!r}"
        )
    for key in {"modulation", "x0"} & CLOSED_FORMS[obj["name"]].keys():
        if obj.get(key, 0) != 0:
            raise ConfigError(f"/density/{key}", f"a density is real: {key} must be 0, got {obj[key]!r}")
    return lambda k: form(k).real


def read_value_file(path, pointer: str = "/functions") -> np.ndarray:
    """Little-endian float64 (re, im) column pairs -> complex array."""
    raw = np.fromfile(Path(path), dtype="<f8")
    if raw.size % 2 != 0:
        raise ConfigError(pointer, f"value file {path} has an odd float count")
    return raw[0::2] + 1j * raw[1::2]


def build_test_function(obj: dict, grid: MomentumGrid, pointer: str = "/functions") -> TestFunction:
    _require_object(obj, pointer)
    label = obj.get("label", obj.get("name", ""))
    with reading(pointer):
        if not isinstance(label, str):
            raise TypeError(f"label must be a string, got {label!r}")
        if "values_file" in obj:
            return TestFunction(grid, read_value_file(obj["values_file"], pointer), label=label)
        return TestFunction.from_profile(grid, closed_form(obj, pointer, grid.d), label=label)


def build_density(obj: dict, grid: MomentumGrid) -> ModeDensity:
    _require_object(obj, "/density")
    with reading("/density"):
        if "values_file" in obj:
            values = read_value_file(obj["values_file"], "/density")
            if np.any(values.imag != 0):
                raise ConfigError("/density/values_file", "a density is real: every im column must be 0")
            return ModeDensity(grid, values.real)
        return ModeDensity.from_profile(grid, density_form(obj, grid.d))


def build_dispersion(obj: dict, grid: MomentumGrid) -> Dispersion:
    form = obj.get("form", "photon") if isinstance(obj, dict) else obj
    if form == "photon":
        return Dispersion.photon(grid)
    if form == "quadratic":
        return Dispersion.quadratic(grid)
    if form == "samples":
        with reading("/dispersion", f"values must hold one number per cell ({grid.n_cells})"):
            return Dispersion(grid, numbers(obj["values"]))
    raise ConfigError("/dispersion", f"unknown dispersion form {form!r}")


def parse_t_grid(spec: str) -> np.ndarray:
    """'start:stop:step' -> time grid from start in steps of step, ending at
    stop when stop lies on the grid and never past it."""
    with reading("/t_grid", f"expected start:stop:step, got {spec!r}"):
        start, stop, step = (float(x) for x in str(spec).split(":"))
        if not (0 < step < math.inf and start <= stop and math.isfinite(stop - start)):
            raise ValueError("need a finite step > 0 and finite start <= stop")
        # the slack keeps a stop that lies on the grid despite rounding in the ratio
        n = np.floor((stop - start) / step + 1e-9)
        if n + 1 > MAX_T_POINTS:
            raise ValueError(f"{n + 1:.3g} time points exceed the cap of {MAX_T_POINTS}")
        return start + step * np.arange(int(n) + 1)


def parse_orders(spec: str) -> tuple:
    """'p,q' -> the moment orders (p, q), both >= 0."""
    with reading("/pq", f"expected orders p,q >= 0, got {spec!r}"):
        p, q = (int(x) for x in str(spec).split(","))
        if p < 0 or q < 0:
            raise ValueError("orders must be >= 0")
        return p, q
