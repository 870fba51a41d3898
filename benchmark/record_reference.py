"""Record the deterministic reference values the correctness gate compares
against: per-function sigma_sq and Fock value for chi_table, the closed-form
moment for moments_order16, and the t/sigma_t/metric columns for
dynamics_tgrid.  Values are taken from the program's own outputs.

    python3 benchmark/record_reference.py [workload ...]

Run it only when a change is meant to alter these values, and say so.
"""

from __future__ import annotations

import contextlib
import csv
import json
import math
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import gate  # noqa: E402
import workloads  # noqa: E402
from cohlim import cli  # noqa: E402

# Argument overrides that shorten a run without changing the deterministic
# values recorded from it.
SHORTEN = {
    "chi_table": ["--samples", "1000"],
    "moments_order16": ["--samples", "1000"],
    "dynamics_tgrid": [],
}


def _extract(name: str, out: Path) -> dict:
    record = json.loads((out / "result.json").read_text())
    if name == "chi_table":
        fock = {}
        with open(out / "chi_samples.csv", newline="") as fh:
            for row in csv.DictReader(fh):
                fock.setdefault(row["label"], math.hypot(float(row["functional_re"]), float(row["functional_im"])))
        return {"functions": {k: {"sigma_sq": v["sigma_sq"], "fock": fock[k]} for k, v in record["values"].items()}}
    if name == "moments_order16":
        return {"closed_form": record["values"]["closed_form"]}
    with open(out / "dynamics.csv", newline="") as fh:
        rows = [[float(x) for x in row] for row in list(csv.reader(fh))[1:]]
    return {key: [row[j] for row in rows] for j, key in enumerate(("t", "sigma_t", "metric"))}


def main(names) -> int:
    gate.REFERENCE_DIR.mkdir(exist_ok=True)
    for name in names or workloads.NAMES:
        wl = workloads.generate(name, 0)
        with tempfile.TemporaryDirectory() as tmp:
            config = wl.write(tmp)
            out = Path(tmp) / "out"
            with contextlib.redirect_stdout(sys.stderr):
                code = cli.main(wl.argv(config, out) + SHORTEN[name])
            if code != 0:
                print(f"{name}: cohlim exited {code}", file=sys.stderr)
                return 1
            ref = {"workload": name, "config": wl.config, "argv": list(wl.extra_argv), **_extract(name, out)}
        (gate.REFERENCE_DIR / f"{name}.json").write_text(json.dumps(ref, indent=1) + "\n")
        print(f"{name}: reference written")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
