"""Every name a module under src/cohlim/ or tests/ imports is used in it,
and the CLI runs without importing scipy.

A stdlib `ast` scan: an imported name counts as used when it appears as a
name anywhere in the module (annotations included) or is listed in
`__all__`.  It catches the imports a deletion leaves behind.  scipy costs
about a second at start-up, so the CLI needs only numpy and the standard
library; the tests use scipy as an independent oracle.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from test_cli import CONFIGS

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "cohlim").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


def imported_names(tree):
    """(bound name, line) of every import but `from __future__`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def used_names(tree):
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_import(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = used_names(tree)
    unused = [f"{name} (line {line})" for name, line in imported_names(tree) if name not in used]
    assert not unused, f"unused imports in {path.name}: {', '.join(unused)}"


def test_scan_sees_an_unused_import():
    tree = ast.parse("import math\nfrom os import path as p, sep\nprint(sep)\n")
    assert sorted(n for n, _ in imported_names(tree) if n not in used_names(tree)) == ["math", "p"]


CLI_RUN = """
import json, sys
from cohlim import cli
rc = cli.main(sys.argv[1:])
print(json.dumps([rc, sorted(m for m in sys.modules if m.split(".")[0] == "scipy")]))
"""


def test_cli_runs_without_scipy(tmp_path):
    cfg = tmp_path / "clt.json"
    cfg.write_text(json.dumps(CONFIGS["clt"]))
    argv = ["clt", "--config", str(cfg), "--out", str(tmp_path / "o")]
    proc = subprocess.run(
        [sys.executable, "-c", CLI_RUN, *argv],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    rc, scipy_modules = json.loads(proc.stdout.splitlines()[-1])
    assert rc == 0
    assert scipy_modules == []
