"""Every public module-level function or class under src/cohlim/ has a caller
in src/cohlim/.

A stdlib `ast` scan: a definition counts as called when its name is loaded,
as a bare name or as an attribute, anywhere in src/cohlim outside the
definition itself.  It catches library code that only the tests use.  The
match is by name only, so a function named like some other loaded name
passes unseen.

Two kinds of name are exempt: the (module, name) pairs the benchmark tracer
wraps (`TRACED` of benchmark/spans.py), and the test oracles in ORACLES, each
with the reason it stays.  An ORACLES entry that is no longer defined, or
that has gained a caller, fails the scan too, so the list shrinks with the
code; a traced name that loses its pin is reported like any other.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

from conftest import traced_pairs

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = {
    f"cohlim.{p.stem}": ast.parse(p.read_text(), filename=str(p))
    for p in sorted((ROOT / "src" / "cohlim").glob("*.py"))
}

ORACLES = {
    "sample_chi": "the cell-level Ito sum, the reference for the Gram-law sampler",
    "permanent_moment": "the mu_hat(2) = 0 check of the hafnian",
    "random_functional": "E_omega, the random functional of acceptance criterion 10",
    "gamma_radial": "the radial d = 3 Gamma(t) of acceptance criterion 9",
    "finite_volume_functional": "the finite-box reference for the N-mode limit",
    "discrete_phase_average_functional": "the finite-N reference for the phase-averaged limit",
}


def loads(node):
    """How often each name is loaded under `node`, bare or as an attribute."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)
    )


def public_definitions(trees):
    """(module, def or class node) of every public module-level definition."""
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                yield module, node


def uncalled(trees):
    """(module, name) of every public module-level definition in `trees`
    (module name -> tree) whose name is loaded nowhere but inside itself."""
    total = sum((loads(tree) for tree in trees.values()), Counter())
    return [
        (module, node.name)
        for module, node in public_definitions(trees)
        if total[node.name] == loads(node)[node.name]
    ]


UNCALLED = uncalled(LIBRARY)


def test_every_public_name_has_a_caller():
    traced = set(traced_pairs())
    dead = [
        f"{module}.{name}"
        for module, name in UNCALLED
        if (module, name) not in traced and name not in ORACLES
    ]
    assert not dead, f"public names that nothing in src/cohlim uses: {', '.join(dead)}"


@pytest.mark.parametrize("name", ORACLES)
def test_oracle_is_defined_and_uncalled(name):
    assert name in {node.name for _, node in public_definitions(LIBRARY)}, (
        f"{name} is no longer defined; drop it from ORACLES"
    )
    assert name in {n for _, n in UNCALLED}, f"{name} now has a caller; drop it from ORACLES"


def test_scan_sees_a_dead_function():
    trees = {
        "a": ast.parse(
            "def used():\n    pass\n"
            "def dead():\n    return used()\n"
            "def _private():\n    pass\n"
            "class Thing:\n    pass\n"
        ),
        "b": ast.parse(
            "import a\na.Thing()\n"
            "def recursive(n):\n    return recursive(n - 1)\n"
        ),
    }
    assert uncalled(trees) == [("a", "dead"), ("b", "recursive")]
