"""Every public module-level function or class under src/cohlim/, and every
public method of a public class, has a caller in src/cohlim/; and no module
there reads another one's private name.

A last scan keeps one way to put a profile on a grid: only `config` and
`mode_space` construct a `MomentumGrid` or call a `from_profile`.

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
    "gamma_radial": "the radial d = 3 Gamma(t) of acceptance criterion 9",
    "finite_volume_functional": "the finite-box reference for the N-mode limit",
}


def loads(node):
    """How often each name is loaded under `node`, bare or as an attribute."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)
    )


def public(node):
    return isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")


def public_definitions(trees):
    """(module, name, def or class node) of every public module-level
    definition, and (module, "Class.method", def node) of every public
    method of a public class."""
    for module, tree in trees.items():
        for node in filter(public, tree.body):
            yield module, node.name, node
            if isinstance(node, ast.ClassDef):
                for method in filter(public, node.body):
                    yield module, f"{node.name}.{method.name}", method


def uncalled(trees):
    """(module, name) of every public definition in `trees` (module name ->
    tree) whose name is loaded nowhere but inside itself."""
    total = sum((loads(tree) for tree in trees.values()), Counter())
    return [
        (module, name)
        for module, name, node in public_definitions(trees)
        if total[node.name] == loads(node)[node.name]
    ]


def private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def dotted(node):
    """The dotted name ("a.b.c") of a chain of attribute reads on a bare
    name, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        owner = dotted(node.value)
        return owner and f"{owner}.{node.attr}"
    return None


def private_reads(trees):
    """(module, "other.name") of every private name of another module of
    `trees` that a module imports, or reads as an attribute of that module."""
    found = []
    for module, tree in trees.items():
        modules = {}  # local name -> the module of `trees` it is bound to
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules.update((a.asname or a.name, a.name) for a in node.names if a.name in trees)
            elif isinstance(node, ast.ImportFrom):
                source = node.module
                for a in node.names:
                    if f"{source}.{a.name}" in trees:
                        modules[a.asname or a.name] = f"{source}.{a.name}"
                    elif source in trees and source != module and private(a.name):
                        found.append((module, f"{source}.{a.name}"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and private(node.attr):
                owner = dotted(node.value)
                owner = modules.get(owner, owner)
                if owner in trees and owner != module:
                    found.append((module, f"{owner}.{node.attr}"))
    return found


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
    assert name in {qualname for _, qualname, _ in public_definitions(LIBRARY)}, (
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


def test_scan_sees_an_uncalled_method():
    trees = {
        "a": ast.parse(
            "class Thing:\n"
            "    def used(self):\n        pass\n"
            "    def dead(self):\n        return self.used()\n"
            "    def _private(self):\n        pass\n"
            "class _Hidden:\n    def dead_but_hidden(self):\n        pass\n"
        ),
        "b": ast.parse("import a\na.Thing()\n"),
    }
    assert uncalled(trees) == [("a", "Thing.dead")]


def test_no_module_reads_another_modules_private_name():
    found = [f"{module} reads {name}" for module, name in private_reads(LIBRARY)]
    assert not found, "; ".join(found)


def test_private_scan_sees_imports_and_attributes():
    trees = {
        "p.a": ast.parse(
            "import p.b\nimport p.b as bee\nfrom p import b as mod\n"
            "from p.b import _hidden, shown\n"
            "x = p.b._secret + bee._other + mod._third + mod.public + bee.__name__\n"
            "_mine = 1\ny = _mine + x._field\n"
        ),
        "p.b": ast.parse("import p.a\n_secret = p.a._mine\n"),
    }
    assert sorted(private_reads(trees)) == [
        ("p.a", "p.b._hidden"),
        ("p.a", "p.b._other"),
        ("p.a", "p.b._secret"),
        ("p.a", "p.b._third"),
        ("p.b", "p.a._mine"),
    ]


# The modules that may construct a MomentumGrid or call from_profile: every
# other module takes grids, functions and densities built from a config.
GRID_BUILDERS = {"cohlim.config", "cohlim.mode_space"}


def grid_builds(trees):
    """(module, name) of every call, bare or as an attribute, of MomentumGrid
    or of a from_profile in `trees`, by name."""
    found = []
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name in ("MomentumGrid", "from_profile"):
                    found.append((module, name))
    return found


def test_only_the_config_builders_put_a_profile_on_a_grid():
    found = [f"{module} calls {name}" for module, name in grid_builds(LIBRARY) if module not in GRID_BUILDERS]
    assert not found, "; ".join(found)


def test_build_scan_sees_grids_and_profiles():
    trees = {
        "a": ast.parse(
            "from m import MomentumGrid, TestFunction\n"
            "g = MomentumGrid(1, 2.0, 4)\nf = TestFunction.from_profile(g, abs)\n"
            "h = m.MomentumGrid\nx = f.profile(g)\n"
        ),
    }
    assert grid_builds(trees) == [("a", "MomentumGrid"), ("a", "from_profile")]
