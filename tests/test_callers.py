"""Every public module-level function or class under src/cohlim/, and every
public method of a public class, has a caller in src/cohlim/; and no module
there reads another one's private name.

A scan keeps one way to put a profile on a grid: only `config` and
`mode_space` construct a `MomentumGrid` or call a `from_profile`.  Another
holds every experiment handler in `cli` to the config keys its
`EXPERIMENTS` row declares.  Two keep one size-cap rule, `config.cap`: `cli`
compares nothing with a `MAX_` cap itself, and no library module but `cli`
imports `config`.  One keeps how a phase measure is held in
`circle_measure`: no other module reads a measure's `atoms`.

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


# The calls through which a handler reads a config key, its first argument,
# each with the name it is declared by: a tolerance as "tolerances/<name>".
KEY_READS = {"run.need": "{}", "run.read": "{}", "run.cfg.get": "{}", "run.tol": "tolerances/{}"}


def handler_reads(node):
    """The declared name of every string key that the function `node`
    passes to one of KEY_READS, in every branch, run or not."""
    return [
        KEY_READS[dotted(call.func)].format(call.args[0].value)
        for call in ast.walk(node)
        if isinstance(call, ast.Call)
        and dotted(call.func) in KEY_READS
        and call.args
        and isinstance(call.args[0], ast.Constant)
        and isinstance(call.args[0].value, str)
    ]


def test_handlers_read_only_declared_keys():
    # the recording test of test_cli sees only the branches its configs run
    from cohlim import cli

    handlers = {node.name: node for node in LIBRARY["cohlim.cli"].body if isinstance(node, ast.FunctionDef)}
    found = [
        f"{handler.__name__} reads {key}, which {name} does not declare"
        for name, (handler, _) in cli.EXPERIMENTS.items()
        for key in handler_reads(handlers[handler.__name__])
        if key not in cli.experiment_keys(name)
    ]
    assert not found, "; ".join(found)


def test_key_scan_sees_every_read():
    tree = ast.parse(
        "def run_x(run):\n"
        "    if run.cfg.get('kind') == 'a':\n"
        "        return run.tol('z', 5.0) + run.read('samples', int, 10)\n"
        "    run.need('grid')\n"
        "    run.cfg['seed']\n"
        "    run.read(name)\n"
        "    other.need('density')\n"
    )
    # a subscript, a key held in a name and another object's call are not seen
    assert sorted(handler_reads(tree.body[0])) == ["grid", "kind", "samples", "tolerances/z"]


def cap_comparisons(tree):
    """The line of every comparison in `tree` with an operand that loads a
    name starting MAX_, bare or as an attribute."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Compare)
        and any(name.startswith("MAX_") for side in (node.left, *node.comparators) for name in loads(side))
    ]


def test_cli_compares_no_size_with_a_cap():
    # such a refusal would bypass config.cap, the one size-cap rule
    lines = cap_comparisons(LIBRARY["cohlim.cli"])
    assert not lines, f"cli.py compares with a MAX_ cap itself at lines {lines}; call config.cap"


def test_cap_scan_sees_comparisons():
    tree = ast.parse(
        "if m * w > cfgmod.MAX_CELLS:\n    pass\n"
        "ok = MAX_T_POINTS >= n\n"
        "x = 0 < p + q <= limit(MAX_PAIRING_ORDER)\n"
        "cap('/pq', p + q, MAX_PAIRING_ORDER, 'p+q')\n"
        "y = n > LIMIT\n"
    )
    assert cap_comparisons(tree) == [1, 3, 4]


def config_importers(trees):
    """Every module of `trees` (in package `cohlim`) that imports
    cohlim.config, in any import form, relative ones among them."""
    found = []
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                source = ".".join(filter(None, ["cohlim" if node.level else None, node.module]))
                names = [source, *(f"{source}.{a.name}" for a in node.names)]
            else:
                continue
            if "cohlim.config" in names:
                found.append(module)
    return found


def test_only_cli_imports_config():
    # the library takes grids, functions and densities, never a config
    found = [module for module in config_importers(LIBRARY) if module != "cohlim.cli"]
    assert not found, f"modules that import cohlim.config: {', '.join(found)}"


def test_config_scan_sees_every_import_form():
    forms = [
        "import cohlim.config",
        "import cohlim.config as c",
        "from cohlim import config",
        "from cohlim.config import MAX_CELLS",
        "from . import config",
        "from .config import cap",
        "def f():\n    from cohlim.config import reading",
        "import cohlim.mode_space\nfrom cohlim import functionals\nfrom .mode_space import MAX_CELLS",
    ]
    trees = {f"m{i}": ast.parse(source) for i, source in enumerate(forms)}
    assert config_importers(trees) == [f"m{i}" for i in range(7)]


def atoms_reads(trees):
    """(module, line) of every read of an attribute named `atoms` in `trees`."""
    return [
        (module, node.lineno)
        for module, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "atoms"
    ]


def test_only_circle_measure_reads_atoms():
    # every other module averages over a measure through circle_measure
    found = [f"{module} line {line}" for module, line in atoms_reads(LIBRARY) if module != "cohlim.circle_measure"]
    assert not found, f"reads of a measure's atoms outside circle_measure: {', '.join(found)}"


def test_atoms_scan_sees_every_read():
    tree = ast.parse(
        "angles = mu.atoms\n"
        "if run.measure.atoms is None:\n    pass\n"
        "n = len(getattr(mu, 'atoms'))\n"
        "k = obj['atoms']\n"
    )
    # a subscript and a getattr are not attribute reads
    assert atoms_reads({"m": tree}) == [("m", 1), ("m", 2)]
