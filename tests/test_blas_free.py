"""The small products of the battery Gram, the chi sampler, `build_q` and the
mu_hat(2) = 0 moment (`quasifree_moment`, `glynn_permanent`) stay off BLAS.

They are at most 2K x 2K (K functions) or 2K x a few thousand, where BLAS
gains nothing, but OpenBLAS's first threaded call starts its thread pool,
whose threads then spin for the rest of the process: about as much CPU
again as the whole `chi` or `moments` run, with no gain in wall time.  So
these functions form, factor and apply their matrices with np.einsum (no
`optimize`, which would hand the product to BLAS) and numpy's elementwise
loops.  A stdlib `ast` scan fails if one of them uses `@`, np.dot,
np.matmul or anything of np.linalg.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
GUARDED = {
    "ito_sampler": ("_chi_matrix", "psd_factor", "chi_gram_factor", "chi_gram_blocks", "sample_chi_gram"),
    "mode_space": ("battery_gram",),
    "moments": ("build_q", "glynn_permanent", "quasifree_moment"),
}


def blas_calls(func):
    """(line, what) of every matrix product or np.linalg use in `func`."""
    for node in ast.walk(func):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            yield node.lineno, "@"
        elif isinstance(node, ast.Attribute) and node.attr in ("dot", "matmul", "linalg"):
            yield node.lineno, node.attr
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in ("dot", "matmul"):
            yield node.lineno, node.func.id


def functions(source):
    tree = ast.parse(source)
    return {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}


@pytest.mark.parametrize(
    "module, name", [(m, n) for m, names in GUARDED.items() for n in names], ids=lambda x: x
)
def test_no_blas(module, name):
    defs = functions((ROOT / "src" / "cohlim" / f"{module}.py").read_text())
    assert name in defs, f"{module}.{name} is no longer defined; update GUARDED"
    found = [f"{what} (line {line})" for line, what in blas_calls(defs[name])]
    assert not found, f"{module}.{name} calls BLAS: {', '.join(found)}"


def test_scan_sees_blas():
    defs = functions(
        "def f(a, b):\n    a @= b\n    return np.dot(a, b) + np.linalg.qr(a)[0]\n"
        "def g(a, b):\n    return a @ matmul(a, b)\n"
        "def h(a, b):\n    return np.einsum('ij,jk->ik', a, b)\n"
    )
    assert sorted(what for _, what in blas_calls(defs["f"])) == ["@", "dot", "linalg"]
    assert sorted(what for _, what in blas_calls(defs["g"])) == ["@", "matmul"]
    assert list(blas_calls(defs["h"])) == []
