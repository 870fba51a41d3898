"""Every dataclass field defined under src/cohlim/ is read somewhere.

A stdlib `ast` scan: a field counts as read when its name appears as an
attribute read (`obj.name`) anywhere in src/ or tests/ (this file aside).  It
catches the fields that are set on construction and never used.  The match
is by name only, so a field whose name is also read as some other attribute
passes unseen: a `mu2` field hides behind `run.mu2`, a `p` field behind
`self.p`.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = sorted((ROOT / "src" / "cohlim").glob("*.py"))
SOURCES = sorted((ROOT / "src").rglob("*.py")) + sorted(
    p for p in (ROOT / "tests").glob("*.py") if p.name != Path(__file__).name
)


def is_dataclass_decorator(node):
    if isinstance(node, ast.Call):
        node = node.func
    return (isinstance(node, ast.Name) and node.id == "dataclass") or (
        isinstance(node, ast.Attribute) and node.attr == "dataclass"
    )


def dataclass_fields(tree):
    """(class, field) of every annotated field of a @dataclass class."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and any(map(is_dataclass_decorator, node.decorator_list)):
            for stmt in node.body:
                if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                    yield node.name, stmt.target.id


def attributes_read(tree):
    return {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


READ = set().union(*(attributes_read(ast.parse(p.read_text(), filename=str(p))) for p in SOURCES))


@pytest.mark.parametrize("path", LIBRARY, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_field_is_read(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    unread = [f"{cls}.{name}" for cls, name in dataclass_fields(tree) if name not in READ]
    assert not unread, f"dataclass fields never read in src/ or tests/: {', '.join(unread)}"


def test_scan_sees_an_unread_field():
    source = (
        "from dataclasses import dataclass\n"
        "@dataclass(frozen=True)\nclass A:\n    used: int\n    unused: int\n"
        "print(A(1, 2).used)\n"
    )
    tree = ast.parse(source)
    read = attributes_read(tree)
    assert [name for _, name in dataclass_fields(tree) if name not in read] == ["unused"]
