"""The (module, name) pairs the benchmark tracer wraps must exist: a deleted or
renamed one would otherwise surface only when a traced benchmark run fails."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "benchmark" / "spans.py"


def traced_pairs():
    spec = importlib.util.spec_from_file_location("benchmark_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    # dataclasses resolves a class's module through sys.modules
    sys.modules[spec.name] = spans
    try:
        spec.loader.exec_module(spans)
    finally:
        del sys.modules[spec.name]
    return spans.TRACED


@pytest.mark.parametrize("module, name", traced_pairs())
def test_traced_name_is_callable(module, name):
    assert callable(getattr(importlib.import_module(module), name, None))
