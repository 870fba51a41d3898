"""The (module, name) pairs the benchmark tracer wraps must exist: a deleted or
renamed one would otherwise surface only when a traced benchmark run fails."""

import importlib

import pytest

from conftest import traced_pairs


@pytest.mark.parametrize("module, name", traced_pairs())
def test_traced_name_is_callable(module, name):
    assert callable(getattr(importlib.import_module(module), name, None))
