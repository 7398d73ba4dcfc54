"""The benchmark's tracer skips any wrap point missing from ``llo_sim``, so a
renamed or moved function would make its per-layer figures read 0 without an
error.  This pins every wrap point to a callable that exists."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _traced():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.TRACED


@pytest.mark.parametrize(
    "module_name,attr", [(module, attr) for module, attr, *_ in _traced()]
)
def test_wrap_point_resolves_to_a_callable(module_name, attr):
    module = importlib.import_module(module_name)
    assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"
