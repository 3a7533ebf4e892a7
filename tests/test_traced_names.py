"""Every function the benchmark's traced run wraps must exist in the package.

perfbench/inproc.py lists them in TARGETS; a name missing from the package
only drops its per-layer metrics there, so a deletion is caught here instead.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest


def traced_names():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "inproc.py"
    spec = importlib.util.spec_from_file_location("perfbench_inproc", path)
    inproc = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inproc)
    return [(layer, name) for layer, names in inproc.TARGETS.items() for name in names]


@pytest.mark.parametrize("layer,name", traced_names())
def test_traced_name_is_a_package_callable(layer, name):
    module = importlib.import_module(f"rumormatch.{layer}")
    assert callable(getattr(module, name, None)), f"rumormatch.{layer}.{name}"
