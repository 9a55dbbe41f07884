"""The benchmark wraps named vortexlab functions from outside
(`benchmarks/layers.py`). A rename or deletion of one of them must fail
here, not in a benchmark run."""

import importlib.util
from pathlib import Path

import pytest

LAYERS = Path(__file__).resolve().parent.parent / "benchmarks" / "layers.py"


def _load_layers():
    spec = importlib.util.spec_from_file_location("benchmark_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


layers = _load_layers()


@pytest.mark.parametrize("qualname", [q for names in layers.GROUPS.values() for q in names])
def test_wrapped_name_is_defined_by_its_owner(qualname):
    owner, attr = layers._resolve(qualname)
    # install() rebinds owner.__dict__[attr]; an inherited or missing name breaks it
    assert attr in vars(owner), f"{qualname} is not defined in {owner!r}"
    assert callable(vars(owner)[attr])
