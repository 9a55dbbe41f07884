"""The benchmark wraps named vortexlab functions from outside
(`benchmarks/layers.py`). A rename or deletion of one of them must fail
here, not in a benchmark run, and so must a run-path transform that no
wrapped name would time."""

import ast
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
LAYERS = ROOT / "benchmarks" / "layers.py"
PACKAGE = ROOT / "src" / "vortexlab"


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


def _wrapped_names() -> set[str]:
    """The qualified names of `GROUPS`, read from the source without running it."""
    for node in ast.parse(LAYERS.read_text()).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "GROUPS" for t in node.targets):
            return {q for names in ast.literal_eval(node.value).values() for q in names}
    raise AssertionError("benchmarks/layers.py assigns no GROUPS")


def _fields_functions_calling_ifftn() -> set[str]:
    """The module-level functions of fields.py that call `ifftn`, directly or
    through another function or method defined there."""
    tree = ast.parse((PACKAGE / "fields.py").read_text())
    calls = {}  # function or method name -> the names it calls
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef):
            called = calls.setdefault(node.name, set())
            for call in ast.walk(node):
                if isinstance(call, ast.Call):
                    called.add(getattr(call.func, "attr", getattr(call.func, "id", None)))
    reaching = {"ifftn"}
    while True:
        more = {name for name, called in calls.items() if called & reaching} - reaching
        if not more:
            break
        reaching |= more
    return reaching & {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}


@pytest.mark.parametrize("module", ["diagnostics", "pipeline"])
def test_run_path_transforms_of_fields_are_wrapped(module):
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    imported = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == "fields"
        for alias in node.names
    }
    transforming = imported & _fields_functions_calling_ifftn()
    assert transforming, f"{module} imports no transforming fields function; the check reads nothing"
    unwrapped = sorted(f"fields.{name}" for name in transforming if f"fields.{name}" not in _wrapped_names())
    assert not unwrapped, f"{module} calls fields transforms that no benchmark layer times: {unwrapped}"
