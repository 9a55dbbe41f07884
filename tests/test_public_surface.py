"""Every name a module of the package exports in `__all__` has a use outside
the tests: package code refers to it, or the benchmark wraps it."""

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "vortexlab"
LAYERS = ROOT / "benchmarks" / "layers.py"

# exported with no use in the package, each for the reason given
ALLOWED = {
    "storage.load_field": "the reader of the snapshot format that save_field writes; runs only write it",
}


def _load_layers():
    spec = importlib.util.spec_from_file_location("benchmark_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _exports(tree: ast.Module) -> list:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return ast.literal_eval(node.value)
    return []


def _names_used(node: ast.AST) -> set:
    """The names `node` refers to in code: loaded names, attributes and
    imported names. Strings, docstrings among them, do not count."""
    used = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            used.add(child.id)
        elif isinstance(child, ast.Attribute):
            used.add(child.attr)
        elif isinstance(child, ast.ImportFrom):
            used.update(alias.name for alias in child.names)
    return used


def unused_exports() -> set:
    """The exports ("module.name") that no package code refers to. A
    reference from inside an unused export does not count, and neither does
    a re-export by the package root."""
    trees = {path.stem: ast.parse(path.read_text()) for path in PACKAGE.glob("*.py")}
    exports = {f"{module}.{name}" for module, tree in trees.items() for name in _exports(tree)}
    statements = []  # (the export a top-level statement defines or None, the names it uses)
    for module, tree in trees.items():
        for node in tree.body:
            if module == "__init__" and isinstance(node, ast.ImportFrom):
                continue
            defines = f"{module}.{getattr(node, 'name', '')}"
            statements.append((defines if defines in exports else None, _names_used(node)))
    unused = set()
    while True:
        used = set().union(*(names for defines, names in statements if defines not in unused))
        found = {export for export in exports if export.split(".", 1)[1] not in used}
        if found == unused:
            return unused
        unused = found


def test_every_export_is_used_by_the_package_or_wrapped_by_the_benchmark():
    wrapped = {qualname for names in _load_layers().GROUPS.values() for qualname in names}
    assert sorted(unused_exports() - wrapped - ALLOWED.keys()) == []


def test_the_allowed_names_are_exported_and_unused():
    # an allowance outlives its reason once the name is used or gone
    assert ALLOWED.keys() <= unused_exports()
