"""Every module-level import in the package and the scripts is used.

No linter ships with the project, so this scans the source with `ast`: a name
bound by a top-level import must be read somewhere in its module, or, in a
package `__init__.py`, be listed in `__all__` as a re-export.

The benchmark's tracer rebinds imported names inside package modules, so
every name it traces must still be bound where it looks for it.
"""
import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted([*(ROOT / "src" / "uavcache").glob("*.py"),
                  *(ROOT / "scripts").glob("*.py")])


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Names bound by the module's top-level imports, with their line."""
    names = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def exported_names(tree: ast.Module) -> set[str]:
    """The string entries of a top-level `__all__` list or tuple."""
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            return {elt.value for elt in node.value.elts
                    if isinstance(elt, ast.Constant)}
    return set()


def test_modules_are_found():
    names = {p.name for p in MODULES}
    assert {"__init__.py", "simulator.py", "harness.py", "crosscheck.py"} <= names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_module_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    if path.name == "__init__.py":
        used |= exported_names(tree)
    unused = {name: line for name, line in imported_names(tree).items()
              if name not in used}
    assert not unused, f"{path.name}: unused imports {unused}"


def test_benchmark_traced_names_exist():
    path = ROOT / "perfbench" / "child.py"
    spec = importlib.util.spec_from_file_location("perfbench_child", path)
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    missing = [f"{module_name}.{name}"
               for module_name, names in child.TRACED.items()
               for name in names
               if not hasattr(importlib.import_module(module_name), name)]
    assert child.TRACED and not missing, f"traced names not bound: {missing}"
