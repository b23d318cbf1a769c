"""Every module-level import in the package and the scripts is used.

No linter ships with the project, so this scans the source with `ast`: a name
bound by a top-level import must be read somewhere in its module, or, in a
package `__init__.py`, be listed in `__all__` as a re-export.

Every top-level private function, class and constant of the package must be
read somewhere in the package itself: a helper that only tests or scripts
call is dead code in the program.

The benchmark's tracer rebinds imported names inside package modules, so
every name it traces must still be bound where it looks for it, and a traced
benchmark run must still complete and record every span it traces.

SciPy is a test-only dependency: no package module imports it, and importing
the package and computing rows leaves it unloaded.
"""
import ast
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "uavcache").glob("*.py"))
MODULES = sorted([*PACKAGE, *(ROOT / "scripts").glob("*.py")])


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
    assert {"__init__.py", "simulator.py", "harness.py", "csv_diff.py"} <= names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_module_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    if path.name == "__init__.py":
        used |= exported_names(tree)
    unused = {name: line for name, line in imported_names(tree).items()
              if name not in used}
    assert not unused, f"{path.name}: unused imports {unused}"


def private_definitions(tree: ast.Module) -> dict[str, int]:
    """Top-level private functions, classes and assigned names, with their line."""
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    names[target.id] = node.lineno
    return {name: line for name, line in names.items()
            if name.startswith("_") and not name.startswith("__")}


def test_private_definitions_are_read_in_the_package():
    trees = {path: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
             for path in PACKAGE}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    unread = [f"{path.name}:{line} {name}" for path, tree in trees.items()
              for name, line in private_definitions(tree).items()
              if name not in read]
    assert not unread, f"private definitions nothing in the package reads: {unread}"


def benchmark_child():
    """perfbench/child.py, loaded by path."""
    spec = importlib.util.spec_from_file_location("perfbench_child",
                                                  ROOT / "perfbench" / "child.py")
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    return child


def test_benchmark_traced_names_exist():
    child = benchmark_child()
    missing = [f"{module_name}.{name}"
               for module_name, names in child.TRACED.items()
               for name in names
               if not hasattr(importlib.import_module(module_name), name)]
    assert child.TRACED and not missing, f"traced names not bound: {missing}"


# the traced names each benchmark workload's traced run reaches; between
# them, the two reach every one
TRACED_REACH = {
    "density_policy_sweep": {
        "analytics.system_capacity", "analytics.energy_efficiency", "caching.solve_rcp",
        "caching.mpc_policy", "caching.lru_che", "caching.lru_empirical_policy",
        "channel.kernel_table"},
    "mc_crosscheck": {
        "caching.solve_rcp", "caching.mpc_policy", "caching.lru_che",
        "simulator.estimate_capacity", "simulator.estimate_ee",
        "channel.link.los_probability", "channel.link.shadowing_sigma_db",
        "channel.link.path_loss", "channel.link.shadowing_log_moments"},
}


def test_traced_workloads_reach_every_traced_name():
    traced = {span for names in benchmark_child().TRACED.values()
              for span in names.values()}
    assert set().union(*TRACED_REACH.values()) == traced


@pytest.mark.parametrize("workload", sorted(TRACED_REACH))
def test_traced_benchmark_run_records_its_spans(workload, tmp_path):
    # a traced counter reads its call's arguments, so a change to a traced
    # function's signature breaks the traced run, not the untraced one
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "child.py"), "--workload", workload,
         "--seed", "7", "--out", str(tmp_path), "--trace"],
        capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    spans = json.loads((tmp_path / "spans.json").read_text(encoding="utf-8"))
    missing = TRACED_REACH[workload] - {span[2] for span in spans}
    assert not missing, f"{workload}: no span recorded for {sorted(missing)}"


def test_package_never_imports_scipy():
    found = []
    for path in PACKAGE:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name.split(".")[0] == "scipy"]
    assert not found, f"scipy imported by the package: {found}"


def test_rows_run_without_loading_scipy():
    # a fresh interpreter: load a preset, then one analytic and one Monte
    # Carlo row of it
    script = """
import sys
from dataclasses import replace
import uavcache
cfg = uavcache.load_config(sys.argv[1])
spec = replace(cfg.sweeps[0], grid=(1.0,), environments=("sub_urban",),
               methods=("analytic", "monte_carlo"), trials=256)
rows = uavcache.run_sweep(spec)
assert [row.method for row in rows] == ["analytic", "monte_carlo"], rows
print(",".join(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""
    preset = ROOT / "src" / "uavcache" / "presets" / "ee_vs_coop_radius.yaml"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]))
    done = subprocess.run([sys.executable, "-c", script, str(preset)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "", f"scipy modules loaded: {done.stdout}"
