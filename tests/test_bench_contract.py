"""The names the benchmark in perfbench/ reaches into tqft2d by.

The traced run rebinds functions by name and the workloads call a few
private CLI helpers, so a rename in tqft2d would break the benchmark
without failing any other test.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

from tqft2d import frobenius

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _workload_attributes():
    """(module, name) for every ``module.name`` in workloads.py whose module
    is imported by ``from tqft2d import ...``, and for every name imported
    by ``from tqft2d.module import ...``."""
    tree = ast.parse((PERFBENCH / "workloads.py").read_text(encoding="utf-8"))
    imports = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    modules = {a.asname or a.name for node in imports if node.module == "tqft2d" for a in node.names}
    used = {
        (node.value.id, node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules
    }
    used |= {
        (node.module.split(".", 1)[1], a.name)
        for node in imports
        if node.module and node.module.startswith("tqft2d.")
        for a in node.names
    }
    return sorted(used)


def test_traced_functions_resolve():
    tracing = _load("tracing")
    for module in tracing.MODULES:
        importlib.import_module(f"tqft2d.{module}")
    pairs = [pair for entries in tracing.TRACED.values() for pair in entries]
    assert pairs
    for module, name in pairs:
        assert callable(getattr(importlib.import_module(f"tqft2d.{module}"), name, None)), (module, name)


def test_validation_cache_can_be_cleared():
    assert callable(frobenius.cached_check_all.cache_clear)


def test_workload_attributes_exist():
    used = _workload_attributes()
    assert ("cli", "_parse_group_spec") in used and ("cli", "_read_algebra") in used
    for module, name in used:
        assert hasattr(importlib.import_module(f"tqft2d.{module}"), name), (module, name)

