"""Every script under ``benchmarks/`` is a shape check that imports cleanly.

The benchmark scripts are not collected by this suite, so a name
deleted from ``repro`` would otherwise leave one of them broken until
someone next runs it. Perf numbers come from ``perfbench/`` alone, so
``benchmarks/`` holds pytest shape checks and nothing else.
"""

import ast
import importlib
import sys
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"
MODULES = sorted(path.stem for path in BENCHMARKS.glob("*.py"))


@pytest.fixture
def benchmarks_on_path(monkeypatch):
    """``benchmarks/`` importable by bare module name (the scripts import
    their siblings and their ``conftest`` that way), and every module
    imported from it forgotten afterwards."""
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    monkeypatch.delitem(sys.modules, "conftest", raising=False)
    yield
    for name in MODULES:
        sys.modules.pop(name, None)


def _test_functions(path: Path) -> list[str]:
    """The ``test_*`` functions a module defines at top level or in a
    top-level ``Test*`` class."""
    tree = ast.parse(path.read_text(), filename=str(path))
    nodes = list(tree.body)
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and node.name.startswith("Test"):
            nodes.extend(node.body)
    return [node.name for node in nodes
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node.name.startswith("test_")]


def test_benchmarks_are_shape_checks():
    """No second perf harness: every module but ``conftest`` is a
    ``bench_*.py`` file that defines at least one test."""
    assert any(name.startswith("bench_") for name in MODULES)
    offenders = [name for name in MODULES if name != "conftest"
                 and not (name.startswith("bench_")
                          and _test_functions(BENCHMARKS / f"{name}.py"))]
    assert offenders == []


@pytest.mark.parametrize("name", MODULES)
def test_benchmark_module_imports(name, benchmarks_on_path):
    importlib.import_module(name)
