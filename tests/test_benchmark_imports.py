"""Every script under ``benchmarks/`` imports cleanly.

The benchmark scripts are not collected by this suite, so a name
deleted from ``repro`` would otherwise leave one of them broken until
someone next runs it.
"""

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


def test_benchmarks_found():
    assert "run_benches" in MODULES


@pytest.mark.parametrize("name", MODULES)
def test_benchmark_module_imports(name, benchmarks_on_path):
    importlib.import_module(name)
