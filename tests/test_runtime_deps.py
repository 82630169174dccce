"""The runtime imports nothing beyond the standard library and numpy."""

import os
import pathlib
import subprocess
import sys
import tomllib

ROOT = pathlib.Path(__file__).resolve().parents[1]

#: Imports repro.cli and every module of the package in a fresh
#: interpreter, then prints the top-level modules that were not loaded
#: before the first repro import (multiprocessing registers ``__main__``
#: again as ``__mp_main__``).
_PROBE = """
import importlib, pkgutil, sys
before = set(sys.modules)
import repro, repro.cli
for info in pkgutil.walk_packages(repro.__path__, "repro."):
    importlib.import_module(info.name)
print("\\n".join(sorted({name.split(".")[0]
                         for name in set(sys.modules) - before})))
"""


def test_runtime_imports_only_stdlib_and_numpy():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", _PROBE], check=True,
                          capture_output=True, text=True, env=env)
    loaded = set(proc.stdout.split()) - {"__mp_main__"}
    assert "repro" in loaded and "numpy" in loaded
    assert loaded - set(sys.stdlib_module_names) - {"repro", "numpy"} \
        == set()


def test_numpy_is_the_one_declared_dependency():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert project["dependencies"] == ["numpy>=2.0"]
