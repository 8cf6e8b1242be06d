"""Export hygiene: every ``__all__`` entry resolves, every name the package
root imports is listed in its module's ``__all__``, and importing the package
stays light."""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import regimevol

SRC = Path(regimevol.__file__).resolve().parents[1]
MODULES = sorted(info.name for info in pkgutil.iter_modules(regimevol.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_entries_resolve(name):
    module = importlib.import_module(f"regimevol.{name}")
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported)), f"duplicate __all__ entries in {name}"
    missing = [entry for entry in exported if not hasattr(module, entry)]
    assert not missing, f"regimevol.{name}.__all__ names undefined {missing}"


def test_package_imports_are_listed_in_module_all():
    tree = ast.parse(Path(regimevol.__file__).read_text())
    unlisted = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            module = importlib.import_module(f"regimevol.{node.module}")
            unlisted += [
                f"{node.module}.{alias.name}"
                for alias in node.names
                if alias.name not in getattr(module, "__all__", [])
            ]
    assert not unlisted, f"imported by regimevol/__init__.py but not in __all__: {unlisted}"


def test_import_leaves_scipy_stats_out():
    # scipy.stats roughly doubles the import time; the package must not need it
    code = "import sys, regimevol; print('scipy.stats' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
