"""Export hygiene: every ``__all__`` entry resolves, every name the package
root imports is listed in its module's ``__all__``, every name the benchmark
takes from the package root exists there, and importing the package and
fitting either model stay light."""

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


def _package_names_used(tree: ast.Module) -> set[str]:
    """Names taken from the package root: ``from regimevol import x`` and
    ``alias.x`` for every ``import regimevol [as alias]``."""
    aliases, names = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            aliases |= {a.asname or a.name for a in node.names if a.name == "regimevol"}
        elif isinstance(node, ast.ImportFrom) and node.module == "regimevol" and node.level == 0:
            names |= {a.name for a in node.names}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases):
            names.add(node.attr)
    return names


def test_benchmark_names_resolve_on_the_package():
    # the benchmark and its fit pipeline use the package root only; a name
    # trimmed from __init__ would break them at run time, not at import
    used = {}
    for path in sorted((SRC.parent / "perfbench").glob("*.py")):
        for name in _package_names_used(ast.parse(path.read_text())):
            used.setdefault(name, path.name)
    assert {"run_chain", "hamilton_filter"} <= used.keys(), sorted(used)  # the parse saw them
    missing = {name: where for name, where in used.items() if not hasattr(regimevol, name)}
    assert not missing, f"perfbench uses names regimevol does not export: {missing}"


_FIT_SCRIPT = """
import sys
import numpy as np
import regimevol as rv

rv.positive_stable_logpdf(1.3, 1.7)
y = 0.01 * np.random.default_rng(5).standard_t(2.5, 50)
for model, build, cls, start in (
    ("stable", rv.build_stable_priors, rv.StableGibbsSampler, rv.initial_stable_state),
    ("jump", rv.build_jump_priors, rv.JumpGibbsSampler, rv.initial_jump_state),
):
    cfg = rv.RunConfig(model=model, seed=5, iters=3, burnin=1)
    priors = build(cfg, y)
    sampler = cls(y, priors, adapt_iters=cfg.burnin, step_scale=cfg.step_scale)
    chain = rv.run_chain(sampler.sweep, start(y, priors), cfg.iters, cfg.burnin,
                         np.random.default_rng(cfg.seed), acceptance=sampler.acceptance)
    rv.chain_summary(chain)
heavy = ("scipy.stats", "scipy.integrate", "scipy.optimize")
print(sorted(name for name in heavy if name in sys.modules))
"""


def test_import_leaves_scipy_stats_out():
    # scipy.stats roughly doubles the import time, and scipy.integrate plus
    # scipy.optimize add about 0.3 s more: neither importing the package nor
    # fitting either model may need them
    proc = subprocess.run([sys.executable, "-c", _FIT_SCRIPT], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
