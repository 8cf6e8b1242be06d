"""The repository scripts under ``tools/``: the code-line counter, the
no-print check and the per-stage sweep meter."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _load(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


code_lines = _load("code_lines")

# the 12 code lines are marked with "# code"; docstrings (module, class,
# function and async function, one line and several), comment-only and blank
# lines do not count, while a multi-line string that is not a docstring and a
# continued statement count every line they span
SOURCE = '''"""Module docstring
over two lines."""

import os  # code

# a comment-only line


class Box:  # code
    """One-line class docstring."""

    size = 3  # code


def total(a,  # code
          b):  # code
    """Function docstring
    over three
    lines."""
    text = """a string  # code
    that is not a docstring"""  # code
    return (a  # code
            + b  # code
            + len(text))  # code


async def wait():  # code
    'Single-quoted one-line docstring.'
    return 1  # code
'''


def test_code_lines_counts_exactly_the_code_lines():
    assert code_lines.code_lines(SOURCE) == 12


def test_code_lines_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "b.py").write_text('"""Only a docstring."""\n\nx = 1\n')
    assert code_lines.main(["code_lines.py", str(tmp_path)]) == 0
    assert capsys.readouterr().out.split("\n") == [
        "    12  a.py", "     1  b.py", "    13  total", ""]


def _no_print(package):
    return subprocess.run([sys.executable, str(ROOT / "tools" / "no_print.py"), str(package)],
                          capture_output=True, text=True, check=False)


def test_no_print_names_each_call_and_fails(tmp_path):
    (tmp_path / "ok.py").write_text("import logging\nlogging.info('x')\n")
    (tmp_path / "shout.py").write_text("def f():\n    x = 1\n    print(x)\n")
    run = _no_print(tmp_path)
    assert run.returncode == 1
    assert run.stdout == f"{tmp_path / 'shout.py'}:3\n"


def test_no_print_passes_the_package():
    run = _no_print(ROOT / "src" / "regimevol")
    assert run.returncode == 0, run.stdout
    assert run.stdout == f"no print calls in {ROOT / 'src' / 'regimevol'}\n"


def _sweep_memory(*args):
    return subprocess.run([sys.executable, str(ROOT / "tools" / "sweep_memory.py"), *args],
                          capture_output=True, text=True, check=False, timeout=300)


@pytest.mark.parametrize("model", ["stable", "jump"])
def test_sweep_memory_prints_every_stage(model):
    run = _sweep_memory(model, "300", "3")
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert lines[0].startswith(f"{model} T=300 M=4: 3 sweeps untraced, 3 traced")
    assert lines[1].split() == ["stage", "ms", "minflt", "peak/emission"]
    stages = [line.split()[0] for line in lines[2:7]]
    assert stages == ["emission", "filter", "path", "rest", "sweep"]
    for line in lines[2:7]:
        ms, faults, peak = map(float, line.split()[1:])
        assert ms > 0 and faults >= 0 and peak >= 0, line
    # the series-long rows alone are 2.5 emission matrices
    assert len(lines) == 8
    held, unit = lines[7].split(maxsplit=2)[1:]
    assert lines[7].startswith("held") and unit == "emission matrices", lines[7]
    assert float(held) >= 2.5, lines[7]


def test_sweep_memory_refuses_bad_arguments():
    run = _sweep_memory("gauss", "300", "3")
    assert run.returncode == 2
    assert "Usage: python tools/sweep_memory.py MODEL T SWEEPS" in run.stderr
