"""Fail if any module of the package calls ``print``: progress goes through
logging.

Prints one ``path:line`` per call and exits 1, or prints that there are none
and exits 0.

Usage: python tools/no_print.py [package directory, default src/regimevol]
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path


def print_calls(package: Path) -> list[str]:
    """``path:line`` of every call to the name ``print`` in the package's modules."""
    return [
        f"{path}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "print"
    ]


def main(argv: list[str]) -> int:
    package = Path(argv[1] if len(argv) > 1 else "src/regimevol")
    bad = print_calls(package)
    print("\n".join(bad) or f"no print calls in {package}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
