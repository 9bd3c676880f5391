"""The library imports only the standard library and itself; the test
oracles (`reference`, sympy) and test tooling stay out of it."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "ujla"
NEVER = {"reference", "sympy", "hypothesis"}


def imported_modules(tree):
    """(level, dotted name) of every import; level > 0 marks a relative one."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield 0, alias.name
        elif isinstance(node, ast.ImportFrom):
            if node.module:
                yield node.level, node.module
            else:  # from . import name
                for alias in node.names:
                    yield node.level, alias.name


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_library_imports_only_stdlib_and_itself(path):
    for level, name in imported_modules(ast.parse(path.read_text(), filename=str(path))):
        top = name.split(".")[0]
        assert top not in NEVER, name
        assert level > 0 or top == "ujla" or top in sys.stdlib_module_names, name


def test_commands_do_not_import_multiprocessing():
    """multiprocessing, and socket with it, is imported only when a scan
    asks for workers, not by every command."""
    code = ("import sys, ujla, ujla.cli; "
            "print(sorted({'multiprocessing', 'socket'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": str(SRC.parent)}).stdout
    assert out.strip() == "[]"
