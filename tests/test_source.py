"""Checks on the library source itself."""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "hofree"


def test_library_has_no_assert_statements():
    # `python -O` strips assert statements, so invariants are real checks
    # that raise InvariantError, ValueError or GuardError
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert sorted(SRC.glob("*.py")) and found == []


def test_cli_import_leaves_out_what_only_some_commands_run():
    # the thread pool (with logging and queue) runs only for --threads > 1
    # and hashlib only in simulate, so importing the cli loads neither
    code = ("import sys, hofree.cli; print(' '.join(m for m in "
            "('concurrent.futures', 'hashlib', 'logging', 'queue') "
            "if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], check=True, text=True,
                         capture_output=True, env={**os.environ, "PYTHONPATH": str(SRC.parent)})
    assert out.stdout.split() == []


def _writes_a_file(f) -> bool:
    """Whether a call of f is open(...), x.open, .write_text, .write_bytes
    or csv.writer."""
    if isinstance(f, ast.Name):
        return f.id == "open"
    return isinstance(f, ast.Attribute) and (
        f.attr in ("open", "write_text", "write_bytes")
        or f.attr == "writer" and ast.unparse(f.value) == "csv")


def test_only_the_cli_writes_files():
    # output files and their formats belong to the command-line surface;
    # the library layers return values
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py")) if path.name != "cli.py"
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Call) and _writes_a_file(node.func)]
    assert found == []
