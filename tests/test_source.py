"""Checks on the library source itself."""

import ast
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
