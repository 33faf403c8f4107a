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
