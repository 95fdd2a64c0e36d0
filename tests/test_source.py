"""Checks on the library source itself."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "hsagg"


def test_library_has_no_assert_statements():
    """`python -O` strips assert, so every check in the library must be an explicit raise."""
    paths = sorted(SRC.glob("*.py"))
    assert paths, f"no sources found in {SRC}"
    found = [
        f"{path.name}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements in src/hsagg: {found}"
