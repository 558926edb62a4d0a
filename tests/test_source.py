"""Checks on the library source itself."""

import ast
from pathlib import Path

import torusfix


def test_library_has_no_assert():
    # assert statements vanish under python -O; invariants must raise
    offenders = []
    for path in sorted(Path(torusfix.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                offenders.append(f"{path.name}:{node.lineno}")
    assert not offenders, offenders
