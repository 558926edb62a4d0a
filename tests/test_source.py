"""Checks on the library source itself."""

import ast
from pathlib import Path

import torusfix


def _library_nodes():
    for path in sorted(Path(torusfix.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            yield path.name, node


def test_library_has_no_assert():
    # assert statements vanish under python -O; invariants must raise
    offenders = [f"{name}:{node.lineno}" for name, node in _library_nodes()
                 if isinstance(node, ast.Assert)]
    assert not offenders, offenders


def test_library_has_no_unbounded_count():
    # itertools.count is an open-ended integer scan: no bound in the
    # input's bit size
    nodes = list(_library_nodes())
    modules = {alias.asname or alias.name for _, node in nodes if isinstance(node, ast.Import)
               for alias in node.names if alias.name == "itertools"}
    offenders = [
        f"{name}:{node.lineno}" for name, node in nodes
        if (isinstance(node, ast.ImportFrom) and node.module == "itertools"
            and any(alias.name == "count" for alias in node.names))
        or (isinstance(node, ast.Attribute) and node.attr == "count"
            and isinstance(node.value, ast.Name) and node.value.id in modules)
    ]
    assert not offenders, offenders
