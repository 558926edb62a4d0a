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


def _library_uses(module, names):
    """Where the library imports one of `names` from `module`, or reads it
    as an attribute of `module` under any alias."""
    nodes = list(_library_nodes())
    aliases = {alias.asname or alias.name for _, node in nodes if isinstance(node, ast.Import)
               for alias in node.names if alias.name == module}
    return [
        f"{name}:{node.lineno}" for name, node in nodes
        if (isinstance(node, ast.ImportFrom) and node.module == module
            and any(alias.name in names for alias in node.names))
        or (isinstance(node, ast.Attribute) and node.attr in names
            and isinstance(node.value, ast.Name) and node.value.id in aliases)
    ]


def test_library_has_no_unbounded_count():
    # itertools.count is an open-ended integer scan: no bound in the
    # input's bit size
    offenders = _library_uses("itertools", {"count"})
    assert not offenders, offenders


def test_library_has_no_memo_cache():
    # a process-wide memo hides repeated work and holds polynomials for the
    # life of the process: each result is computed where it is needed
    offenders = _library_uses("functools", {"lru_cache", "cache", "cached_property"})
    assert not offenders, offenders


def test_library_has_no_unreferenced_names():
    # a module-level function, class, method or constant that nothing in
    # src/ uses is dead code unless the package exports it: a name only
    # tests use keeps code alive for the tests' sake; names are matched by
    # identifier
    defined = {}
    for name, node in _library_nodes():
        if not isinstance(node, ast.Module):
            continue
        for stmt in node.body:
            members = stmt.body if isinstance(stmt, ast.ClassDef) else []
            for item in [stmt, *members]:
                if isinstance(item, (ast.FunctionDef, ast.ClassDef)):
                    defined[item.name] = f"{name}:{item.lineno}"
            targets = stmt.targets if isinstance(stmt, ast.Assign) else []
            if isinstance(stmt, ast.AnnAssign):
                targets = [stmt.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    defined[target.id] = f"{name}:{target.lineno}"
    used = {node.id if isinstance(node, ast.Name) else node.attr for _, node in _library_nodes()
            if isinstance(node, (ast.Name, ast.Attribute)) and not isinstance(node.ctx, ast.Store)}
    offenders = sorted(
        f"{where} {ident}" for ident, where in defined.items()
        if ident not in used and ident not in torusfix.__all__
        and not (ident.startswith("__") and ident.endswith("__"))
    )
    assert not offenders, offenders


def test_library_has_no_float():
    # every result is exact: no float literal, no float(), and none of the
    # math functions that return a float
    math_floats = {"sqrt", "log", "log2", "log10", "log1p", "exp", "pow", "fsum", "hypot",
                   "isclose", "fabs"}
    offenders = _library_uses("math", math_floats) + [
        f"{name}:{node.lineno}" for name, node in _library_nodes()
        if (isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)))
        or (isinstance(node, ast.Name) and node.id == "float")
    ]
    assert not offenders, offenders


def test_polynomial_core_is_integer():
    # division, gcds, Sturm chains, square-free parts, Sturm signs and root
    # bisection are integer computations: no Fraction and no true division
    # inside them
    core = {"poly_divmod", "divexact", "_primitive_remainder", "sturm_chain", "_square_free",
            "square_free_part", "squarefree_decomposition", "_bracket", "_sign_at",
            "_sign_variations", "_isolating_brackets", "_bisect"}
    found, offenders = set(), []
    for name, node in _library_nodes():
        if name != "polynomials.py" or not isinstance(node, ast.FunctionDef) or node.name not in core:
            continue
        found.add(node.name)
        offenders += [
            f"{node.name}:{inner.lineno}" for inner in ast.walk(node)
            if (isinstance(inner, ast.Name) and inner.id == "Fraction")
            or (isinstance(inner, (ast.BinOp, ast.AugAssign)) and isinstance(inner.op, ast.Div))
        ]
    assert found == core, sorted(core - found)
    assert not offenders, offenders
