"""Checks on the library source itself."""

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parents[1] / "src" / "fockopt"


def test_no_bare_assert():
    # an invariant must survive ``python -O``, which strips assert statements
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SOURCE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements in the library: {found}"


def _flagged_raises(node, function=None):
    """(function, line, name) of each ``raise ValueError`` or ``raise AssertionError``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _flagged_raises(child, child.name)
            continue
        if isinstance(child, ast.Raise) and child.exc is not None:
            exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
            if isinstance(exc, ast.Name) and exc.id in ("ValueError", "AssertionError"):
                yield function, child.lineno, exc.id
        yield from _flagged_raises(child, function)


def test_library_errors_are_fockopt_errors():
    # the CLI maps FockoptError to its exit codes; a ValueError or an
    # AssertionError escapes as exit 1.  The two file-number readers raise
    # ValueError on purpose: the state, circuit and unitary readers turn it
    # into InvalidFile.
    allowed = {("_file_number", "ValueError"), ("_file_count", "ValueError")}
    found = [
        f"{path.name}:{line} {name} in {function}"
        for path in sorted(SOURCE.glob("*.py"))
        for function, line, name in _flagged_raises(
            ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        )
        if (function, name) not in allowed
    ]
    assert not found, f"non-FockoptError raised by the library: {found}"


def test_library_does_not_import_scipy():
    # numpy is the one runtime dependency; scipy serves the tests as an oracle
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SOURCE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if (
            isinstance(node, ast.Import)
            and any(alias.name.split(".")[0] == "scipy" for alias in node.names)
        )
        or (isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "scipy")
    ]
    assert not found, f"scipy imported by the library: {found}"
