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


def _value_error_raises(node, function=None):
    """(function, line) of each ``raise ValueError`` below ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _value_error_raises(child, child.name)
            continue
        if isinstance(child, ast.Raise) and child.exc is not None:
            exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
            if isinstance(exc, ast.Name) and exc.id == "ValueError":
                yield function, child.lineno
        yield from _value_error_raises(child, function)


def test_library_errors_are_fockopt_errors():
    # the CLI maps FockoptError to its exit codes; a bare ValueError escapes
    # as exit 1.  The two file-number readers raise ValueError on purpose:
    # the state, circuit and unitary readers turn it into InvalidFile.
    # chsh_max's check guards an invariant no normalized TwoQubitState
    # breaks (a pure state has |T|^2 >= 1) and is left to the error table.
    allowed = {"_file_number", "_file_count", "chsh_max"}
    found = [
        f"{path.name}:{line} in {function}"
        for path in sorted(SOURCE.glob("*.py"))
        for function, line in _value_error_raises(
            ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        )
        if function not in allowed
    ]
    assert not found, f"ValueError raised by the library: {found}"
