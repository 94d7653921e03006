"""Checks on the library source itself."""

import ast
from collections import Counter
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
    # AssertionError escapes as exit 1.  The file-number reader raises
    # ValueError on purpose: the state, circuit and unitary readers turn it
    # into InvalidFile.
    allowed = {("_file_number", "ValueError")}
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


def _functions(tree):
    return (
        node
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
    )


def test_tolerances_are_named_constants():
    # a tolerance written inline is one nobody can find or tune; module-level
    # constants name them, so small float literals stay out of function bodies
    found = sorted(
        {
            f"{path.name}:{node.lineno} {node.value!r}"
            for path in sorted(SOURCE.glob("*.py"))
            for function in _functions(ast.parse(path.read_text(encoding="utf-8")))
            for node in ast.walk(function)
            if isinstance(node, ast.Constant)
            and isinstance(node.value, float)
            and 0.0 < node.value < 1e-5
        }
    )
    assert not found, f"small float literals inside functions: {found}"


def _references(tree):
    """Identifiers a tree refers to: names, attribute names and string constants."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def _definitions(tree):
    """(name, defining statement) of each top-level name of a module."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id, node


def test_every_top_level_name_is_used():
    # a library name that nothing refers to, outside its own definition and
    # the package's re-exports, is dead code
    root = SOURCE.parents[1]
    files = [
        path
        for folder in ("src", "tests", "bench")
        for path in sorted((root / folder).rglob("*.py"))
        if path.name != "__init__.py"
    ]
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in files}
    uses = Counter(name for tree in trees.values() for name in _references(tree))
    found = [
        f"{path.name}: {name}"
        for path in files
        if path.parent == SOURCE
        for name, node in _definitions(trees[path])
        if uses[name] == Counter(_references(node))[name]
    ]
    assert not found, f"top-level names nothing refers to: {found}"
