"""Checks on the library source itself."""

import ast
import importlib
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCE = ROOT / "src" / "fockopt"


def test_no_bare_assert():
    # an invariant must survive ``python -O``, which strips assert statements
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SOURCE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements in the library: {found}"


def _function_nodes(tree, function=None):
    """(name of the enclosing function, node) of every node in ``tree``;
    the name is None at module level."""
    for child in ast.iter_child_nodes(tree):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _function_nodes(child, child.name)
            continue
        yield function, child
        yield from _function_nodes(child, function)


def _parsed_sources():
    for path in sorted(SOURCE.glob("*.py")):
        yield path, ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_library_errors_are_fockopt_errors():
    # the CLI maps FockoptError to its exit codes; a ValueError or an
    # AssertionError escapes as exit 1.  The file-number reader raises
    # ValueError on purpose: the state, circuit and unitary readers turn it
    # into InvalidFile.
    allowed = {("_file_number", "ValueError")}
    found = []
    for path, tree in _parsed_sources():
        for function, node in _function_nodes(tree):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if (
                isinstance(exc, ast.Name)
                and exc.id in ("ValueError", "AssertionError")
                and (function, exc.id) not in allowed
            ):
                found.append(f"{path.name}:{node.lineno} {exc.id} in {function}")
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


def test_tolerances_are_named_constants():
    # every tolerance lives in the one table, tolerances.py: a small float
    # literal anywhere else, module level included, is a tolerance outside it
    found = sorted(
        f"{path.name}:{node.lineno} {node.value!r}"
        for path, tree in _parsed_sources()
        if path.name != "tolerances.py"
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant)
        and isinstance(node.value, float)
        and 0.0 < node.value < 1e-5
    )
    assert not found, f"small float literals outside tolerances.py: {found}"


def test_every_tolerance_says_what_it_guards():
    # the table's one line per constant, directly above it
    path = SOURCE / "tolerances.py"
    lines = path.read_text(encoding="utf-8").splitlines()
    bare = [
        name
        for name, node in _definitions(ast.parse("\n".join(lines)))
        if not lines[node.lineno - 2].startswith("# ")
    ]
    assert not bare, f"tolerances without a comment line: {bare}"


def _references(tree):
    """Identifiers a tree refers to: names, attribute names and string constants."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def _names(tree):
    """The identifiers a module refers to or imports."""
    names = set(_references(tree))
    names.update(node.name for node in ast.walk(tree) if isinstance(node, ast.alias))
    return names


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


def test_one_evolution_kernel():
    # the sector kernel and its herald mask have their callers in states.py
    # and in the circuit plan of circuits.py: no other module imports or
    # names them
    found = []
    for path, tree in _parsed_sources():
        if path.name in ("states.py", "circuits.py"):
            continue
        kernel = _names(tree) & {"_evolve_terms", "_project"}
        found += [f"{path.name}: {name}" for name in sorted(kernel)]
    assert not found, f"the kernel reached outside states.py and circuits.py: {found}"


def test_block_cache_stays_in_the_kernel():
    # two-particle gates read their blocks off the gate; only the kernel's
    # larger boson sectors use the cached symmetric powers
    found = [
        path.name
        for path, tree in _parsed_sources()
        if path.name != "states.py" and "_symmetric_powers" in _names(tree)
    ]
    assert not found, f"the block cache named outside states.py: {found}"


def _calls_to(node, name):
    return isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == name


def _tuple_keys(node):
    """Names that a loop or comprehension binds to the items of
    ``map(tuple, ...)``: occupation tuples."""
    if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
        loops = node.generators
    elif isinstance(node, ast.For):
        loops = [node]
    else:
        return set()
    return {
        name.id
        for loop in loops
        if _calls_to(loop.iter, "map")
        and loop.iter.args
        and isinstance(loop.iter.args[0], ast.Name)
        and loop.iter.args[0].id == "tuple"
        for name in ast.walk(loop.target)
        if isinstance(name, ast.Name)
    }


def test_one_rank_rule():
    # a basis state's rank is arithmetic (states._ranks): no module looks a
    # rank up in a dict keyed by occupation tuples, as rank[o] for o in
    # map(tuple, ...) or rank[tuple(o)], and _sector, which lists the basis,
    # returns its occupations and multinomials and no rank map
    found = []
    for path, tree in _parsed_sources():
        for node in ast.walk(tree):
            keys = _tuple_keys(node)
            found += [
                f"{path.name}:{sub.lineno} subscript by an occupation tuple"
                for sub in (ast.walk(node) if keys else ())
                if isinstance(sub, ast.Subscript)
                and isinstance(sub.slice, ast.Name)
                and sub.slice.id in keys
            ]
            if isinstance(node, ast.Subscript) and _calls_to(node.slice, "tuple"):
                found.append(f"{path.name}:{node.lineno} subscript by an occupation tuple")
            if isinstance(node, ast.Subscript) and _calls_to(node.value, "_sector"):
                if not (isinstance(node.slice, ast.Constant) and node.slice.value in (0, 1)):
                    found.append(f"{path.name}:{node.lineno} _sector read past its two arrays")
            if isinstance(node, ast.Assign) and _calls_to(node.value, "_sector"):
                if any(isinstance(t, ast.Tuple) and len(t.elts) != 2 for t in node.targets):
                    found.append(f"{path.name}:{node.lineno} _sector unpacked past its two arrays")
    assert not found, f"ranks looked up outside states._ranks: {sorted(set(found))}"
    sector = importlib.import_module("fockopt.states")._sector(3, 2, False)
    assert len(sector) == 2 and not any(isinstance(part, dict) for part in sector)


def test_replay_takes_no_search_shortcut():
    # replay checks that a recorded experiment violates by running its
    # circuits through the kernel: neither replay_witness nor any name of
    # bell.py it reaches may use the constant maps, their post-selection
    # helpers or the Schmidt-form optimum that the search runs in their place
    definitions = dict(_definitions(ast.parse((SOURCE / "bell.py").read_text(encoding="utf-8"))))
    shortcuts = {
        "_splitter_map",
        "_stage_maps",
        "_postselect",
        "_KEPT",
        "yurke_stoler_postselect",
        "chsh_max",
    }
    assert shortcuts <= definitions.keys()
    reached, todo = set(), ["replay_witness"]
    while todo:
        name = todo.pop()
        reached.add(name)
        todo += sorted((set(_references(definitions[name])) & definitions.keys()) - reached)
    assert "_chsh" in reached
    found = sorted(reached & shortcuts)
    assert not found, f"replay reaches the search's shortcuts: {found}"


def test_candidates_build_no_circuit():
    # a candidate is a heralded pair vector: the generators herald branches
    # and read stage maps, and find_witness builds a circuit for the witness
    # alone
    definitions = dict(_definitions(ast.parse((SOURCE / "bell.py").read_text(encoding="utf-8"))))
    found = [
        f"{generator}: {name}"
        for generator in ("_boson_candidates", "_fermion_candidates")
        for name in sorted(set(_references(definitions[generator])) & {"Circuit", "run_circuit"})
    ]
    assert not found, f"candidate generators build or run circuits: {found}"


def test_integers_are_checked_not_truncated():
    # int(2.7) is 2: a count, mode, seed or particle number passed in by a
    # caller goes through states._integer, which rejects non-integral values.
    allowed = {("states.py", "_integer")}
    found = [
        f"{path.name}:{node.lineno} in {function}"
        for path, tree in _parsed_sources()
        for function, node in _function_nodes(tree)
        if function is not None
        and isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "int"
        and len(node.args) == 1
        and isinstance(node.args[0], (ast.Name, ast.Attribute))
        and (path.name, function) not in allowed
    ]
    assert not found, f"int() truncations in the library: {found}"


def _is_dotted_name(node):
    """True for ``x`` or ``x.y.z``; not for an attribute of a computed value,
    such as ``np.vdot(a, a).real``."""
    while isinstance(node, ast.Attribute):
        node = node.value
    return isinstance(node, ast.Name)


def test_numbers_are_checked_not_coerced():
    # complex("1") parses text and float(1j) raises a bare TypeError: a
    # number passed in by a caller goes through states._number (or the array
    # converter states._complex_array), which raise InvalidParameter instead.
    # _floats converts integers the kernel itself made.
    allowed = {("states.py", "_number"), ("states.py", "_floats")}
    found = [
        f"{path.name}:{node.lineno} {node.func.id}() in {function}"
        for path, tree in _parsed_sources()
        for function, node in _function_nodes(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("complex", "float")
        and len(node.args) == 1
        and _is_dotted_name(node.args[0])
        and (path.name, function) not in allowed
    ]
    assert not found, f"unchecked number conversions in the library: {found}"


def test_traced_names_exist():
    # the benchmark's tracer looks up every (module, name) of TARGETS in
    # bench/spans.py with getattr: a deleted or renamed one crashes every
    # traced run.  The list is read from the source, without importing bench.
    tree = ast.parse((ROOT / "bench" / "spans.py").read_text(encoding="utf-8"))
    targets = [
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets)
    ]
    assert len(targets) == 1 and targets[0]
    missing = [
        f"fockopt.{home}.{name}"
        for home, name in targets[0]
        if not callable(getattr(importlib.import_module(f"fockopt.{home}"), name, None))
    ]
    assert not missing, f"traced names missing from the library: {missing}"
