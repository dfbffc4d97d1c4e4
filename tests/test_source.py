"""Rules on the library's source text."""

import ast
import sys
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "liaison"


def test_library_has_no_assert_statements():
    # python -O strips assert statements, so an invariant written as one
    # would silently vanish; the library raises real exceptions instead
    paths = sorted(SRC.glob("*.py"))
    assert paths, SRC
    offenders = [
        f"{path.name}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert offenders == []


def test_no_module_imports_a_private_name_from_a_sibling():
    # an underscore name is private to its module: a helper another module
    # needs is made public where it lives
    offenders = [
        f"{path.name}:{node.lineno} {alias.name}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").split(".")[0] == "liaison")
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert offenders == []


def _absolute_imports(tree):
    """(line, module) for every import of the tree that is not relative."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from ((node.lineno, alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module


def test_library_imports_only_the_standard_library():
    # dependencies = []: every import, at module level or inside a function
    # that no CLI run reaches, is relative or names a standard-library module
    offenders = [
        f"{path.name}:{line} {module}"
        for path in sorted(SRC.glob("*.py"))
        for line, module in _absolute_imports(ast.parse(path.read_text(), filename=str(path)))
        if module.partition(".")[0] not in sys.stdlib_module_names
    ]
    assert offenders == []


def _identifiers(tree):
    """Every name the tree uses: bare names, attributes and imported names."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2]


def test_every_library_definition_is_referenced():
    # a function or class that nothing names outside its own body is dead
    # code; the library, its tests, the demos and the benchmark all count as
    # users, and dunder methods are called by the language itself
    root = SRC.parent.parent
    definitions = [
        (path.name, node)
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
    ]
    assert definitions, SRC
    uses = Counter()
    for folder in ("src", "tests", "demos", "perfbench"):
        for path in sorted((root / folder).rglob("*.py")):
            uses.update(_identifiers(ast.parse(path.read_text(), filename=str(path))))
    for _, node in definitions:
        uses[node.name] -= sum(1 for name in _identifiers(node) if name == node.name)
    offenders = [f"{name}:{node.lineno} {node.name}" for name, node in definitions if uses[node.name] <= 0]
    assert offenders == []


def _called_name(func):
    """The name a call expression calls: a bare name or an attribute."""
    if isinstance(func, ast.Name):
        return func.id
    return func.attr if isinstance(func, ast.Attribute) else None


def test_only_local_gorenstein_runs_the_artinian_reduction():
    # one door to a local verdict: the Cohen-Macaulay and Gorenstein
    # questions of every caller read local_gorenstein, which alone calls
    # artinian_reduce
    callers = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        scope = {tree: "<module>"}
        for node in ast.walk(tree):  # breadth first: a parent before its children
            here = node.name if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) else scope[node]
            for child in ast.iter_child_nodes(node):
                scope[child] = here
            if isinstance(node, ast.Call) and _called_name(node.func) == "artinian_reduce":
                callers.append(f"{path.name} {scope[node]}")
    assert callers == ["localrings.py local_gorenstein"]


def test_local_mu_reads_the_ideal_at_its_point():
    # mu at a point is read off the ideal's own basis there: no library code
    # hands local_mu a translate_to_origin(...) call, and localrings keeps
    # no chart of a held basis
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            called = _called_name(node.func)
            if called == "local_mu" and any(
                isinstance(arg, ast.Call) and _called_name(arg.func) == "translate_to_origin"
                for arg in (*node.args, *(k.value for k in node.keywords))
            ):
                offenders.append(f"{path.name}:{node.lineno} local_mu(translate_to_origin(...))")
            if path.name == "localrings.py" and called == "held_groebner":
                offenders.append(f"{path.name}:{node.lineno} held_groebner()")
    assert offenders == []
