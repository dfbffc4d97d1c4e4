"""Rules on the library's source text."""

import ast
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
