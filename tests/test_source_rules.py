"""Rules on the package source that the other tests cannot see.

No certification may disappear under ``python -O``, which strips every
``assert`` statement: checks in the package raise typed errors instead.  The
one assert left is the arithmetic sanity check in ``witt_dimension`` (the
Moebius sum is divisible by k), allowed here by name.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "lagtrace"
ALLOWED = {("tensorlie.py", "witt_dimension")}


def _asserts(tree: ast.AST):
    """(enclosing function name or None, line) of every assert statement."""
    found = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.Assert):
            found.append((func, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    return found


def test_no_assert_statements_in_the_package():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources, f"no sources under {PACKAGE}"
    offending = []
    allowed_seen = set()
    for path in sources:
        for func, line in _asserts(ast.parse(path.read_text(), filename=str(path))):
            if (path.name, func) in ALLOWED:
                allowed_seen.add((path.name, func))
            else:
                offending.append(f"{path.name}:{line} (in {func})")
    assert not offending, "assert statements vanish under python -O: " + ", ".join(offending)
    assert allowed_seen == ALLOWED, "the allow-list names an assert that no longer exists"


def test_the_scan_finds_asserts():
    tree = ast.parse("def f(x):\n    assert x\n\nassert True\n")
    assert _asserts(tree) == [("f", 2), (None, 4)]
