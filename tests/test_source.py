"""Source rules the package keeps.

Every re-check of a published result must still run under `python -O`,
which strips `assert` statements, so the package raises a structured error
instead of asserting.  Code that nothing calls is deleted, so every private
function or class of the package is named somewhere in it.  The storage of
`linalg.Echelon` rows is known to `linalg` alone: other modules read rows
through `pivots`, `row(p)`, `len` and `in`.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "newton_spectra"


def test_package_has_no_assert_statements():
    found = [
        "%s:%d" % (path.name, node.lineno)
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert sorted(PACKAGE.glob("*.py")) and found == []


def test_every_private_definition_is_named():
    # delete code that nothing calls: a private function or class must be
    # named somewhere in the package, not only defined
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))]
    named = set()
    defined = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.name)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if node.name.startswith("_") and not node.name.endswith("__"):
                    defined.add(node.name)
    assert defined and sorted(defined - named) == []


def test_only_linalg_reads_echelon_rows():
    found = [
        "%s:%d" % (path.name, node.lineno)
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "linalg.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and node.attr in ("rows", "_rows")
    ]
    assert (PACKAGE / "linalg.py").exists() and found == []
