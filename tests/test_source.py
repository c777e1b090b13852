"""Source rules the package keeps.

Every re-check of a published result must still run under `python -O`,
which strips `assert` statements, so the package raises a structured error
instead of asserting.
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
