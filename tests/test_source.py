"""Source rules the package keeps.

Every re-check of a published result must still run under `python -O`,
which strips `assert` statements, so the package raises a structured error
instead of asserting.  Code that nothing calls is deleted, so every private
function or class of the package is named somewhere in it, and every public
one is named in it, exported in `__all__` or wrapped by a `TARGETS` entry of
the benchmark's tracer (`perfbench/tracer.py`).  The storage of
`linalg.Echelon` rows is known to `linalg` alone: other modules read rows
through `pivots`, `row(p)`, `integer_row(p)`, `len` and `in`.  The dense
wrappers `rref`, `rank`, `solve_linear`, `nullspace` and `rational_roots`,
and the characteristic polynomial `charpoly` with the dense polynomial
helpers `pol_trim`, `pol_eval` and `pol_divmod`, are defined in `linalg`
for the tests and the tracer, and the package neither calls nor imports
any of them.
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


def _named_and_defined():
    """(names the package reads, names of the functions and classes it defines)."""
    named = set()
    defined = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.name)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    defined.add(node.name)
    return named, defined


def _assigned_strings(path, target):
    """The string constants in the value of the module-level assignment to target."""
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == target for t in node.targets):
            return [c.value for c in ast.walk(node.value)
                    if isinstance(c, ast.Constant) and isinstance(c.value, str)]
    return []


def test_every_private_definition_is_named():
    # delete code that nothing calls: a private function or class must be
    # named somewhere in the package, not only defined
    named, defined = _named_and_defined()
    private = {name for name in defined if name.startswith("_")}
    assert private and sorted(private - named) == []


def test_every_public_definition_is_named_exported_or_traced():
    # a public function or class is named in the package, exported, or a
    # "module" / "attribute" / "Class.method" target the tracer wraps
    named, defined = _named_and_defined()
    exported = set(_assigned_strings(PACKAGE / "__init__.py", "__all__"))
    tracer = PACKAGE.parent.parent / "perfbench" / "tracer.py"
    traced = {part for entry in _assigned_strings(tracer, "TARGETS")
              for part in entry.split(".")}
    public = {name for name in defined if not name.startswith("_")}
    assert exported and traced and public
    assert sorted(public - named - exported - traced) == []


def test_only_linalg_reads_echelon_rows():
    found = [
        "%s:%d" % (path.name, node.lineno)
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "linalg.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and node.attr in ("rows", "_rows")
    ]
    assert (PACKAGE / "linalg.py").exists() and found == []


def test_package_calls_no_dense_wrapper():
    # a wrapper or polynomial helper is neither called nor imported anywhere
    # in the package outside the bodies of those helpers themselves
    wrappers = {"rref", "rank", "solve_linear", "nullspace", "rational_roots",
                "charpoly", "pol_trim", "pol_eval", "pol_divmod"}
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        body = [stmt for stmt in ast.parse(path.read_text(encoding="utf-8")).body
                if getattr(stmt, "name", None) not in wrappers]
        for node in (node for stmt in body for node in ast.walk(stmt)):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
            elif isinstance(node, ast.alias):
                name = node.name
            else:
                continue
            if name in wrappers:
                found.append("%s:%d" % (path.name, node.lineno))
    _, defined = _named_and_defined()
    assert wrappers <= defined and found == []
