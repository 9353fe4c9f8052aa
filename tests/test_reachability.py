"""Every public top-level function and class of gapflow is reached.

A name counts as reached when the package, a script or the benchmark
harness refers to it outside its own definition: as a name, an attribute
or an import.  Strings do not count, and neither do the tests.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "gapflow"
CALLERS = [PACKAGE, ROOT / "scripts", ROOT / "perfbench"]
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _names(node):
    """The names node refers to as a Name, an Attribute or an import."""
    names = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            names.add(n.id)
        elif isinstance(n, ast.Attribute):
            names.add(n.attr)
        elif isinstance(n, ast.alias):
            names.add(n.name.rsplit(".", 1)[-1])
    return names


def test_every_public_definition_is_referenced():
    statements = [
        (path, stmt, _names(stmt))
        for folder in CALLERS
        for path in sorted(folder.glob("*.py"))
        for stmt in ast.parse(path.read_text(), filename=str(path)).body
    ]
    unreached = [
        f"{path.name}:{stmt.name}"
        for path, stmt, _ in statements
        if path.parent == PACKAGE
        and isinstance(stmt, DEFINITIONS)
        and not stmt.name.startswith("_")
        and not any(stmt.name in names for _, other, names in statements if other is not stmt)
    ]
    assert unreached == []
