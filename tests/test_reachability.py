"""Every public top-level function and class of gapflow is reached, and so
is every public method and property of a public class.

A name counts as reached when the package, a script or the benchmark
harness refers to it outside its own definition: a top-level name as a
name, an attribute or an import, a class member as an attribute.  Strings
do not count, and neither do the tests.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "gapflow"
CALLERS = [PACKAGE, ROOT / "scripts", ROOT / "perfbench"]
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _modules():
    return [
        (path, ast.parse(path.read_text(), filename=str(path)))
        for folder in CALLERS
        for path in sorted(folder.glob("*.py"))
    ]


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


def _attributes(node):
    """How often node refers to each name as an attribute."""
    return Counter(n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute))


def test_every_public_definition_is_referenced():
    statements = [
        (path, stmt, _names(stmt)) for path, tree in _modules() for stmt in tree.body
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


def test_every_public_member_of_a_public_class_is_referenced():
    modules = _modules()
    used = sum((_attributes(tree) for _, tree in modules), Counter())
    unreached = [
        f"{path.name}:{cls.name}.{member.name}"
        for path, tree in modules
        if path.parent == PACKAGE
        for cls in tree.body
        if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_")
        for member in cls.body
        if isinstance(member, FUNCTIONS)
        and not member.name.startswith("_")
        and used[member.name] == _attributes(member)[member.name]
    ]
    assert unreached == []
