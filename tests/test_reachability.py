"""Every public top-level function and class of gapflow is reached, and so
is every public method and property of a public class; every parameter
with a default is set by some call.

A name counts as reached when the package, a script or the benchmark
harness refers to it outside its own definition: a top-level name as a
name, an attribute or an import, a class member as an attribute.  Strings
do not count, and neither do the tests.

A parameter with a default, of a top-level function or a method of a
top-level class, counts as set when a call in the same places passes it,
by keyword or by position, to the function itself (matched by name); for
``__init__``, to its class, to a subclass that inherits ``__init__``, or
through ``super().__init__`` in a subclass; or by keyword to a call that
is handed the function as an argument, as a tracer's
``call(name, simulate, ..., law=law)`` is.
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


def _callee(call):
    """The name a call invokes: f(...) and x.f(...) give "f"."""
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _is_super_init(call):
    func = call.func
    return (
        isinstance(func, ast.Attribute)
        and func.attr == "__init__"
        and isinstance(func.value, ast.Call)
        and _callee(func.value) == "super"
    )


def _set_by(call, params, skip, by_position=True):
    """The names among params that call sets, its positional arguments
    filling params from index skip (a starred one fills the rest)."""
    names = set()
    if by_position:
        for i, arg in enumerate(call.args):
            if isinstance(arg, ast.Starred):
                names.update(params[skip + i :])
                break
            if skip + i < len(params):
                names.add(params[skip + i])
    for keyword in call.keywords:
        names.update(params if keyword.arg is None else [keyword.arg])
    return names


def _defaulted(fn):
    """(positional parameters, names of the parameters with a default)."""
    args = fn.args
    positional = [a.arg for a in args.posonlyargs + args.args]
    named = positional[len(positional) - len(args.defaults) :]
    named += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return positional, named


def _owned_functions(tree):
    """(class or None, function) for each top-level function of tree and
    each method of its top-level classes."""
    for node in tree.body:
        if isinstance(node, FUNCTIONS):
            yield None, node
        elif isinstance(node, ast.ClassDef):
            yield from ((node, fn) for fn in node.body if isinstance(fn, FUNCTIONS))


def _callees(fn, cls, classes):
    """The names whose calls pass fn its arguments, and the classes whose
    super().__init__ does: for __init__, its class and the subclasses
    that inherit it, and every subclass."""
    if fn.name != "__init__":
        return {fn.name}, set()
    subclasses = [
        c for c in classes if cls.name in {b.id for b in c.bases if isinstance(b, ast.Name)}
    ]
    inheriting = {
        c.name for c in subclasses
        if not any(isinstance(m, FUNCTIONS) and m.name == "__init__" for m in c.body)
    }
    return {cls.name} | inheriting, {c.name for c in subclasses}


def test_every_parameter_with_a_default_is_set_by_a_call():
    modules = _modules()
    classes = [c for _, tree in modules for c in tree.body if isinstance(c, ast.ClassDef)]
    # each call, with the class whose body holds it when it is super().__init__
    calls = [
        (n, None) for _, tree in modules for n in ast.walk(tree)
        if isinstance(n, ast.Call) and not _is_super_init(n)
    ]
    calls += [
        (n, c.name) for c in classes for n in ast.walk(c)
        if isinstance(n, ast.Call) and _is_super_init(n)
    ]
    unset = []
    for path, tree in modules:
        if path.parent != PACKAGE:
            continue
        for cls, fn in _owned_functions(tree):
            positional, named = _defaulted(fn)
            if not named:
                continue
            static = any(_names(d) == {"staticmethod"} for d in fn.decorator_list)
            skip = 0 if cls is None or static else 1
            callees, subclasses = _callees(fn, cls, classes)
            set_ = set()
            for call, holder in calls:
                if holder is not None:
                    if holder in subclasses:
                        set_ |= _set_by(call, positional, skip)
                elif _callee(call) in callees:
                    set_ |= _set_by(call, positional, skip)
                elif any(fn.name in _names(arg) for arg in call.args):
                    set_ |= _set_by(call, positional, skip, by_position=False)
            missing = [name for name in named if name not in set_]
            if missing:
                owner = f"{cls.name}.{fn.name}" if cls else fn.name
                unset.append(f"{path.name}:{owner}({', '.join(missing)})")
    assert unset == []
