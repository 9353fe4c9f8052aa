"""Every public top-level function and class of gapflow is reached, and so
is every public method and property of a public class; every parameter
with a default is set by some call, and some call relies on its default.

A name counts as reached when the package, a script or the benchmark
harness refers to it outside its own definition: a top-level name as a
name, an attribute or an import, a class member as an attribute.  Strings
do not count, and neither do the tests.

A parameter with a default, of a top-level function or a method of a
top-level class, counts as set when a call in the same places passes it,
by keyword or by position, to the function itself (matched by name); for
``__init__``, to its class, to a subclass that inherits ``__init__``, or
through ``super().__init__`` in a subclass; or by keyword to a call that
is handed the function itself as an argument, as a tracer's
``call(name, simulate, ..., law=law)`` is.  The fields of a NamedTuple
record are the parameters of its class, and a field with a value has a
default.  A record that checks its fields is a subclass of a NamedTuple
whose ``__new__`` takes exactly those fields: the fields are then the
parameters of the subclass, and its ``__new__`` adds no signature of its
own.  A ``**mapping`` sets every parameter.

The mirror rule: a call relies on each default it passes neither by
position nor by keyword (a handed call, each it does not pass by
keyword), and a ``**mapping`` on every one.  A default that every call
passes restates a value its callers state, and goes; the run defaults
live in ``cli.RunConfig``.
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


def _passed(call, params, skip, by_position=True):
    """(the names among params that call passes, its positional arguments
    filling params from index skip and a starred one filling the rest;
    whether it passes a **mapping)."""
    names = set()
    if by_position:
        for i, arg in enumerate(call.args):
            if isinstance(arg, ast.Starred):
                names.update(params[skip + i :])
                break
            if skip + i < len(params):
                names.add(params[skip + i])
    names.update(k.arg for k in call.keywords if k.arg is not None)
    return names, any(k.arg is None for k in call.keywords)


def _defaulted(fn):
    """(positional parameters, names of the parameters with a default)."""
    args = fn.args
    positional = [a.arg for a in args.posonlyargs + args.args]
    named = positional[len(positional) - len(args.defaults) :]
    named += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return positional, named


def _bases(cls):
    return {b.id for b in cls.bases if isinstance(b, ast.Name)}


def _is_namedtuple(cls):
    return any(_names(b) == {"NamedTuple"} for b in cls.bases)


def _record(cls, tree):
    """The NamedTuple class of tree whose fields cls takes: cls itself when
    no class of tree subclasses it, else the NamedTuple base cls checks;
    None for a class that is no record."""
    classes = [c for c in tree.body if isinstance(c, ast.ClassDef)]
    if _is_namedtuple(cls):
        subclassed = any(cls.name in _bases(c) for c in classes)
        return None if subclassed else cls
    return next((c for c in classes if c.name in _bases(cls) and _is_namedtuple(c)), None)


def _fields(cls):
    """(fields, names of the fields with a default) of a NamedTuple class:
    a field has a default when it has a value."""
    fields, named = [], []
    for stmt in cls.body:
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            fields.append(stmt.target.id)
            if stmt.value is not None:
                named.append(stmt.target.id)
    return fields, named


# every record class of the package: the field gate below must see each
RECORDS = {
    "RunConfig",
    "EnergyBreakdown", "SurfaceDrag", "DragRow", "DragCurve",
    "TerminalEvent", "Trajectory", "DragLaw", "ScanRow",
    "FieldSample", "PressureSample", "ApertureFrame", "NavierResiduals",
    "GapGeometry", "CutoffPair", "RadialFactors",
    "SlipRegime", "FallParameters", "QuadratureSpec",
    "Solution",
    "ProfileCoefficients",
    "IntegralResult", "ModelFit", "SingularIntegralCase",
}


def _records():
    """(class, its NamedTuple record) for each record class of the package."""
    return [
        (cls, record)
        for path, tree in _modules() if path.parent == PACKAGE
        for cls in tree.body if isinstance(cls, ast.ClassDef)
        for record in [_record(cls, tree)] if record is not None
    ]


def test_the_field_gate_sees_every_record():
    records = _records()
    names = [cls.name for cls, _ in records]
    assert len(names) == len(set(names))
    assert set(names) == RECORDS
    assert all(_fields(record)[0] for _, record in records)


def test_a_checking_record_takes_exactly_its_fields():
    """A record's subclass checks the fields in a __new__ whose parameters
    and defaults are the NamedTuple's, so the gate reads its constructor."""
    checking = [(cls, record) for cls, record in _records() if cls is not record]
    assert {cls.name for cls, _ in checking} == {
        "SlipRegime", "FallParameters", "QuadratureSpec", "GapGeometry", "Trajectory", "DragCurve",
    }
    for cls, record in checking:
        (new,) = [fn for fn in cls.body if isinstance(fn, FUNCTIONS) and fn.name == "__new__"]
        params, named = _defaulted(new)
        assert (params, named) == (["cls", *_fields(record)[0]], _fields(record)[1]), cls.name


def test_no_record_is_built_past_its_checks():
    """_replace and _make build a record without calling __new__."""
    calls = [
        f"{path.name}:{n.lineno}"
        for path, tree in _modules() for n in ast.walk(tree)
        if isinstance(n, ast.Attribute) and n.attr in ("_replace", "_make")
    ]
    assert calls == []


def _callees(fn, cls, classes):
    """The names whose calls pass fn its arguments, and the classes whose
    super().__init__ does: for __init__, its class and the subclasses
    that inherit it, and every subclass."""
    if fn.name != "__init__":
        return {fn.name}, set()
    subclasses = [c for c in classes if cls.name in _bases(c)]
    inheriting = {
        c.name for c in subclasses
        if not any(isinstance(m, FUNCTIONS) and m.name == "__init__" for m in c.body)
    }
    return {cls.name} | inheriting, {c.name for c in subclasses}


def _signatures(tree, classes):
    """(label, parameters, names with a default, skip, callees, subclasses,
    handed) for each top-level function of tree, each method of its
    top-level classes but a record's __new__, and the fields of its
    records.  skip counts the parameters no positional argument fills
    (self); handed is the name a call may be handed the function by, None
    for a class."""
    for node in tree.body:
        if isinstance(node, FUNCTIONS):
            yield node.name, *_defaulted(node), 0, {node.name}, set(), node.name
        elif isinstance(node, ast.ClassDef):
            record = _record(node, tree)
            if record is not None:
                yield node.name, *_fields(record), 0, {node.name}, set(), None
            for fn in node.body:
                if isinstance(fn, FUNCTIONS) and not (record and fn.name == "__new__"):
                    static = any(_names(d) == {"staticmethod"} for d in fn.decorator_list)
                    yield (
                        f"{node.name}.{fn.name}", *_defaulted(fn), 0 if static else 1,
                        *_callees(fn, node, classes),
                        None if fn.name == "__init__" else fn.name,
                    )


def _handed(call, name):
    """Whether call is handed the function name itself as an argument, as
    a tracer's call(name, simulate, ...) is."""
    return any(
        isinstance(arg, ast.Name) and arg.id == name
        or isinstance(arg, ast.Attribute) and arg.attr == name
        for arg in call.args
    )


def _defaults_and_calls():
    """(file:label, names with a default, passings) for each signature of
    the package with a default, a passing being (names passed, **mapping)
    for each call in the package, scripts/ or perfbench/ that reaches it:
    by name, through super().__init__ in a subclass, or handed the
    function, which passes only its keywords."""
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
    for path, tree in modules:
        if path.parent != PACKAGE:
            continue
        for label, params, named, skip, callees, subclasses, handed in _signatures(
            tree, classes
        ):
            if not named:
                continue
            passings = []
            for call, holder in calls:
                if holder is not None:
                    if holder in subclasses:
                        passings.append(_passed(call, params, skip))
                elif _callee(call) in callees:
                    passings.append(_passed(call, params, skip))
                elif handed and _handed(call, handed):
                    passings.append(_passed(call, params, skip, by_position=False))
            yield f"{path.name}:{label}", named, passings


def _unreached(reached):
    """file:label(names) for each signature whose defaults named no call
    reaches, reached(named, passed, mapping) being the defaults one call
    reaches."""
    out = []
    for label, named, passings in _defaults_and_calls():
        hit = set().union(*(reached(set(named), *passing) for passing in passings))
        missing = [name for name in named if name not in hit]
        if missing:
            out.append(f"{label}({', '.join(missing)})")
    return out


def test_every_parameter_with_a_default_is_set_by_a_call():
    assert _unreached(lambda named, passed, mapping: named if mapping else passed) == []


def test_every_default_is_relied_on_by_a_call():
    assert _unreached(lambda named, passed, mapping: named if mapping else named - passed) == []
