"""What the package imports, and where its version lives.

gapflow runs on numpy alone: no file of the package imports scipy.  scipy
stays a test dependency, an oracle for the float steppers and the
quadrature; an import of it in src/gapflow, even a lazy one inside a
function, fails here.  The same holds for sympy and mpmath, the tests'
symbolic and arbitrary-precision oracles: each would add to the import
time of every CLI start.  Nor does any file import importlib.metadata, which
pulls email, socket and calendar into every CLI start: the version is
gapflow.__version__, kept equal to pyproject.toml's.

Each command loads only the layers it runs.  gapflow.model holds the
types, errors and defaults that the CLI needs before it dispatches, and
imports the standard library alone; every layer imports those names from
it.  `import gapflow.cli` loads gapflow.model and nothing else of the
package, and no numpy; each command imports its own layers when it runs.
The fall (gapflow.dynamics) loads the model and the float steppers of
gapflow.ode, and never numpy; neither file, nor the rescale code that ode
builds at import, calls sum() or math.fsum, whose rounding differs from
the left-to-right sums the steppers port.  `verify all` loads no drag, ode or
dynamics, and `drag scan` no ode or dynamics.

No file of the package refers to numpy.random, by import or as np.random:
the random checks draw from gapflow.pcg64, which makes PCG64's words in
numpy's array arithmetic.  numpy.random loads numpy's random extension
modules and, through secrets, hmac and hashlib, which `profile check`,
`field verify` and `verify all` load none of.  It stays in the tests as
the oracle of those words.

The package's records are NamedTuples, and no file imports dataclasses:
a frozen dataclass execs its generated methods when its class is built,
and the module pulls in inspect; together they cost a cold start 15 to
20 ms.  The CLI and the fall load neither.  A run without --stamp does
not load datetime either: only a stamped report reads the clock.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gapflow
from gapflow import ode

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "gapflow"
FALL_MODULES = ["gapflow", "gapflow.dynamics", "gapflow.model", "gapflow.ode"]
CLI_MODULES = ["gapflow", "gapflow.cli", "gapflow.model"]


def _imported(tree):
    """Dotted names of the modules imported anywhere in tree, `from m
    import x` giving both m and m.x; relative imports are skipped."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module
            yield from (f"{node.module}.{alias.name}" for alias in node.names)


def _importers(module):
    """Files of the package that import module or a submodule of it."""
    return [
        path.name
        for path in sorted(PACKAGE.glob("*.py"))
        if any(
            name == module or name.startswith(module + ".")
            for name in _imported(ast.parse(path.read_text(), filename=str(path)))
        )
    ]


def test_no_file_of_the_package_imports_scipy():
    assert _importers("scipy") == []


@pytest.mark.parametrize("module", ["sympy", "mpmath"])
def test_no_file_of_the_package_imports_a_symbolic_oracle(module):
    assert _importers(module) == []


def _numpy_random_references(tree):
    """Lines that import numpy.random or read an attribute random of a
    name numpy or np."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if any(name == "numpy.random" or name.startswith("numpy.random.")
                   for name in _imported(node)):
                yield node.lineno
        elif (isinstance(node, ast.Attribute) and node.attr == "random"
              and isinstance(node.value, ast.Name) and node.value.id in ("numpy", "np")):
            yield node.lineno


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_file_of_the_package_refers_to_numpy_random(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert list(_numpy_random_references(tree)) == []


def test_the_numpy_random_rule_sees_each_form():
    for source in ["import numpy.random", "from numpy.random import PCG64",
                   "from numpy import random", "np.random.default_rng(1)",
                   "numpy.random.PCG64(1).random_raw(2)"]:
        assert list(_numpy_random_references(ast.parse(source))) == [1], source


def test_no_file_of_the_package_imports_importlib_metadata():
    assert _importers("importlib.metadata") == []


def test_no_file_of_the_package_imports_dataclasses():
    assert _importers("dataclasses") == []


def test_pyproject_version_is_the_package_version():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as f:
        assert tomllib.load(f)["project"]["version"] == gapflow.__version__


def _float_sums(tree):
    """Lines that call the builtin sum or math.fsum, by name or attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            if (isinstance(func, ast.Name) and func.id in ("sum", "fsum")
                    or isinstance(func, ast.Attribute) and func.attr == "fsum"):
                yield node.lineno


def _numpy_imports(tree):
    """Lines that import numpy, except in Trajectory.t and Trajectory.h,
    the array views of a finished fall."""
    views = {
        id(node)
        for cls in tree.body if isinstance(cls, ast.ClassDef) and cls.name == "Trajectory"
        for fn in cls.body if isinstance(fn, ast.FunctionDef) and fn.name in ("t", "h")
        for node in ast.walk(fn)
    }
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and id(node) not in views:
            if any(name.split(".")[0] == "numpy" for name in _imported(node)):
                yield node.lineno


def _fall_source(name):
    """A fall file's text, or for "rescale" the straight-line code that
    ode builds at import, every order's function in one text."""
    if name == "rescale":
        return "".join(map(ode._rescale_source, range(1, ode.MAX_ORDER + 1)))
    return (PACKAGE / name).read_text()


@pytest.mark.parametrize("name", ["ode.py", "dynamics.py", "rescale"])
def test_the_fall_sums_floats_left_to_right_without_numpy(name):
    tree = ast.parse(_fall_source(name), filename=name)
    assert list(_float_sums(tree)) == [], (
        f"{name} calls sum() or math.fsum: the steppers reproduce scipy's "
        "left-to-right float sums bit for bit, but math.fsum rounds the "
        "exact sum once and sum() of floats is compensated from Python 3.12; "
        "ode._sum is the left-to-right sum"
    )
    assert list(_numpy_imports(tree)) == [], f"{name} imports numpy into the fall"


def _loaded(statements):
    """The gapflow modules and the names of all modules loaded after
    statements ran in a fresh interpreter."""
    script = statements + (
        "\nimport sys\n"
        "print(' '.join(sorted(m for m in sys.modules if m.split('.')[0] == 'gapflow')))\n"
        "print(' '.join(sorted(sys.modules)))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    ours, modules = proc.stdout.splitlines()
    return ours.split(), set(modules.split())


def test_the_fall_loads_only_its_own_layers():
    ours, modules = _loaded("import gapflow.dynamics")
    assert ours == FALL_MODULES
    assert "numpy" not in modules


def test_the_cli_loads_only_the_model_before_it_dispatches():
    ours, modules = _loaded("import gapflow.cli")
    assert ours == CLI_MODULES
    assert "numpy" not in modules


def test_the_cli_and_the_fall_build_their_records_without_dataclasses():
    _, modules = _loaded("import gapflow.cli, gapflow.dynamics")
    assert "dataclasses" not in modules
    assert "inspect" not in modules


def test_a_run_without_stamp_does_not_load_datetime(tmp_path):
    _, modules = _loaded(
        "from gapflow.cli import run\n"
        f"assert run(['fall', 'scan', '--t-max', '1', '--out', {str(tmp_path)!r}]) == 0"
    )
    assert "numpy" not in modules
    assert "datetime" not in modules


@pytest.mark.parametrize(
    "argv, absent",
    [
        (["verify", "all", "--draws", "200"], ["gapflow.drag", "gapflow.ode", "gapflow.dynamics"]),
        (["drag", "scan", "--h-list", "1e-2"], ["gapflow.ode", "gapflow.dynamics"]),
    ],
    ids=["verify-all", "drag-scan"],
)
def test_a_command_loads_no_layer_it_does_not_run(argv, absent, tmp_path):
    ours, _ = _loaded(
        f"from gapflow.cli import run\nassert run({argv + ['--out', str(tmp_path)]!r}) == 0"
    )
    assert "gapflow.model" in ours
    assert [m for m in absent if m in ours] == []


@pytest.mark.parametrize(
    "argv",
    [["profile", "check"], ["field", "verify"], ["verify", "all"]],
    ids=["profile-check", "field-verify", "verify-all"],
)
def test_the_random_checks_load_no_numpy_random_and_no_hashlib(argv, tmp_path):
    _, modules = _loaded(
        f"from gapflow.cli import run\nassert run({argv + ['--out', str(tmp_path)]!r}) == 0"
    )
    assert "gapflow.pcg64" in modules
    assert [m for m in ["numpy.random", "secrets", "hmac", "hashlib"] if m in modules] == []
