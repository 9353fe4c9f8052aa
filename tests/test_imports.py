"""What the package imports, and where its version lives.

gapflow runs on numpy alone: no file of the package imports scipy.  scipy
stays a test dependency, an oracle for the float steppers and the
quadrature; an import of it in src/gapflow, even a lazy one inside a
function, fails here.  Nor does any file import importlib.metadata, which
pulls email, socket and calendar into every CLI start: the version is
gapflow.__version__, kept equal to pyproject.toml's.
"""

import ast
from pathlib import Path

import pytest

import gapflow

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "gapflow"


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


def test_no_file_of_the_package_imports_importlib_metadata():
    assert _importers("importlib.metadata") == []


def test_pyproject_version_is_the_package_version():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as f:
        assert tomllib.load(f)["project"]["version"] == gapflow.__version__
