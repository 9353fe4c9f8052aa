"""gapflow runs on numpy alone: no file of the package imports scipy.

scipy stays a test dependency, an oracle for the float steppers and the
quadrature; an import of it in src/gapflow, even a lazy one inside a
function, fails here.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "gapflow"


def _imported(tree):
    """Top-level package names imported anywhere in tree; relative imports
    name their own package."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_no_file_of_the_package_imports_scipy():
    offenders = [
        path.name
        for path in sorted(PACKAGE.glob("*.py"))
        if "scipy" in set(_imported(ast.parse(path.read_text(), filename=str(path))))
    ]
    assert offenders == []
