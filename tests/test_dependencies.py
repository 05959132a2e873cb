"""numpy is the only runtime dependency: the package imports nothing else from outside itself."""

import ast
import sys
from pathlib import Path

SOURCES = sorted((Path(__file__).parent.parent / "src" / "gakit").glob("*.py"))
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "gakit"}


def _imported_modules(path: Path):
    """The top-level name of every module path imports, relative imports as gakit."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield "gakit" if node.level else node.module.split(".")[0]


def test_package_imports_only_stdlib_numpy_and_itself():
    assert SOURCES
    outside = {
        (path.name, name) for path in SOURCES for name in _imported_modules(path)
        if name not in ALLOWED
    }
    assert not outside
