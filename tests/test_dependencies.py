"""What the package depends on, and what depends on the package's public names.

numpy is the only runtime dependency: the package imports nothing else from
outside itself. The benchmark harness under perfbench/ reads names off
gakit and gakit.cli, so a cut to the public surface must keep those.
"""

import ast
import sys
from pathlib import Path

import gakit
from gakit import cli

ROOT = Path(__file__).parent.parent
SOURCES = sorted((ROOT / "src" / "gakit").glob("*.py"))
BENCHMARK = sorted((ROOT / "perfbench").glob("*.py"))
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


def _module_reads(path: Path):
    """(module, attribute) for every gakit.<name> and cli.<name> read in path."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in ("gakit", "cli")):
            yield node.value.id, node.attr


def test_every_name_the_benchmark_reads_resolves():
    modules = {"gakit": gakit, "cli": cli}
    reads = {read for path in BENCHMARK for read in _module_reads(path)}
    assert ("gakit", "run") in reads and ("cli", "build_solve_config") in reads
    assert not {(module, name) for module, name in reads if not hasattr(modules[module], name)}
