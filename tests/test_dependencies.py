"""What the package depends on, and what depends on the package's public names.

numpy is the only runtime dependency: the package imports nothing else from
outside itself. The tests import only what pyproject.toml declares, as a
dependency or in the test extra. The benchmark harness under perfbench/
reads names off gakit and gakit.cli, and attributes off the engine state
its hooks see, so a cut to the public surface must keep those. Only
draws.py touches numpy's bit generators, so a numpy release that changes
their algorithms can break only that module. Only
errors.py re-raises a caught error with context added to its message
(errors.context), so where an error came from is decided in one place.
"""

import ast
import re
import sys
from pathlib import Path

import pytest

import gakit
from gakit import cli

ROOT = Path(__file__).parent.parent
SOURCES = sorted((ROOT / "src" / "gakit").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))
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


# The names through which code reaches numpy's seeding or a generator's raw words.
BIT_GENERATOR_NAMES = {"PCG64", "SeedSequence", "random_raw", "advance", "bit_generator"}


def _identifiers(path: Path):
    """Every name, attribute and imported name that path's code spells out."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield from node.name.split(".")


def test_only_draws_touches_numpy_bit_generators():
    assert "draws.py" in {path.name for path in SOURCES}
    touching = {
        (path.name, name) for path in SOURCES if path.name != "draws.py"
        for name in _identifiers(path) if name in BIT_GENERATOR_NAMES
    }
    assert not touching


def _prefixed_reraises(tree: ast.AST):
    """The line of every raise that rebuilds an error it caught with a message formatting it.

    In an `except E as err` handler: a raise of type(err)(...) or of E(...)
    given an f-string that formats err, as in raise type(err)(f"init {err}").
    """
    for handler in ast.walk(tree):
        if not isinstance(handler, ast.ExceptHandler) or handler.name is None:
            continue
        caught = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
        own = {ast.unparse(node) for node in caught} | {f"type({handler.name})"}
        for node in ast.walk(handler):
            if (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
                    and ast.unparse(node.exc.func) in own
                    and any(isinstance(part, ast.FormattedValue)
                            and isinstance(part.value, ast.Name) and part.value.id == handler.name
                            for arg in node.exc.args if isinstance(arg, ast.JoinedStr)
                            for part in arg.values)):
                yield node.lineno


@pytest.mark.parametrize("source", [
    "try:\n    f()\nexcept (A, B) as err:\n    raise type(err)(f'init {err}') from None\n",
    "try:\n    f()\nexcept A as err:\n    raise A(f'row {i}, {err}') from None\n",
])
def test_prefixed_reraise_guard_sees_the_pattern(source):
    assert list(_prefixed_reraises(ast.parse(source))) == [4]


def test_only_errors_adds_context_to_a_caught_error():
    assert "errors.py" in {path.name for path in SOURCES}
    prefixed = {
        (path.name, line) for path in SOURCES if path.name != "errors.py"
        for line in _prefixed_reraises(ast.parse(path.read_text(), filename=str(path)))
    }
    assert not prefixed


def _declared(requirements) -> set:
    """The names of the distributions in PEP 508 requirement strings."""
    return {re.match(r"[A-Za-z0-9._-]+", req).group().lower() for req in requirements}


def test_tests_import_only_declared_distributions():
    tomllib = pytest.importorskip("tomllib")  # in the standard library from Python 3.11
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = _declared(project["dependencies"])
    declared |= _declared(project["optional-dependencies"]["test"])
    # Every distribution imported here installs a module of its own name.
    local = {path.stem for path in TESTS} | {"gakit"}
    imported = {name for path in TESTS for name in _imported_modules(path)}
    assert {"pytest", "hypothesis", "numpy"} <= imported
    assert not imported - set(sys.stdlib_module_names) - local - declared


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


def _state_reads(path: Path):
    """Every state.<a>[.<b>...] attribute chain read in path, as a tuple of names."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        chain = []
        while isinstance(node, ast.Attribute):
            chain.insert(0, node.attr)
            node = node.value
        if chain and isinstance(node, ast.Name) and node.id == "state":
            yield tuple(chain)


def _resolves(obj, chain) -> bool:
    for name in chain:
        if not hasattr(obj, name):
            return False
        obj = getattr(obj, name)
    return True


def test_every_state_attribute_the_benchmark_reads_resolves():
    # The benchmark's hooks read these off the engine state; a run hands its
    # on_generation hook the state every other hook sees.
    reads = {chain for path in BENCHMARK for chain in _state_reads(path)}
    assert {("population",), ("last_record", "offspring_mutation"),
            ("last_generation_offspring_crossover",),
            ("last_generation_offspring_mutation",)} <= reads
    states = []
    cfg = gakit.validate(gakit.GaConfig(num_generations=1, sol_per_pop=4, num_parents_mating=2,
                                        num_genes=3))
    gakit.run(cfg, lambda solution, idx: 1.0, gakit.LifecycleHooks(on_generation=states.append))
    (state,) = states
    assert not {chain for chain in reads if not _resolves(state, chain)}
