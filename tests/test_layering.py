"""The closed forms and the graphs they read import neither numpy nor the numeric
oracle they are checked against, the tests' transcription of the paper's forms
takes nothing from the package, no library module
imports scipy, the oracle imports only numpy and ``.graphs`` and reads lifts,
never a ``Graph``, only ``FlowerSpec`` knows the petal block size and builds the
lift from it, only ``gen`` lists a flower's edges, only the one-pair paths
evaluate the flower pair formula, only ``cli._flowers`` reads the family options,
``cli.build_parser`` alone builds argparse parsers and builds them once per
process, every other memo is an ``lru_cache`` with an integer bound, only
``graphs.integer`` calls ``operator.index``, the package
exports what it imports and uses every private name it defines, graphs and flower
specs compute their derived attributes at construction, and no source line is
longer than 99 characters."""

from __future__ import annotations

import ast
import importlib
import re
import subprocess
import sys
from pathlib import Path

import pytest

import flowergraphs

PACKAGE = Path(flowergraphs.__file__).parent
# The closed forms, the graphs they read, and the separator rules and paper forms the
# tests hold as their exact references.
CLOSED_FORM_SOURCES = {
    name: PACKAGE / f"{name}.py" for name in ("flower", "complete", "cycle", "exact", "graphs")
}
for name in ("separation", "paper_forms"):
    CLOSED_FORM_SOURCES[name] = Path(__file__).parent / f"{name}.py"
NUMERIC_MODULES = {"oracle", "numpy", "scipy"}
LIBRARY_MODULES = sorted(path.stem for path in PACKAGE.glob("*.py"))
MAX_LINE_LENGTH = 99
# The parsed single-flower and range options that choose a command's flowers.
FAMILY_OPTIONS = {"m", "n", "p", "m_range", "n_range", "p_range", "base", "x", "y"}


def imported_modules(source: str):
    """Dotted names of every module and name an import statement in ``source`` binds."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            prefix = f"{node.module}." if node.module else ""
            yield from (prefix + alias.name for alias in node.names)


@pytest.mark.parametrize("module", CLOSED_FORM_SOURCES)
def test_closed_form_module_imports_no_numeric_code(module):
    source = CLOSED_FORM_SOURCES[module].read_text()
    for name in imported_modules(source):
        assert not NUMERIC_MODULES & set(name.split(".")), f"{module} imports {name}"


def test_the_paper_forms_import_nothing_from_the_package():
    """``paper_forms`` imports the standard library only: it reads nothing of the
    library, so ``test_paper_forms`` compares two independent derivations."""
    source = CLOSED_FORM_SOURCES["paper_forms"].read_text()
    outside = {name for name in imported_modules(source)
               if name.split(".")[0] not in sys.stdlib_module_names}
    assert outside == set()


@pytest.mark.parametrize("module", LIBRARY_MODULES)
def test_no_library_module_imports_scipy(module):
    source = (PACKAGE / f"{module}.py").read_text()
    for name in imported_modules(source):
        assert name.split(".")[0] != "scipy", f"{module} imports {name}"


def test_all_lists_exactly_the_names_init_imports():
    imported = {}
    for node in ast.parse((PACKAGE / "__init__.py").read_text()).body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                imported[alias.asname or alias.name] = (node.module, alias.name)
    assert len(flowergraphs.__all__) == len(set(flowergraphs.__all__))
    assert set(flowergraphs.__all__) == set(imported)
    for name, (module, original) in imported.items():
        submodule = importlib.import_module(f"flowergraphs.{module}")
        assert getattr(flowergraphs, name) is getattr(submodule, original)


def test_every_private_module_name_is_used():
    """Each module-level ``_name`` a library module defines, a function, a class or
    an assigned name, is read somewhere in the library: as a name, an attribute or
    an import.  A helper whose last caller goes goes with it."""
    defined, read = set(), set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        for top in tree.body:
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                defined.add((path.stem, top.name))
            elif isinstance(top, (ast.Assign, ast.AnnAssign)):
                targets = top.targets if isinstance(top, ast.Assign) else [top.target]
                defined |= {(path.stem, target.id) for target in targets
                            if isinstance(target, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name)
    private = {(module, name) for module, name in defined
               if name.startswith("_") and not name.startswith("__")}
    assert len(private) >= 10
    assert {(module, name) for module, name in private if name not in read} == set()


@pytest.mark.parametrize("module", LIBRARY_MODULES)
def test_no_line_is_longer_than_the_limit(module):
    lines = (PACKAGE / f"{module}.py").read_text().splitlines()
    long = [number for number, line in enumerate(lines, 1) if len(line) > MAX_LINE_LENGTH]
    assert not long, f"{module}.py lines {long} exceed {MAX_LINE_LENGTH} characters"


def _called_names(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            yield func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)


def test_the_oracle_imports_only_numpy_and_graphs():
    """Besides the standard library the oracle imports numpy and ``.graphs``, and
    neither it nor any other library module imports scipy, even when it runs; nor
    does the oracle load ``numpy.ma``, which ``np.unique`` imports on first use."""
    modules = set()
    for node in ast.walk(ast.parse((PACKAGE / "oracle.py").read_text())):
        if isinstance(node, ast.Import):
            modules |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            modules.add("." * node.level + node.module)
    assert modules - sys.stdlib_module_names == {"numpy", ".graphs"}
    probe = (
        "import sys, flowergraphs.cli\n"
        "flowergraphs.cli.main(['kemeny', '--family', 'complete', '-m', '4', '-n', '3'])\n"
        "flowergraphs.cli.main(['resist', '--family', 'complete', '-m', '4', '-n', '3'])\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        "print('numpy.ma' in sys.modules)"
    )
    run = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         env={"PYTHONPATH": str(PACKAGE.parent)}, check=True)
    assert run.stdout.splitlines()[-2:] == ["[]", "False"]


def test_the_oracle_reads_lifts_not_graphs():
    """The oracle's entry points take a ``Lift`` and read its arcs: ``oracle.py``
    names no ``Graph`` and reads no CSR arrays."""
    tree = ast.parse((PACKAGE / "oracle.py").read_text())
    named = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    read = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert "Graph" not in named | set(imported_modules(ast.unparse(tree))) | read
    assert not {"indptr", "indices", "edges", "neighbors"} & read
    assert "arcs" in read


@pytest.mark.parametrize("module", ["graphs", "flower"])
def test_graphs_and_specs_use_no_cached_property(module):
    """``Graph`` and ``FlowerSpec`` set what they derive in ``__post_init__``: a
    ``cached_property`` writes the instance dict after construction, which slows
    every later attribute read of that instance on CPython 3.11."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    named = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    named |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    named |= {name.split(".")[-1] for name in imported_modules(ast.unparse(tree))}
    assert "cached_property" not in named


def _functions(tree: ast.Module):
    """``(name, node)`` for each top-level function and each method, ``Class.method``."""
    for top in tree.body:
        if isinstance(top, ast.FunctionDef):
            yield top.name, top
        elif isinstance(top, ast.ClassDef):
            for node in top.body:
                if isinstance(node, ast.FunctionDef):
                    yield f"{top.name}.{node.name}", node


def test_only_the_spec_and_the_builder_read_the_block_size():
    """The petal <-> label map lives in ``FlowerSpec``, and its ``lift`` builds the
    flower's arcs from it; nothing else reads the block size."""
    readers = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for name, function in _functions(ast.parse(path.read_text())):
            for node in ast.walk(function):
                if isinstance(node, ast.Attribute) and node.attr == "block_size":
                    readers.add((path.stem, name))
    assert ("flower", "FlowerSpec.lift") in readers
    assert {module for module, name in readers} == {"flower"}
    assert all(name.startswith("FlowerSpec.") for _, name in readers)


def test_only_gen_builds_a_flower_graph():
    """Every other command hands the oracle ``spec.lift()``, and ``cmd_gen`` alone
    lists a lift's edges; no library function calls ``.graph()`` or
    ``build_flower``, so none builds an N-vertex graph.  The rotation certificate
    and the shifted-graph builder are gone."""
    callers = {"graph": set(), "build_flower": set(), "edges": set()}
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        assert not re.search(r"\b(check_shift|block_shift_graph)\b", source), path.stem
        tree = ast.parse(source)
        assert "shift" not in {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
        for name, function in _functions(tree):
            for called in set(_called_names(function)) & set(callers):
                callers[called].add((path.stem, name))
    assert callers == {"graph": set(), "build_flower": set(), "edges": {("cli", "cmd_gen")}}


def test_only_the_spec_builds_a_lift():
    """``FlowerSpec.lift`` is the one library function that calls ``Lift(``: the
    oracle takes the lifts it is given and builds none of its own, such as the
    ``N``-offset one-block form of a lift it cannot reduce."""
    callers = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for name, function in _functions(ast.parse(path.read_text())):
            if "Lift" in _called_names(function):
                callers.add((path.stem, name))
    assert callers == {("flower", "FlowerSpec.lift")}


def _operator_index_names(node: ast.AST) -> int:
    return sum(isinstance(found, ast.Attribute) and found.attr == "index"
               and getattr(found.value, "id", None) == "operator" for found in ast.walk(node))


def test_only_integer_calls_operator_index():
    """``graphs.integer`` is the package's one rule for reading an integer input: no
    other function, and no module-level code, names ``operator.index``."""
    users = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        assert "operator.index" not in imported_modules(ast.unparse(tree)), path.stem
        inside = {(path.stem, name): _operator_index_names(function)
                  for name, function in _functions(tree)}
        assert sum(inside.values()) == _operator_index_names(tree), path.stem
        users.update((key, count) for key, count in inside.items() if count)
    assert users == {("graphs", "integer"): 1}


def test_only_the_one_pair_paths_evaluate_the_pair_formula():
    """``flower_resistance`` and ``max_resistance_search`` ask for single pairs; the
    index sums take moments of the base table and evaluate no pair one by one."""
    callers = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for name, function in _functions(ast.parse(path.read_text())):
            if "_scaled_pair_resistance" in _called_names(function):
                callers.add((path.stem, name))
    assert callers == {("flower", "flower_resistance"), ("flower", "max_resistance_search")}


def test_only_flowers_reads_the_family_options():
    """``cli._flowers`` is the one place parsed options become flowers."""
    readers = set()
    for top in ast.parse((PACKAGE / "cli.py").read_text()).body:
        for node in ast.walk(top):
            if (
                isinstance(node, ast.Attribute)
                and node.attr in FAMILY_OPTIONS
                and isinstance(node.value, ast.Name)
                and node.value.id == "args"
            ):
                readers.add(getattr(top, "name", None))
    assert readers == {"_flowers"}


def test_only_the_cached_build_parser_makes_argparse_parsers():
    """``main`` reuses one parser tree; a parser made per call would cost about 1 ms
    of every command run in a long-lived process."""
    body = ast.parse((PACKAGE / "cli.py").read_text()).body
    builders = {
        getattr(top, "name", None)
        for top in body
        if {"ArgumentParser", "add_parser"} & set(_called_names(top))
    }
    assert builders == {"build_parser"}
    build_parser = next(top for top in body if getattr(top, "name", None) == "build_parser")
    assert [ast.unparse(node) for node in build_parser.decorator_list] == ["functools.cache"]


def test_every_memo_but_the_parser_has_an_integer_bound():
    """A memo holds strong references to its keys and values, so each
    ``lru_cache`` names an integer ``maxsize``; only ``cli.build_parser``, one
    parser tree per process, may be an unbounded ``functools.cache``."""
    memos = {}
    for module in LIBRARY_MODULES:
        for name, function in _functions(ast.parse((PACKAGE / f"{module}.py").read_text())):
            for decorator in function.decorator_list:
                called = decorator.func if isinstance(decorator, ast.Call) else decorator
                kind = called.attr if isinstance(called, ast.Attribute) else called.id
                if kind in ("cache", "lru_cache"):
                    memos[module, name] = (kind, decorator)
    assert memos.pop(("cli", "build_parser"))[0] == "cache"
    assert len(memos) >= 8
    for (module, name), (kind, decorator) in memos.items():
        assert kind == "lru_cache" and isinstance(decorator, ast.Call), (module, name)
        bounds = [*decorator.args, *(k.value for k in decorator.keywords if k.arg == "maxsize")]
        assert len(bounds) == 1, (module, name)
        assert type(getattr(bounds[0], "value", None)) is int, (module, name)
