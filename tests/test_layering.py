"""The closed forms stay independent of the numeric oracle they are checked against."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import flowergraphs

CLOSED_FORM_MODULES = ("flower", "complete", "cycle", "separation", "exact")
NUMERIC_MODULES = {"oracle", "numpy", "scipy"}


def imported_modules(source: str):
    """Dotted names of every module and name an import statement in ``source`` binds."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            prefix = f"{node.module}." if node.module else ""
            yield from (prefix + alias.name for alias in node.names)


@pytest.mark.parametrize("module", CLOSED_FORM_MODULES)
def test_closed_form_module_imports_no_numeric_code(module):
    source = (Path(flowergraphs.__file__).parent / f"{module}.py").read_text()
    for name in imported_modules(source):
        assert not NUMERIC_MODULES & set(name.split(".")), f"{module} imports {name}"
