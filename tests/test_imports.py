"""The engine's modules import at module level, except across a real cycle."""

import ast
from pathlib import Path

import pytest

import jacarena

SRC = Path(jacarena.__file__).parent

# parse_ring builds a rings.RingPresentation (in its cached _parse_ring), and
# rings imports parsing at module level, so that one import has to wait for
# the call.
ALLOWED = {("parsing", "_parse_ring", "rings")}


def function_imports(source):
    """{(function, imported module)} for each import statement inside a
    function or method; a relative module is named without its dots."""
    found = set()
    for fn in ast.walk(ast.parse(source)):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(fn):
                if isinstance(node, ast.Import):
                    found.update((fn.name, alias.name) for alias in node.names)
                elif isinstance(node, ast.ImportFrom):
                    found.add((fn.name, node.module or ""))
    return found


def test_the_check_sees_imports_in_functions_and_methods():
    source = (
        "import math\n"
        "def f():\n    import os\n"
        "class C:\n    def g(self):\n        from .rings import X\n"
        "        def h():\n            from . import game\n"
    )
    assert function_imports(source) == {("f", "os"), ("g", "rings"), ("g", ""), ("h", "")}


@pytest.mark.parametrize("module", ["algebra", "ideals", "parsing", "rings", "game", "strategies"])
def test_no_import_inside_a_function(module):
    found = {(module, fn, name) for fn, name in function_imports((SRC / f"{module}.py").read_text())}
    assert found - ALLOWED == set()
