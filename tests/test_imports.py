"""The engine's modules import at module level, except across a real cycle,
and every name the package exports is read outside the tests."""

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


# reference implementations that tests compare the engine against
TEST_ONLY = {"brute_nil", "brute_jac", "nil_exponent_search"}


def test_every_export_has_a_caller_outside_the_tests():
    """Each name the package exports is read, as a name or an attribute, by
    an engine module or a non-test benchmark script; an import, a def or a
    class statement is not a read."""
    init = ast.parse((SRC / "__init__.py").read_text())
    exported = {alias.asname or alias.name for node in init.body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    bench = SRC.parents[1] / "perfbench"
    paths = [p for p in SRC.glob("*.py") if p.name != "__init__.py"]
    paths += [p for p in bench.glob("*.py") if not p.name.startswith("test_")]
    read = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    assert exported - read - TEST_ONLY == set()
