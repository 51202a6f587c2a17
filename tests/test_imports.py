"""The engine's modules import at module level, except across a real cycle,
every parameter of an engine function is read in its body, every name the
package exports is read outside the tests, and every name the README gives in
code exists."""

import ast
import importlib
import inspect
import pkgutil
import re
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


# The agent protocol fixes these methods' parameters, whether or not an agent
# reads them.
PROTOCOL = {"propose", "receive", "reply"}

# perfbench/run.py passes all five arguments, so dropping these two waits for
# the next benchmark change (ROADMAP item 6).
UNREAD_ALLOWED = {("strategies", "prover_from_spec", "xprime"),
                  ("strategies", "prover_from_spec", "budget")}


def unread_parameters(source):
    """{(function, parameter)} for each parameter of a function, method or
    lambda that its body never reads; self and cls are not counted, and the
    PROTOCOL methods are skipped."""
    found = set()
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        name = getattr(fn, "name", "<lambda>")
        if name in PROTOCOL:
            continue
        a = fn.args
        params = {p.arg for p in a.posonlyargs + a.args + a.kwonlyargs}
        params |= {p.arg for p in (a.vararg, a.kwarg) if p is not None}
        body = fn.body if isinstance(fn.body, list) else [fn.body]
        read = {node.id for stmt in body for node in ast.walk(stmt)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        found.update((name, p) for p in params - read - {"self", "cls"})
    return found


def test_the_check_sees_unread_parameters():
    source = (
        "def f(a, b, *c, d, **e):\n    return a + d\n"
        "class C:\n    def g(self, x):\n        y = lambda z, w: w\n        return y\n"
        "    def reply(self, pos):\n        return []\n"
        "def h(u):\n    def k():\n        return u\n    return k\n"
    )
    assert unread_parameters(source) == {
        ("f", "b"), ("f", "c"), ("f", "e"), ("g", "x"), ("<lambda>", "z")
    }


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.stem)
def test_every_parameter_is_read(path):
    found = {(path.stem, fn, p) for fn, p in unread_parameters(path.read_text())}
    assert found - UNREAD_ALLOWED == set()


def names_read(source):
    """The names read in source as a name or an attribute, except where the
    read is inside the def or class of that name; an import, a def or a
    class statement is not a read."""
    read = set()

    def visit(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inside = inside | {node.name}
        elif isinstance(node, (ast.Name, ast.Attribute)):
            name = node.id if isinstance(node, ast.Name) else node.attr
            if name not in inside:
                read.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(ast.parse(source), frozenset())
    return read


def test_the_export_check_skips_reads_in_the_names_own_body():
    source = (
        "import h\n"
        "class A:\n    def receive(self):\n        return A(), self.receive\n"
        "def f():\n    return f, B.g\n"
        "def g():\n    return A\n"
    )
    assert names_read(source) == {"self", "B", "g", "A"}


def test_every_export_has_a_caller_outside_the_tests():
    """Each name the package exports is read, as a name or an attribute, by
    an engine module or a non-test benchmark script, outside its own def or
    class."""
    init = ast.parse((SRC / "__init__.py").read_text())
    exported = {alias.asname or alias.name for node in init.body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    bench = SRC.parents[1] / "perfbench"
    paths = [p for p in SRC.glob("*.py") if p.name != "__init__.py"]
    paths += [p for p in bench.glob("*.py") if not p.name.startswith("test_")]
    read = set().union(*(names_read(path.read_text()) for path in paths))
    assert exported - read == set()


# names in the README's code spans that are agent specs or mathematics
README_NOT_CODE = {
    "zeroDim", "euclideanDim1", "polyLift", "jacWitness", "refuterZ", "refuterPoly",
    "J_b", "c_j", "sum_",
}

# a code span that is a name, dotted or not, or begins with a call of one
README_NAME = re.compile(r"`(_*[A-Za-z][\w.]*)[`(]")


def readme_code_names(text):
    """The snake_case and camelCase names of README_NAME spans in text, each
    part of a dotted name on its own."""
    parts = (part for m in README_NAME.finditer(text) for part in m.group(1).split("."))
    return {p for p in parts if "_" in p or (p[:1].islower() and not p.islower())}


def test_the_readme_check_reads_names_and_calls():
    text = "`a_b` and `f_g(x, y)`, `mod.h_i`, `camelCase`, `plain`, `x = y_z`"
    assert readme_code_names(text) == {"a_b", "f_g", "h_i", "camelCase"}


def test_every_name_in_the_readme_exists():
    known = set()
    for info in pkgutil.iter_modules(jacarena.__path__):
        module = importlib.import_module(f"jacarena.{info.name}")
        known.update(dir(module))
        for _, cls in inspect.getmembers(module, inspect.isclass):
            known.update(dir(cls))
    names = readme_code_names((SRC.parents[1] / "README.md").read_text())
    assert names - known - README_NOT_CODE == set()
