"""Source hygiene: every library module uses each name it imports and
reads nothing from the environment, something outside the tests reads
every name the library defines and passes every optional parameter it
declares, the library itself reads every field of its records, and the
README names every top-level setting and gives each command only flags it takes."""

import argparse
import ast
import re
from pathlib import Path

import pytest

from eggimpute import cli

SRC = Path(__file__).resolve().parents[1] / "src" / "eggimpute"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    """Names bound by import statements that the module never reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_checker_sees_unused_and_used_names():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport numpy as np\nfrom json import dumps, loads\n"
              "x = np.zeros(1)\ny = loads('1')\n")
    assert unused_imports(source) == ["dumps", "os"]
    assert MODULES  # the glob found the package


@pytest.mark.parametrize("module", MODULES)
def test_module_uses_every_import(module):
    assert unused_imports((SRC / module).read_text()) == []


ENVIRONMENT_READERS = ("environ", "getenv")


def environment_reads(source):
    """``os.environ`` and ``os.getenv``, read as attributes or imported by name."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in ENVIRONMENT_READERS:
            found.append(node.attr)
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            found += [a.name for a in node.names if a.name in ENVIRONMENT_READERS]
    return sorted(found)


def test_environment_checker_sees_each_way_to_read_it():
    source = ("import os\nfrom os import getenv\nout = os.environ['OUT']\n"
              "home = os.getenv('HOME')\npath = os.path.join('a', 'b')\n")
    assert environment_reads(source) == ["environ", "getenv", "getenv"]


@pytest.mark.parametrize("module", MODULES)
def test_module_reads_no_environment_variable(module):
    """A run is described by its config and flags; nothing else may move it."""
    assert environment_reads((SRC / module).read_text()) == []


ROOT = SRC.parents[1]
# every file whose use of a library name keeps it: tests do not count, so
# library code that only a test calls is flagged
READERS = [p for d in ("src", "tools", "perfbench") for p in sorted((ROOT / d).rglob("*.py"))]
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def defined_names(source):
    """(qualified name, name) of every non-dunder function, method and class."""
    found = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, DEFINITIONS):
                if not _is_dunder(child.name):
                    found.append((prefix + child.name, child.name))
                visit(child, f"{prefix}{child.name}.")
            else:
                visit(child, prefix)

    visit(ast.parse(source), "")
    return found


def read_names(source):
    """Names, attributes and string constants the source reads, each outside
    the body of any definition of that same name (so recursion and a method
    that delegates to a namesake do not count as a use)."""
    found = set()

    def visit(node, enclosing):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            name = node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            name = node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            name = node.value  # getattr, setattr and tracing targets
        else:
            name = None
        if name is not None and name not in enclosing:
            found.add(name)
        if isinstance(node, DEFINITIONS):
            enclosing = enclosing | {node.name}
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    visit(ast.parse(source), frozenset())
    return found


def unreferenced_definitions(library_sources, reader_sources):
    """Qualified names of library definitions whose name no reader reads."""
    read = set().union(*map(read_names, reader_sources))
    return sorted(qual for source in library_sources
                  for qual, name in defined_names(source) if name not in read)


def test_reference_checker_ignores_own_body_and_dunders():
    library = ("class A:\n"
               "    def __call__(self): return self.run()\n"
               "    def run(self): return self.run()\n"
               "    def parameters(self): return []\n"
               "class B:\n"
               "    def parameters(self): return self.inner.parameters()\n"
               "def helper(): pass\n"
               "def traced(): pass\n")
    reader = "A()\nB()\nhelper()\ntargets = [('mod', 'traced')]\n"
    assert unreferenced_definitions([library], [library, reader]) == ["A.parameters",
                                                                       "B.parameters"]


def test_every_library_definition_is_referenced():
    library = [(SRC / module).read_text() for module in MODULES]
    readers = [path.read_text() for path in READERS]
    assert unreferenced_definitions(library, readers) == []


def optional_parameters(source):
    """(qualified name, call name, positional index or None, parameter) of every
    parameter with a default; a method's index leaves out ``self``, and a
    constructor is called by its class name."""
    found = []

    def visit(node, prefix, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.", child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = child.args
                positional = args.posonlyargs + args.args
                static = any(getattr(d, "id", None) == "staticmethod"
                             for d in child.decorator_list)
                if cls is not None and not static:
                    positional = positional[1:]
                defaulted = positional[len(positional) - len(args.defaults):]
                call_name = cls if child.name == "__init__" else child.name
                qual = f"{prefix}{child.name}"
                found.extend((qual, call_name, positional.index(a), a.arg) for a in defaulted)
                found.extend((qual, call_name, None, a.arg)
                             for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None)
                visit(child, f"{qual}.", None)
            else:
                visit(child, prefix, cls)

    visit(ast.parse(source), "", None)
    return found


def calls(source):
    """(called name, positional count, keyword names, unpacks) of every call
    made through a name or an attribute."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            unpacks = (any(isinstance(a, ast.Starred) for a in node.args)
                       or any(k.arg is None for k in node.keywords))
            found.append((name, len(node.args), {k.arg for k in node.keywords}, unpacks))
    return found


def unpassed_parameters(library_sources, reader_sources):
    """``qualified(parameter)`` of every optional parameter that no reader's call
    passes by keyword, by position or through ``*``/``**``."""
    made = [call for source in reader_sources for call in calls(source)]

    def passed(call_name, index, param):
        return any(name == call_name and (unpacks or param in keywords
                                          or (index is not None and n_positional > index))
                   for name, n_positional, keywords, unpacks in made)

    return sorted(f"{qual}({param})" for source in library_sources
                  for qual, call_name, index, param in optional_parameters(source)
                  if not passed(call_name, index, param))


def test_parameter_checker_counts_keyword_position_constructor_and_unpacking():
    library = ("def f(a, b=1, c=2, *, d=3, e=4): pass\n"
               "def g(a, b=1): pass\n"
               "def h(a=1): pass\n"
               "class K:\n"
               "    def __init__(self, x, y=0, z=0): pass\n"
               "    def m(self, p=1, q=2): pass\n"
               "    @staticmethod\n"
               "    def s(p=1, q=2): pass\n")
    reader = ("f(0, 1, e=5)\nmod.g(*args)\nh(**kw)\nK(1, 2)\nK(1).m(3)\nK.s(3)\n"
              "never = f\n")
    assert unpassed_parameters([library], [reader]) == [
        "K.__init__(z)", "K.m(q)", "K.s(q)", "f(c)", "f(d)"]


def test_every_optional_parameter_is_passed():
    """A default that nothing outside the tests overrides is a constant, not a setting."""
    library = [(SRC / module).read_text() for module in MODULES]
    readers = [path.read_text() for path in READERS]
    assert unpassed_parameters(library, readers) == []


def _is_dataclass_decorator(node):
    node = node.func if isinstance(node, ast.Call) else node
    return getattr(node, "id", getattr(node, "attr", None)) == "dataclass"


def record_fields(source):
    """(Class.field, field) of every annotated field of every dataclass."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ClassDef) and any(map(_is_dataclass_decorator,
                                                      node.decorator_list)):
            found += [(f"{node.name}.{stmt.target.id}", stmt.target.id) for stmt in node.body
                      if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)]
    return found


def attribute_reads(source):
    """Attribute names the source loads, and its string constants (getattr
    and results columns read fields by name)."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            found.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add(node.value)
    return found


def unread_fields(library_sources):
    """Qualified dataclass fields that no library source reads."""
    read = set().union(*map(attribute_reads, library_sources))
    return sorted(qual for source in library_sources
                  for qual, name in record_fields(source) if name not in read)


def test_field_checker_counts_attribute_and_string_reads_only():
    library = ("import dataclasses\nfrom dataclasses import dataclass\n"
               "@dataclass\nclass A:\n"
               "    by_attr: int\n    by_string: int\n    stored: int\n    bare: int\n"
               "    never: int = 0\n"
               "@dataclasses.dataclass(frozen=True)\nclass B:\n    v: int\n"
               "class Plain:\n    u: int\n"
               "def f(a):\n    a.stored = 1\n    bare = a.by_attr\n"
               "    return getattr(a, 'by_string'), bare\n")
    assert unread_fields([library]) == ["A.bare", "A.never", "A.stored", "B.v"]


def test_every_record_field_is_read():
    assert unread_fields([(SRC / module).read_text() for module in MODULES]) == []


def library_imports(source):
    """The library modules a module imports, by ``from . import x`` or ``from .x import y``."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            found.update([node.module] if node.module else (a.name for a in node.names))
    return found


def test_import_checker_sees_both_relative_forms():
    source = ("import numpy as np\nfrom . import dataio\nfrom . import tensor as T\n"
              "from .model import encode\n")
    assert library_imports(source) == {"dataio", "tensor", "model"}


@pytest.mark.parametrize("module", ["missingness.py", "dataio.py", "baselines.py",
                                    "evaluation.py"])
def test_data_layer_imports_neither_tensor_nor_model(module):
    """Masks, tables, baselines and metrics hand plain arrays to the model,
    which owns its input embedding and autodiff."""
    assert library_imports((SRC / module).read_text()) & {"tensor", "model"} == set()


def test_readme_names_every_setting():
    """A setting added to the table is also named in the README, and the
    README names no setting the table lacks."""
    readme = (ROOT / "README.md").read_text()
    sentence = re.search(r"The top-level settings are (.*?)\.", readme, re.S).group(1)
    assert sorted(re.findall(r"`([^`]+)`", sentence)) == sorted(cli.SETTINGS)


def unknown_flags(code):
    """Each ``eggimpute <command> ... --flag`` in shell ``code``, its backslash continuations
    joined and its comments dropped, whose command the parser lacks or does not give that flag."""
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    found = []
    for line in code.replace("\\\n", " ").splitlines():
        words = line.split("#")[0].split()
        if words[:1] == ["eggimpute"] and len(words) > 1:
            parser = sub.choices.get(words[1])
            known = parser._option_string_actions if parser else {}
            found += [f"{words[1]} {w}" for w in words[2:]
                      if w.startswith("--") and w.split("=")[0] not in known]
    return found


def test_flag_checker_joins_continuations_and_sees_an_unknown_flag():
    code = "eggimpute benchmark --config c.json \\\n    --threads 2 --out=runs  # --seeds\n"
    assert unknown_flags(code) == ["benchmark --threads"]


def test_readme_commands_take_the_flags_they_show():
    readme = (ROOT / "README.md").read_text()
    code = "".join(re.findall(r"^```[^\n]*\n(.*?)^```", readme, re.M | re.S))
    assert "eggimpute benchmark" in code
    assert unknown_flags(code) == []
