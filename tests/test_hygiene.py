"""Source hygiene: every library module uses each name it imports,
something in the repository reads every name the library defines, and
the library itself reads every field of its records."""

import ast
from pathlib import Path

import pytest

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


ROOT = SRC.parents[1]
# every file that may use a library name; this one is left out, because
# its checker fixtures spell names as strings
READERS = [p for d in ("src", "tests", "perfbench") for p in sorted((ROOT / d).rglob("*.py"))
           if p != Path(__file__).resolve()]
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
