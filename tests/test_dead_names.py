"""Dead names: every module-level function, class or assignment of the
package is read somewhere beyond its own definition.

A name counts as read where any module of the package, the tests or the
benchmark loads it, takes it as an attribute, imports it by name, or spells
it as a string (the benchmark's span table and ``monkeypatch.setattr`` name
what they wrap). Dunder names are read by the interpreter and are skipped.
"""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "faircouncil"
READERS = [*PACKAGE.glob("*.py"), *(ROOT / "tests").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]


def _defined_names(source):
    """Names bound by the module's top-level defs, classes and assignments."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                names.update(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
    return {name for name in names if not (name.startswith("__") and name.endswith("__"))}


def _read_names(source):
    """Every identifier the source reads: loaded names, attributes, names
    imported from a module, and identifier-like string constants."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rsplit(".", 1)[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
            names.add(node.value)
    return names


def test_guard_finds_names_read_nowhere():
    source = ("import os\n"
              "A = 1\n"
              "B, (C, D) = 2, (3, 4)\n"
              "E: int = A\n"
              "__all__ = ['F']\n"
              "def F():\n"
              "    return os.sep + C\n"
              "class G:\n"
              "    H = 5\n"
              "def I(): return D.attr\n"
              "spans = [('mod', 'E')]\n")
    assert _defined_names(source) == {"A", "B", "C", "D", "E", "F", "G", "I", "spans"}
    assert _defined_names(source) - _read_names(source) == {"B", "G", "I", "spans"}


@pytest.fixture(scope="module")
def read_names():
    return set().union(*(_read_names(path.read_text()) for path in READERS))


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_every_module_level_name_is_read(path, read_names):
    dead = sorted(_defined_names(path.read_text()) - read_names)
    assert not dead, f"{path.name} defines names read nowhere: {dead}"
