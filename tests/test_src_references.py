"""No test-only code in src/kstab.

Every module-level function and class of src/kstab/*.py is referenced in
the package beyond its own definition, exported in ``kstab.__all__``, the
``kstab`` console script (``cli.main``), or wrapped by name by the
benchmark's tracer (its ENTRY_POINTS, loaded by path as in
test_tracer_hooks).  So is every method and property of a module-level
class, but only where src reads it as an attribute (``x.name``) outside
its own body; the tracer's RAY_METHODS pin the ``Ray`` members it wraps.
Dunders, module-level (``__getattr__``, ``__dir__``) or in a class, are
hooks the interpreter calls and are never flagged.  A name that meets
none of these is dead, or serves only the tests, and belongs in the
tests.

The scan goes by name, not by binding: a member whose name is also read
as an attribute of another class elsewhere in src counts as used, so it
misses a test-only member whose name collides with a used one: the
potentials' ``value``, the tests' reference values, passes beside
``SmoothedPL.value``, which the rungs read.

The exact layer (polytope, plconfig, invariants, errors and the
package's ``__init__``) names no ``float`` and imports neither json nor
numpy: report.json's decimals are ``cli``'s, and ``import kstab`` loads
no numpy until a numeric name is read.
"""
import ast
from collections import Counter
from pathlib import Path

import kstab
from test_tracer_hooks import ROOT, _load

SRC = ROOT / "src" / "kstab"
CONSOLE_SCRIPTS = {("cli", "main")}
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _uses(tree):
    """Names read in tree, as bare names or as attributes."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def _attributes(tree):
    """Names read in tree as attributes (x.name) only."""
    return (node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute))


def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _members(node):
    """(qualified name, def, reader of its uses) of a top-level def or
    class and, for a class, of each of its methods and properties, the
    dunders aside: a member is used where it is read as an attribute, a
    top-level name also where it is read bare."""
    if not _dunder(node.name):
        yield node.name, node, _uses
    if isinstance(node, ast.ClassDef):
        for member in node.body:
            if isinstance(member, FUNCTIONS) and not _dunder(member.name):
                yield f"{node.name}.{member.name}", member, _attributes


def unreferenced(src: Path, exported, pinned) -> list:
    """module.name of each top-level def or class in src/*.py, and
    module.Class.name of each member of such a class (``_members``),
    that no code outside its own body uses, that is not in exported and
    whose (module, name) is not in pinned."""
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted(src.glob("*.py"))}
    used = {reads: Counter(name for tree in trees.values()
                           for name in reads(tree))
            for reads in (_uses, _attributes)}
    return [f"{module}.{name}"
            for module, tree in trees.items() for top in tree.body
            if isinstance(top, FUNCTIONS + (ast.ClassDef,))
            for name, node, reads in _members(top)
            if used[reads][node.name] == Counter(reads(node))[node.name]
            and name not in exported
            and (module, name) not in pinned]


def test_every_src_definition_has_a_use():
    tracer = _load("tracer")
    pinned = CONSOLE_SCRIPTS | {(layer, name)
                                for layer, names in tracer.ENTRY_POINTS.items()
                                for name in names} \
        | {("analysis", f"Ray.{name}") for name in tracer.RAY_METHODS}
    assert unreferenced(SRC, set(kstab.__all__), pinned) == []


def test_the_scan_finds_a_test_only_helper(tmp_path):
    """A helper called from nowhere, or only from its own body, is
    flagged; one called from another module, or from its own, is not.
    So is a method or property, and a dunder, module-level or in a
    class, never is."""
    (tmp_path / "a.py").write_text(
        "def used():\n    return 1\n\n\n"
        "def helper():\n    return used()\n\n\n"
        "def orphan(k):\n    return orphan(k - 1) if k else 2\n\n\n"
        "class Orphan:\n    pass\n")
    (tmp_path / "b.py").write_text("from .a import helper\n\nX = helper()\n")
    assert unreferenced(tmp_path, set(), set()) == ["a.orphan", "a.Orphan"]
    assert unreferenced(tmp_path, {"orphan"}, {("a", "Orphan")}) == []

    members = tmp_path / "members"
    members.mkdir()
    (members / "a.py").write_text(
        "class Box:\n"
        "    def __init__(self):\n        self.k = 1\n\n"
        "    def read(self):\n        return self.k\n\n"
        "    @property\n    def shown(self):\n        return 2\n\n"
        "    def lonely(self, k):\n"
        "        return self.lonely(k - 1) if k else 3\n")
    (members / "b.py").write_text(
        "from .a import Box\n\nX = Box().read() + Box().shown\n")
    assert unreferenced(members, set(), set()) == ["a.Box.lonely"]
    assert unreferenced(members, set(), {("a", "Box.lonely")}) == []

    # a function of the same name, called by name, does not use the member
    (members / "c.py").write_text(
        "def lonely():\n    return 4\n\n\nY = lonely()\n")
    assert unreferenced(members, set(), set()) == ["a.Box.lonely"]

    # a module's __getattr__ and __dir__ are the interpreter's hooks
    hooks = tmp_path / "hooks"
    hooks.mkdir()
    (hooks / "__init__.py").write_text(
        "def __getattr__(name):\n    raise AttributeError(name)\n\n\n"
        "def __dir__():\n    return []\n\n\n"
        "def unused():\n    return 5\n")
    assert unreferenced(hooks, set(), set()) == ["__init__.unused"]


EXACT_LAYER = ("polytope", "plconfig", "invariants", "errors", "__init__")


def float_or_format_uses(source: str) -> list:
    """Each `float` named in source, as a call or a bare name, and each
    import of json or numpy: what the exact layer must not hold."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and node.id == "float":
            found.append(f"float at line {node.lineno}")
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            modules = [a.name for a in node.names] \
                if isinstance(node, ast.Import) else [node.module or ""]
            found += [f"import {m} at line {node.lineno}" for m in modules
                      if m.split(".")[0] in ("json", "numpy")]
    return found


def test_the_exact_layer_holds_no_float_and_no_json():
    """polytope, plconfig and invariants compute in Fraction and int
    only, and errors and the package's __init__ hold no float either;
    report.json renders their rationals in cli."""
    for module in EXACT_LAYER:
        source = (SRC / f"{module}.py").read_text()
        assert float_or_format_uses(source) == [], module


def test_the_float_scan_finds_calls_names_and_imports():
    source = ("import json\nimport numpy.linalg\nfrom numpy import array\n"
              "from fractions import Fraction\n"
              "x = float(Fraction(1, 2))\ny = list(map(float, [1]))\n")
    assert float_or_format_uses(source) == [
        "import json at line 1", "import numpy.linalg at line 2",
        "import numpy at line 3", "float at line 5", "float at line 6"]
