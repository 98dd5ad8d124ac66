"""No test-only code in src/kstab.

Every module-level function and class of src/kstab/*.py is referenced in
the package beyond its own definition, exported in ``kstab.__all__``, the
``kstab`` console script (``cli.main``), or wrapped by name by the
benchmark's tracer (its ENTRY_POINTS, loaded by path as in
test_tracer_hooks).  A name that meets none of these is dead, or serves
only the tests, and belongs in the tests.
"""
import ast
from collections import Counter
from pathlib import Path

import kstab
from test_tracer_hooks import ROOT, _load

SRC = ROOT / "src" / "kstab"
CONSOLE_SCRIPTS = {("cli", "main")}


def _uses(tree):
    """Names read in tree, as bare names or as attributes."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def unreferenced(src: Path, exported, pinned) -> list:
    """module.name of each top-level def or class in src/*.py that no
    code outside its own body uses, that is not in exported and whose
    (module, name) is not in pinned."""
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted(src.glob("*.py"))}
    used = Counter(name for tree in trees.values() for name in _uses(tree))
    return [f"{module}.{node.name}"
            for module, tree in trees.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))
            and used[node.name] == Counter(_uses(node))[node.name]
            and node.name not in exported
            and (module, node.name) not in pinned]


def test_every_src_definition_has_a_use():
    tracer = _load("tracer")
    pinned = CONSOLE_SCRIPTS | {(layer, name)
                                for layer, names in tracer.ENTRY_POINTS.items()
                                for name in names}
    assert unreferenced(SRC, set(kstab.__all__), pinned) == []


def test_the_scan_finds_a_test_only_helper(tmp_path):
    """A helper called from nowhere, or only from its own body, is
    flagged; one called from another module, or from its own, is not."""
    (tmp_path / "a.py").write_text(
        "def used():\n    return 1\n\n\n"
        "def helper():\n    return used()\n\n\n"
        "def orphan(k):\n    return orphan(k - 1) if k else 2\n\n\n"
        "class Orphan:\n    pass\n")
    (tmp_path / "b.py").write_text("from .a import helper\n\nX = helper()\n")
    assert unreferenced(tmp_path, set(), set()) == ["a.orphan", "a.Orphan"]
    assert unreferenced(tmp_path, {"orphan"}, {("a", "Orphan")}) == []
