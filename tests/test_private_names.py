"""Every module-level private name in the library has a caller in the library.

A private function, class or assignment that nothing else in ``src/thd``
reads is dead code: a leftover of a routine that moved or was folded into
another.  Uses inside the definition itself (a recursive call) do not count.
"""

import ast
from collections import defaultdict
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "thd"


def _defined(stmt):
    """The names a top-level statement defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, ast.Assign):
        return [target.id for target in stmt.targets if isinstance(target, ast.Name)]
    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        return [stmt.target.id]
    return []


def _used(stmt):
    """The names a top-level statement reads, as variables or as attributes."""
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def test_every_private_module_level_name_is_read_elsewhere_in_the_library():
    modules = sorted(SRC.rglob("*.py"))
    assert modules
    readers = defaultdict(set)  # name -> the top-level statements that read it
    private = []
    for path in modules:
        tree = ast.parse(path.read_text(), filename=str(path))
        for stmt in tree.body:
            place = (path, stmt.lineno)
            for name in _used(stmt):
                readers[name].add(place)
            private += [(name, place) for name in _defined(stmt)
                        if name.startswith("_") and not name.startswith("__")]
    assert private
    dead = [f"{path.relative_to(SRC.parent)}:{line}: {name}"
            for name, (path, line) in private if not readers[name] - {(path, line)}]
    assert not dead, dead
