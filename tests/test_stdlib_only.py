"""The library imports only the standard library and itself."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "thd"


def _absolute_imports(path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module


def test_every_module_imports_only_the_stdlib_and_thd():
    modules = sorted(SRC.rglob("*.py"))
    assert modules
    foreign = [f"{path.relative_to(SRC.parent)}:{line}: {name}"
               for path in modules
               for line, name in _absolute_imports(path)
               if name.split(".")[0] != "thd" and name.split(".")[0] not in sys.stdlib_module_names]
    assert not foreign, foreign
