"""Source hygiene: every module of the package reads each name it imports.

The package's `__init__` is skipped: its imports are the public names it
re-exports.  `from __future__` imports bind no name.
"""

import ast
from pathlib import Path

import pytest

import cfspectra

MODULES = sorted(p for p in Path(cfspectra.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def _unused_imports(tree):
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                bound[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted((line, name) for name, line in bound.items() if name not in read)


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_module_reads_every_import(path):
    assert _unused_imports(ast.parse(path.read_text())) == []


def test_the_check_sees_an_unused_import():
    tree = ast.parse("import math\nfrom os import path, sep\nfrom .x import y as z\n"
                     "print(sep)\n")
    assert _unused_imports(tree) == [(1, "math"), (2, "path"), (3, "z")]
