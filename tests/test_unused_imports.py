"""No module of the package imports a name it never uses.

The check reads the source with ``ast`` alone, so it needs no linter: every
name an import binds must appear in the module as a name it reads, or be
listed in the module's ``__all__``.
"""
import ast
from pathlib import Path

import pytest

import stepopt

MODULES = sorted(p for p in Path(stepopt.__file__).resolve().parent.glob("*.py")
                 if p.name != "__init__.py")


def unused_imports(source):
    """(line, name) of each name bound by an import of ``source`` and never used."""
    tree = ast.parse(source)
    imported = []
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(node.lineno, (a.asname or a.name).split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, a.asname or a.name) for a in node.names]
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return [(line, name) for line, name in imported if name not in used]


def test_the_check_finds_an_unused_import():
    source = ("from __future__ import annotations\nimport os\nimport numpy as np\n"
              "from math import inf, pi\n__all__ = ['pi']\nprint(np.zeros(1), inf)\n")
    assert unused_imports(source) == [(2, "os")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []
