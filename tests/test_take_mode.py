"""No module of the package gathers with ``take(..., out=...)`` and no ``mode``.

With ``out``, numpy buffers ``take``'s default ``mode="raise"``, which made
the violation model's gather about three times slower than
``mode="clip"``.  The check reads the source with ``ast`` alone: every call
of a function or method named ``take`` that passes ``out`` must pass
``mode`` too.
"""
import ast
from pathlib import Path

import pytest

import stepopt

MODULES = sorted(Path(stepopt.__file__).resolve().parent.glob("*.py"))


def buffered_takes(source):
    """The line of each ``take`` call in ``source`` with ``out`` and no ``mode``."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        keywords = {k.arg for k in node.keywords}
        if name == "take" and "out" in keywords and "mode" not in keywords:
            lines.append(node.lineno)
    return lines


def test_the_check_finds_a_buffered_take():
    source = ("import numpy as np\nfrom numpy import take\n"
              "np.take(a, i, axis=0, out=b)\n"
              "np.take(a, i, axis=0, out=b, mode='clip')\n"
              "a.take(i, out=b)\n"
              "take(a, i)\n"
              "take(a, i, out=b)\n")
    assert buffered_takes(source) == [3, 5, 7]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_sets_the_mode_of_every_take_into_a_buffer(path):
    assert buffered_takes(path.read_text()) == []
