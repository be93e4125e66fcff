"""The package computes exactly: no float enters ``src/dlab``.

Symbols are ``Fraction``s and scans compare integer numerators, so a float
literal, a ``float(`` call or ``math.inf``/``math.nan`` (as an attribute or
imported by name) is refused wherever it appears, sentinels included.
"""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "dlab").glob("*.py"))
NON_FINITE = {"inf", "nan"}


def _floats(tree):
    """(line, what) of each float the tree spells."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            yield node.lineno, f"literal {node.value!r}"
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "float"):
            yield node.lineno, "float( call"
        elif (isinstance(node, ast.Attribute) and node.attr in NON_FINITE
              and isinstance(node.value, ast.Name) and node.value.id == "math"):
            yield node.lineno, f"math.{node.attr}"
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            for alias in node.names:
                if alias.name in NON_FINITE:
                    yield node.lineno, f"from math import {alias.name}"


def test_no_float_in_the_package():
    found = [
        f"{path.name}:{line} {what}"
        for path in SOURCES
        for line, what in _floats(ast.parse(path.read_text(), str(path)))
    ]
    assert found == []


@pytest.mark.parametrize("source", [
    "x = 0.5",
    "x = 1e3",
    "x = 2j",
    "x = float(y)",
    'x = float("inf")',
    "import math\nx = math.inf",
    "import math\nx = -math.nan",
    "from math import inf",
])
def test_every_float_form_is_refused(source):
    assert list(_floats(ast.parse(source)))


def test_exact_forms_pass():
    source = "from fractions import Fraction\nimport math\nx = Fraction(1, 2) + math.lcm(2, 3) + 10**9"
    assert list(_floats(ast.parse(source))) == []
