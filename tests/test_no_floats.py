"""`src/` computes without floating point.

An AST scan of every module under `src/`: it fails on a float or complex
literal, on the names `float` and `complex`, on an import of `cmath`, and
on any name taken from `math` other than the integer functions below
(`sqrt`, `exp`, `log`, `pi` and the rest return or are floats).
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src").rglob("*.py"))
INTEGER_MATH = {"comb", "factorial", "gcd", "isqrt", "lcm", "perm", "prod"}


def _floating_point(tree):
    """(line, what) for every use of floating point in the tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and type(node.value) in (float, complex):
            yield node.lineno, f"literal {node.value!r}"
        elif isinstance(node, ast.Name) and node.id in ("float", "complex"):
            yield node.lineno, f"name {node.id}"
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "cmath":
                    yield node.lineno, "import cmath"
        elif isinstance(node, ast.ImportFrom) and node.module in ("math", "cmath"):
            for alias in node.names:
                if node.module == "cmath" or alias.name not in INTEGER_MATH:
                    yield node.lineno, f"from {node.module} import {alias.name}"
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id == "math" and node.attr not in INTEGER_MATH):
            yield node.lineno, f"math.{node.attr}"


def test_the_scan_sees_floating_point():
    text = ("import cmath\nfrom math import gcd, sqrt\nimport math\n"
            "x = float(2) + 0.5 + 1j + math.pi + math.lcm(2, 3) + gcd(4, 6)\n")
    found = sorted(what for _, what in _floating_point(ast.parse(text)))
    assert found == ["from math import sqrt", "import cmath", "literal 0.5", "literal 1j",
                     "math.pi", "name float"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_floating_point(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    found = [f"line {line}: {what}" for line, what in _floating_point(tree)]
    assert not found, f"{path.relative_to(ROOT)}: {found}"
