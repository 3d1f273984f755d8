"""The package computes exactly: no floating point anywhere in src/nivatk."""

import ast
from pathlib import Path

import nivatk

SOURCES = sorted(Path(nivatk.__file__).parent.glob("*.py"))


def _float_uses(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            yield node.lineno, f"float literal {node.value!r}"
        elif isinstance(node, ast.Name) and node.id == "float":
            yield node.lineno, "name float"
        elif (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div)
              and isinstance(node.left, ast.Constant) and type(node.left.value) is int):
            # 1 / x is a float once x is an int
            yield node.lineno, "int literal / x"
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == "__float__":
            yield node.lineno, "__float__ definition"
        elif (isinstance(node, ast.Attribute) and node.attr == "sqrt"
              and isinstance(node.value, ast.Name) and node.value.id == "math"):
            yield node.lineno, "math.sqrt"
        elif isinstance(node, ast.ImportFrom) and node.module == "math" and any(
                alias.name == "sqrt" for alias in node.names):
            yield node.lineno, "from math import sqrt"


def test_sources_found():
    assert len(SOURCES) >= 10


def test_no_floating_point_in_package():
    found = [f"{path.name}:{line}: {what}"
             for path in SOURCES
             for line, what in _float_uses(ast.parse(path.read_text(), str(path)))]
    assert found == []


def test_checker_sees_each_form():
    text = ("import math\nfrom math import sqrt\nx = 0.5\ny = float(1)\n"
            "z = math.sqrt(2)\nw = 1 / z\nclass A:\n    def __float__(self):\n        return 1\n")
    kinds = sorted(what for _, what in _float_uses(ast.parse(text)))
    assert kinds == ["__float__ definition", "float literal 0.5", "from math import sqrt",
                     "int literal / x", "math.sqrt", "name float"]
