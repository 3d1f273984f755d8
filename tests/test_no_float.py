"""The package computes exactly: no floating point anywhere in src/nivatk,
and integer vector and scalar arguments refuse a float instead of truncating
or converting it."""

import ast
from pathlib import Path

import pytest

import nivatk
from nivatk.annihilator import build_radical_witness, expansion_bound, verify_expansion
from nivatk.configurations import CosetIndicator, FiniteSupport, Mechanical, Periodic, Sum, ValueMap
from nivatk.decomposition import decompose
from nivatk.lattice import Lattice, Window
from nivatk.laurent import LaurentPolynomial as LP, line_content
from nivatk.quadratic import QuadraticReal
from nivatk.tiling import ClusterTile, PeriodicCoTiler

from draws import checkerboard

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


@pytest.mark.parametrize("build", [
    lambda: Window.box((0.5, 0), (2.9, 1)),
    lambda: Window((0, 0), (2.9, 1)),
    lambda: Window.from_points([(0, 0), (1.5, 0)]),
    lambda: LP(2, {(0.5, 0): 1}),
    lambda: LP.monomial((1.5, 0)),
    lambda: LP.one(2).shift((0, 2.5)),
    lambda: line_content(LP.difference((2, 0)), (1.5, 0)),
    lambda: decompose(checkerboard(), [(1.5, 1)], Window.box((0, 0), (3, 3))),
    lambda: build_radical_witness(LP.difference((1, 0)), 2, (0.5, 0)),
    lambda: Lattice([(2.5, 0), (0, 2)]),
    lambda: CosetIndicator((0.5, 0), [(1, 0)]),
    lambda: FiniteSupport({(0.5, 0): 1}),
    lambda: ClusterTile([(0, 0), (1.5, 0)]),
    lambda: PeriodicCoTiler(Lattice([(2, 0), (0, 1)]), [(0.5, 0)]),
    lambda: LP.difference((1, 0)).substitute_power(2.5),
    lambda: verify_expansion(LP(2, {(1, 0): 1, (0, 1): -1}), checkerboard(), [3.7],
                             Window.box((0, 0), (5, 5))),
    lambda: Periodic(Lattice([(2, 0), (0, 1)]), {(0.5, 0): 0, (1, 0): 1}),
    lambda: Periodic(Lattice([(2, 0), (0, 1)]), {(0, 0): 0.5, (1, 0): 1}),
    lambda: QuadraticReal(0.5),
    lambda: QuadraticReal(0, 1, 2, 2.5),
    lambda: QuadraticReal.from_fraction(0.5),
    lambda: Mechanical((1, 1), 0.1),
    lambda: CosetIndicator((0, 0), [(1, 0)], value=1.5),
    lambda: FiniteSupport({(0, 0): 2.7}),
    lambda: Sum([(1.5, checkerboard())]),
    lambda: ValueMap(checkerboard(), {1: 2.5}, 0),
    lambda: ValueMap(checkerboard(), {1.5: 2}, 0),
    lambda: ValueMap(checkerboard(), {1: 2}, 0.9),
    lambda: LP(2, {(0, 0): 0.5}),
    lambda: expansion_bound(LP.difference((1, 0)), 2.5),
], ids=["Window.box", "Window", "Window.from_points", "LaurentPolynomial", "monomial", "shift",
        "line_content", "decompose", "radical witness v0", "Lattice",
        "CosetIndicator", "FiniteSupport", "ClusterTile", "PeriodicCoTiler", "substitute_power",
        "verify_expansion prime", "Periodic cell", "Periodic value", "QuadraticReal",
        "QuadraticReal q", "from_fraction", "Mechanical alpha", "CosetIndicator value",
        "FiniteSupport value", "Sum coefficient", "ValueMap value", "ValueMap key",
        "ValueMap default", "LaurentPolynomial coefficient", "expansion_bound c_max"])
def test_integer_vector_arguments_reject_floats(build):
    with pytest.raises(TypeError):
        build()
