"""Input contracts: each call breaks one precondition and must raise that
check's error type.

One row per check that no other test reaches: dimension and rank checks,
ranges and values, zero polynomials, the tiling checks and the text
parsers' errors.
"""

from fractions import Fraction

import pytest

from nivatk.annihilator import (
    expansion_bound,
    find_annihilator,
    radical_witness_normal_form,
    search_difference_annihilator,
    verify_expansion,
)
from nivatk.configurations import Configuration, CosetIndicator, FiniteSupport, Pattern, Periodic, Sum, extract_pattern
from nivatk.decomposition import decompose, difference, integrate
from nivatk.errors import (
    ConfigSyntaxError,
    DimensionMismatchError,
    EmptyShapeError,
    VerificationFailedError,
    ZeroPolynomialError,
    ZeroVectorError,
)
from nivatk.lattice import Lattice, Window
from nivatk.laurent import (
    LaurentPolynomial,
    apply,
    line_content,
    newton_polygon_directions,
    normalize_integer_primitive,
    periodicity_test,
)
from nivatk.nivat import (
    bound_disjoint_lines,
    bound_line_size,
    bound_two_directions,
    corollary_report,
    line_pattern_census,
    nivat_scan,
)
from nivatk.quadratic import QuadraticReal
from nivatk.textio import format_config, parse_poly, parse_tile, parse_window
from nivatk.tiling import ClusterTile, PeriodicCoTiler, prime_periodicity_check, search_periodic_cotiler, verify_cotiler

BRICKS = Lattice([(2, 0), (1, 1)])
BOARD = Periodic(BRICKS, {(0, 0): 0, (1, 0): 1})
BOARD_3D = FiniteSupport({(0, 0, 0): 1})
SQUARE = Window.box((0, 0), (1, 1))
SPACE = Window.box((0, 0, 0), (1, 1, 1))
ZERO = LaurentPolynomial(2)
STEP = LaurentPolynomial(2, {(1, 0): 1, (0, 0): -1})
STEP_3D = LaurentPolynomial(3, {(1, 0, 0): 1, (0, 0, 0): -1})
TROMINO = ClusterTile([(0, 0), (0, 1), (1, 0)])
TROMINO_COTILER = PeriodicCoTiler(Lattice([(3, 0), (1, 1)]), [(0, 0)])

CONTRACTS = [
    # dimension and rank checks
    ("Periodic-rank", lambda: Periodic(Lattice([(1, 1)]), {(0, 0): 1}), ValueError),
    ("Periodic-conflict", lambda: Periodic(BRICKS, {(0, 0): 0, (2, 0): 1, (1, 0): 1}), ValueError),
    ("Periodic-missing", lambda: Periodic(BRICKS, {(0, 0): 0}), ValueError),
    ("value-dimension", lambda: BOARD_3D.value((0, 0)), DimensionMismatchError),
    ("value-abstract", lambda: Configuration().value((0,)), NotImplementedError),
    ("CosetIndicator-dimension", lambda: CosetIndicator((0, 0), [(1, 0, 0)]), DimensionMismatchError),
    ("FiniteSupport-mixed", lambda: FiniteSupport({(0, 0): 1, (0, 0, 0): 1}), DimensionMismatchError),
    ("FiniteSupport-dim", lambda: FiniteSupport({(0, 0): 1}, dim=3), DimensionMismatchError),
    ("FiniteSupport-empty", lambda: FiniteSupport({}), ValueError),
    ("Sum-empty", lambda: Sum([]), ValueError),
    ("Sum-mixed", lambda: Sum([(1, BOARD), (1, BOARD_3D)]), DimensionMismatchError),
    ("extract_pattern", lambda: extract_pattern(BOARD, (0, 0, 0), SQUARE), DimensionMismatchError),
    ("Lattice.reduce", lambda: BRICKS.reduce((1, 2, 3)), DimensionMismatchError),
    ("Lattice.intersect", lambda: BRICKS.intersect(Lattice([(1, 0, 0)])), DimensionMismatchError),
    ("Window-mixed-points", lambda: Window.from_points([(0, 0), (0, 0, 0)]), DimensionMismatchError),
    ("Window-mixed-corners", lambda: Window.box((0, 0), (1, 1, 1)), DimensionMismatchError),
    ("Window-empty", lambda: Window.box((1, 0), (0, 0)), EmptyShapeError),
    ("Window.intersect", lambda: SQUARE.intersect(SPACE), DimensionMismatchError),
    ("LaurentPolynomial-exponent", lambda: LaurentPolynomial(2, {(1, 2, 3): 1}), DimensionMismatchError),
    ("apply", lambda: apply(STEP_3D, BOARD, SQUARE), DimensionMismatchError),
    ("find_annihilator", lambda: find_annihilator(BOARD, SQUARE, SQUARE, SPACE), DimensionMismatchError),
    ("decompose-core", lambda: decompose(BOARD, [(1, 0, 0)], SPACE), DimensionMismatchError),
    ("corollary_report", lambda: corollary_report(STEP_3D, None, 4, 4), DimensionMismatchError),
    ("nivat_scan-dimension", lambda: nivat_scan(BOARD_3D, [2], [2], SPACE), DimensionMismatchError),
    ("search-window", lambda: search_difference_annihilator(BOARD, 1, 1, SPACE), DimensionMismatchError),
    # ranges and values
    ("nivat_scan-empty", lambda: nivat_scan(BOARD, [], [2], SQUARE), ValueError),
    ("nivat_scan-extent", lambda: nivat_scan(BOARD, [0], [2], SQUARE), ValueError),
    ("bound_disjoint_lines", lambda: bound_disjoint_lines(-1, 0, 1, 1), ValueError),
    ("bound_line_size-extent", lambda: bound_line_size(-1, 0, 1, 1, 1), ValueError),
    ("bound_line_size-area", lambda: bound_line_size(1, 1, 1, 1, -1), ValueError),
    ("bound_two_directions-dimension", lambda: bound_two_directions((1, 0, 0), (0, 1), 2, 2),
     DimensionMismatchError),
    ("bound_two_directions-extent", lambda: bound_two_directions((1, 0), (0, 1), -1, 2), ValueError),
    ("bound_two_directions-zero", lambda: bound_two_directions((0, 0), (0, 1), 2, 2), ZeroVectorError),
    ("search-factors", lambda: search_difference_annihilator(BOARD, 0, 1, SQUARE), ValueError),
    ("search-bound", lambda: search_difference_annihilator(BOARD, 1, 0, SQUARE), ValueError),
    ("expansion_bound-zero", lambda: expansion_bound(ZERO, 1), ZeroPolynomialError),
    ("expansion_bound-c_max", lambda: expansion_bound(STEP, -1), ValueError),
    ("verify_expansion-not-annihilating", lambda: verify_expansion(STEP, BOARD, [2], SQUARE),
     VerificationFailedError),
    ("radical-zero", lambda: radical_witness_normal_form(ZERO, 1, (0, 0)), ZeroPolynomialError),
    ("radical-modulus", lambda: radical_witness_normal_form(STEP, 0, (0, 0)), ValueError),
    ("integrate-zero-step", lambda: integrate(Pattern(SQUARE, [0] * 4), (0, 0)), ZeroVectorError),
    ("decompose-no-vectors", lambda: decompose(BOARD, [], SQUARE), ValueError),
    ("line_pattern_census-zero", lambda: line_pattern_census(BOARD, SQUARE, (0, 0), SQUARE), ZeroVectorError),
    ("substitute_power", lambda: STEP.substitute_power(0), ValueError),
    ("coefficients_mod", lambda: LaurentPolynomial(2, {(0, 0): Fraction(1, 2)}).coefficients_mod(3), ValueError),
    ("QuadraticReal-q", lambda: QuadraticReal(1, 1, 2, 0), ZeroDivisionError),
    ("QuadraticReal-n", lambda: QuadraticReal(1, 1, -2), ValueError),
    # zero and non-2-D polynomials
    ("min_exponent", lambda: ZERO.min_exponent(), ZeroPolynomialError),
    ("leading_term", lambda: ZERO.leading_term(), ZeroPolynomialError),
    ("normalize_integer_primitive", lambda: normalize_integer_primitive(ZERO), ZeroPolynomialError),
    ("newton_polygon_directions-dimension", lambda: newton_polygon_directions(STEP_3D), DimensionMismatchError),
    ("newton_polygon_directions-zero", lambda: newton_polygon_directions(ZERO), ZeroPolynomialError),
    ("line_content-dimension", lambda: line_content(STEP_3D, (1, 0)), DimensionMismatchError),
    ("line_content-zero", lambda: line_content(ZERO, (1, 0)), ZeroPolynomialError),
    # tiling
    ("ClusterTile-mixed", lambda: ClusterTile([(0, 0), (0, 0, 0)]), DimensionMismatchError),
    ("PeriodicCoTiler-empty", lambda: PeriodicCoTiler(BRICKS, []), ValueError),
    ("verify_cotiler-dimension", lambda: verify_cotiler(ClusterTile([(0,), (1,)]), TROMINO_COTILER),
     DimensionMismatchError),
    ("prime_periodicity_check-dimension",
     lambda: prime_periodicity_check(ClusterTile([(0,), (1,)]), TROMINO_COTILER), DimensionMismatchError),
    ("prime_periodicity_check-window",
     lambda: prime_periodicity_check(TROMINO, TROMINO_COTILER, SPACE), DimensionMismatchError),
    ("search_periodic_cotiler-index", lambda: search_periodic_cotiler(TROMINO, 2), ValueError),
    # text
    ("format_config", lambda: format_config(Configuration()), TypeError),
    ("parse_window-span", lambda: parse_window("0..x,0..3"), ConfigSyntaxError),
    ("parse_tile-expected", lambda: parse_tile("tile ( (0,0) }"), ConfigSyntaxError),
    ("parse_tile-trailing", lambda: parse_tile("tile { (0,0) } (1,1)"), ConfigSyntaxError),
    ("parse_tile-empty", lambda: parse_tile("tile { }"), ConfigSyntaxError),
    ("parse_poly-sign", lambda: parse_poly("X^(1,0) X^(0,1)"), ConfigSyntaxError),
    ("parse_poly-monomial", lambda: parse_poly("2*"), ConfigSyntaxError),
    ("parse_poly-term", lambda: parse_poly("+ )"), ConfigSyntaxError),
]


@pytest.mark.parametrize("call, error", [pytest.param(call, error, id=name) for name, call, error in CONTRACTS])
def test_a_broken_precondition_raises_its_error(call, error):
    with pytest.raises(error):
        call()


# Every step or direction is read by lattice.checked_step: one row per reader,
# each called with a float, a wrong length and the zero vector.
STEP_READERS = [
    ("difference", lambda v: difference(Pattern(SQUARE, [0] * 4), v)),
    ("integrate", lambda v: integrate(Pattern(SQUARE, [0] * 4), v)),
    ("decompose", lambda v: decompose(BOARD, [v], SQUARE)),
    ("periodicity_test", lambda v: periodicity_test(BOARD, v, SQUARE)),
    ("line_pattern_census", lambda v: line_pattern_census(BOARD, SQUARE, v, SQUARE)),
    ("bound_two_directions-v1", lambda v: bound_two_directions(v, (0, 1), 2, 2)),
    ("bound_two_directions-v2", lambda v: bound_two_directions((0, 1), v, 2, 2)),
    ("line_content", lambda v: line_content(LaurentPolynomial.difference((1, 1)), v)),
]


@pytest.mark.parametrize("step, error", [
    pytest.param((1.0, 0), TypeError, id="float"),
    pytest.param((1, 0, 0), DimensionMismatchError, id="length"),
    pytest.param((0, 0), ZeroVectorError, id="zero"),
])
@pytest.mark.parametrize("call", [pytest.param(call, id=name) for name, call in STEP_READERS])
def test_a_step_reader_checks_type_length_and_zero(call, step, error):
    with pytest.raises(error):
        call(step)
