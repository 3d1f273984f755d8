import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

from nivatk.cli import _strip_comments
from nivatk.configurations import CosetIndicator, Mechanical, Periodic, Sum
from nivatk.errors import ConfigSyntaxError, DimensionMismatchError, NonSquarefreeRadicandError
from nivatk.laurent import LaurentPolynomial as LP
from nivatk.quadratic import QuadraticReal
from nivatk.textio import (
    format_config,
    format_poly,
    format_tile,
    parse_config,
    parse_int,
    parse_poly,
    parse_range,
    parse_tile,
    parse_vectors,
    parse_window,
)
from nivatk.tiling import ClusterTile

from draws import VARIANTS, random_box, random_config

CANONICAL_CONFIGS = [
    "periodic lattice{(2,0) (0,2)} values{(0,0):0 (0,1):1 (1,0):1 (1,1):0}",
    "coset offset(0,0,0) gens{(1,0,0)} value 1",
    "mechanical weights(1,1) alpha sqrt(2)",
    "finite dim 2 cells{(0,0):1 (2,3):-4}",
    ("sum { +mechanical weights(1,1) alpha sqrt(2) "
     "-mechanical weights(1,0) alpha sqrt(2) "
     "-mechanical weights(0,1) alpha sqrt(2) }"),
    "valuemap map{0:5 1:7} default 0 of coset offset(0,0) gens{(1,0)} value 1",
    "sum { +2*finite dim 1 cells{(0):3} -coset offset(5) gens{(2)} value 1 }",
    "mechanical weights(1,0) alpha 3/7",
    "mechanical weights(1,0) alpha quad(1,1,5,2)",
]


@pytest.mark.parametrize("text", CANONICAL_CONFIGS)
def test_config_round_trip(text):
    assert format_config(parse_config(text)) == text


def test_parse_checkerboard_values():
    c = parse_config(CANONICAL_CONFIGS[0])
    assert isinstance(c, Periodic)
    assert [[c.value((i, j)) for j in range(4)] for i in range(2)] == [
        [0, 1, 0, 1], [1, 0, 1, 0]]


def test_parse_coset_line():
    c = parse_config("coset offset(0,0,0) gens{(1,0,0)} value 1")
    assert isinstance(c, CosetIndicator)
    assert c.value((7, 0, 0)) == 1
    assert c.value((7, 1, 0)) == 0


def test_parse_accepts_typeset_minus():
    text = ("sum { +mechanical weights(1,1) alpha sqrt(2) "
            "−mechanical weights(1,0) alpha sqrt(2) "
            "−mechanical weights(0,1) alpha sqrt(2) }")
    c = parse_config(text)
    assert isinstance(c, Sum)
    values = {c.value((i, j)) for i in range(20) for j in range(20)}
    assert values == {0, 1}


def test_parse_mechanical_matches_direct_construction():
    c = parse_config("mechanical weights(1,1) alpha sqrt(2)")
    d = Mechanical((1, 1), QuadraticReal.sqrt(2))
    assert all(c.value((i, j)) == d.value((i, j))
               for i in range(6) for j in range(6))


def test_zero_radicand_alpha_is_rational():
    # b*sqrt(0) is 0, so quad(1,5,0,2) is the rational 1/2
    c = parse_config("mechanical weights(1,0) alpha quad(1,5,0,2)")
    half = parse_config("mechanical weights(1,0) alpha 1/2").alpha
    assert c.alpha == half and hash(c.alpha) == hash(half)
    assert (c.alpha.a, c.alpha.b, c.alpha.q) == (1, 0, 2)
    assert format_config(c) == "mechanical weights(1,0) alpha 1/2"
    assert QuadraticReal(3, -2, 0, 6) == QuadraticReal.from_fraction(Fraction(1, 2))


def test_parse_periodic_noncanonical_generators_normalize():
    c = parse_config("periodic lattice{(0,2) (2,0)} values{(1,1):0 (0,0):0 (1,0):1 (0,1):1}")
    assert format_config(c) == CANONICAL_CONFIGS[0]


def test_whitespace_and_newlines_are_flexible():
    text = """periodic
        lattice{ (2,0)
                 (0,2) }
        values{ (0,0):0 (0,1):1
                (1,0):1 (1,1):0 }"""
    assert format_config(parse_config(text)) == CANONICAL_CONFIGS[0]


def test_rejected_radicands():
    with pytest.raises(NonSquarefreeRadicandError):
        parse_config("mechanical weights(1,1) alpha sqrt(8)")
    with pytest.raises(NonSquarefreeRadicandError):
        parse_config("mechanical weights(1,1) alpha sqrt(-2)")


def test_syntax_errors_carry_position():
    with pytest.raises(ConfigSyntaxError) as exc:
        parse_config("periodic lattice{(2,0)} values{")
    assert exc.value.position == (1, 31)
    with pytest.raises(ConfigSyntaxError) as exc:
        parse_config("blah x")
    assert exc.value.position == (1, 1)
    with pytest.raises(ConfigSyntaxError) as exc:
        parse_config("periodic\nlattice{(2,0) %}")
    assert exc.value.position == (2, 15)


# One row per error site of textio that parser input reaches: (parser, text,
# error type, str(exc), position).  The CLI prints these strings on stderr.
ERRORS = [
    (parse_config, "mechanical weights(1,1) alpha sqrt(2)  % not a comment here", ConfigSyntaxError,
     "unexpected character '%' (near token (1, 40))", (1, 40)),
    (parse_config, "periodic\n\tlattice{(2,0) %}", ConfigSyntaxError,
     "unexpected character '%' (near token (2, 16))", (2, 16)),
    (parse_config, "periodic lattice{(2,0)} values{", ConfigSyntaxError,
     "configuration: expected '(', found end of input (near token (1, 31))", (1, 31)),
    (parse_config, "coset offset(0,0) gens{(1,0)} value\n\t x", ConfigSyntaxError,
     "configuration: expected 'int', found 'x' (near token (2, 3))", (2, 3)),
    (parse_tile, "tile {", ConfigSyntaxError,
     "tile: expected '(', found end of input (near token (1, 6))", (1, 6)),
    (parse_tile, "tile { (0,0) } (1,1)", ConfigSyntaxError,
     "tile: trailing input from '(' (near token (1, 16))", (1, 16)),
    (parse_poly, "1/0", ConfigSyntaxError,
     "polynomial: zero denominator (near token (1, 3))", (1, 3)),
    (parse_config, "mechanical weights(1,1) alpha quad(1,1,2,0)", ConfigSyntaxError,
     "configuration: zero denominator (near token (1, 42))", (1, 42)),
    (parse_config, "mechanical weights(1,1) alpha sqrt(8)", NonSquarefreeRadicandError,
     "radicand 8 is not squarefree", None),
    (parse_config, "mechanical weights(1,1) alpha sqrt(1000000000000000001)", ConfigSyntaxError,
     "configuration: radicand 1000000000000000001 is above 1000000000000000000 (near token (1, 36))",
     (1, 36)),
    (parse_config, "mechanical weights(1,1) alpha quad(0, 1, 1000000000000000001, 1)", ConfigSyntaxError,
     "configuration: radicand 1000000000000000001 is above 1000000000000000000 (near token (1, 42))",
     (1, 42)),
    (parse_config, "finite cells{}", ConfigSyntaxError,
     "configuration: empty finite descriptor needs an explicit dim (near token (1, 14))", (1, 14)),
    (parse_config, "sum { +2*blah }", ConfigSyntaxError,
     "configuration: unknown descriptor 'blah' (near token (1, 10))", (1, 10)),
    (parse_poly, "x + 2*z", ConfigSyntaxError,
     "polynomial: unknown symbol 'z' (near token (1, 7))", (1, 7)),
    (parse_poly, "X^(1,0) X^(0,1)", ConfigSyntaxError,
     "polynomial: expected '+' or '-', found 'X' (near token (1, 9))", (1, 9)),
    (parse_poly, "x -", ConfigSyntaxError,
     "polynomial: dangling sign (near token (1, 3))", (1, 3)),
    (parse_poly, "2*", ConfigSyntaxError,
     "polynomial: expected a monomial after '*' (near token (1, 2))", (1, 2)),
    (parse_poly, "+ )", ConfigSyntaxError,
     "polynomial: expected a term, found ')' (near token (1, 3))", (1, 3)),
    (parse_poly, " \n\t ", ConfigSyntaxError,
     "polynomial: empty polynomial text (near token (1, 1))", (1, 1)),
    (parse_poly, "X^(1,0) + X^(1,0,0)", ConfigSyntaxError,
     "polynomial: mixed exponent dimensions (near token (1, 11))", (1, 11)),
    (parse_tile, "tile { }", ConfigSyntaxError,
     "tile: a tile needs at least one cell (near token (1, 8))", (1, 8)),
    (parse_window, "0..x,0..3", ConfigSyntaxError,
     "window: expected 'int', found 'x' (near token (1, 4))", (1, 4)),
    (parse_window, "3xy", ConfigSyntaxError,
     "window: trailing input from 'xy' (near token (1, 2))", (1, 2)),
    (parse_window, "0x4", ConfigSyntaxError,
     "window: extents must be positive (near token (1, 1))", (1, 1)),
    (parse_window, "0..3,0", ConfigSyntaxError,
     "window: expected '..', found end of input (near token (1, 6))", (1, 6)),
    (parse_vectors, " ; ", ConfigSyntaxError,
     "vectors: no vectors given (near token (1, 2))", (1, 2)),
    (parse_range, "2..x", ConfigSyntaxError,
     "range: expected 'int', found 'x' (near token (1, 4))", (1, 4)),
    (parse_range, "2..3..4", ConfigSyntaxError,
     "range: trailing input from '..' (near token (1, 5))", (1, 5)),
    (parse_range, "2..", ConfigSyntaxError,
     "range: expected 'int', found end of input (near token (1, 2))", (1, 2)),
    (parse_range, "", ConfigSyntaxError,
     "range: expected 'int', found end of input (near token (1, 1))", (1, 1)),
    # an int is ASCII digits only: a superscript or Arabic-Indic digit is no token
    (parse_config, "finite dim 2 cells{(²,0):1}", ConfigSyntaxError,
     "unexpected character '²' (near token (1, 21))", (1, 21)),
    (parse_config, "finite dim 2 cells{(٣,0):1}", ConfigSyntaxError,
     "unexpected character '٣' (near token (1, 21))", (1, 21)),
    (parse_poly, "X^(²,0) - 1", ConfigSyntaxError,
     "unexpected character '²' (near token (1, 4))", (1, 4)),
    (parse_poly, "X^(٣,0) - 1", ConfigSyntaxError,
     "unexpected character '٣' (near token (1, 4))", (1, 4)),
    (parse_tile, "tile { (0,²) }", ConfigSyntaxError,
     "unexpected character '²' (near token (1, 11))", (1, 11)),
    (parse_tile, "tile { (٣,0) }", ConfigSyntaxError,
     "unexpected character '٣' (near token (1, 9))", (1, 9)),
    (parse_vectors, "(²,1)", ConfigSyntaxError,
     "unexpected character '²' (near token (1, 2))", (1, 2)),
    (parse_vectors, "(1,0);(٣,1)", ConfigSyntaxError,
     "unexpected character '٣' (near token (1, 8))", (1, 8)),
    (parse_window, "2x²", ConfigSyntaxError,
     "unexpected character '²' (near token (1, 3))", (1, 3)),
    (parse_window, "30٣30", ConfigSyntaxError,
     "unexpected character '٣' (near token (1, 3))", (1, 3)),
    (parse_range, "2..²", ConfigSyntaxError,
     "unexpected character '²' (near token (1, 4))", (1, 4)),
    (parse_range, "٣", ConfigSyntaxError,
     "unexpected character '٣' (near token (1, 1))", (1, 1)),
    # an exponent of the wrong length fails at its own token, a line down too
    (parse_poly, "X^(1,0)\n + X^(1,0,0)", ConfigSyntaxError,
     "polynomial: mixed exponent dimensions (near token (2, 4))", (2, 4)),
    (parse_vectors, "(1,0);(1;0)", ConfigSyntaxError,
     "vectors: expected ')', found ';' (near token (1, 9))", (1, 9)),
    (parse_vectors, "", ConfigSyntaxError,
     "vectors: no vectors given (near token (1, 1))", (1, 1)),
    (parse_int, "٣", ConfigSyntaxError,
     "unexpected character '٣' (near token (1, 1))", (1, 1)),
    (parse_int, "1_0", ConfigSyntaxError,
     "integer: trailing input from '_' (near token (1, 2))", (1, 2)),
    (parse_int, "4..5", ConfigSyntaxError,
     "integer: trailing input from '..' (near token (1, 2))", (1, 2)),
]


@pytest.mark.parametrize("parse, text, error, message, position", ERRORS,
                         ids=[f"{row[0].__name__}-{k}" for k, row in enumerate(ERRORS)])
def test_parser_errors_keep_their_message_and_position(parse, text, error, message, position):
    with pytest.raises(error) as exc:
        parse(text)
    assert (str(exc.value), getattr(exc.value, "position", None)) == (message, position)


def test_every_readme_descriptor_is_canonical_once_the_cli_cuts_its_comments():
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("### Text formats", 1)[1].split("```", 2)[1]
    lines = [line.strip() for line in _strip_comments(block).splitlines() if line.strip()]
    assert len(lines) == 7
    for line in lines:
        assert format_config(parse_config(line)) == line


def test_empty_finite_needs_dim():
    with pytest.raises(ConfigSyntaxError):
        parse_config("finite cells{}")
    c = parse_config("finite dim 2 cells{}")
    assert c.value((0, 0)) == 0


def test_zero_denominators_fail_at_the_denominator_token():
    for parse, text, position in [
        (parse_poly, "1/0", (1, 3)),
        (parse_poly, "X^(1,0) - 1/-0", (1, 13)),
        (parse_config, "mechanical weights(1,1) alpha 1/0", (1, 33)),
        (parse_config, "mechanical weights(1,1) alpha quad(1,1,2,0)", (1, 42)),
    ]:
        with pytest.raises(ConfigSyntaxError, match="zero denominator") as exc:
            parse(text)
        assert exc.value.position == position, text


def test_dimension_below_one_is_rejected():
    for text in ("finite dim 0 cells{}", "finite dim -1 cells{}"):
        with pytest.raises(DimensionMismatchError):
            parse_config(text)
    with pytest.raises(DimensionMismatchError):
        Mechanical((), QuadraticReal.sqrt(2))


def test_poly_sugar_and_round_trip():
    assert dict(parse_poly("x - y").terms) == dict(parse_poly("X^(1,0) - 1*X^(0,1)").terms)
    s = format_poly(parse_poly("3/2*X^(2,0) + x - 4"))
    assert s == "3/2*X^(2,0) + X^(1,0) - 4"
    assert format_poly(parse_poly(s)) == s


def test_poly_ordering_and_signs():
    assert format_poly(parse_poly("-X^(1,1) + 2")) == "-X^(1,1) + 2"
    f = parse_poly("X^(1,-1) + X^(-2,0)")
    assert format_poly(f) == "X^(1,-1) + X^(-2,0)"
    assert format_poly(parse_poly(format_poly(f))) == format_poly(f)


def test_poly_zero_and_constants():
    assert format_poly(LP.zero(2)) == "0"
    c = parse_poly("7", dim=2)
    assert dict(c.terms) == {(0, 0): 7}
    assert format_poly(c) == "7"
    # with no exponent to read the dimension from, a constant is 2-D
    assert parse_poly("3") == LP.constant(2, 3)


def test_poly_laurent_exponents():
    f = parse_poly("X^(0,-1) + 1")
    assert sorted(f.terms) == [(-0, -1), (0, 0)]


def poly_terms(n):
    """n signed terms whose exponents repeat every 0.35 * n terms, so like terms merge and some cancel."""
    return [(("-" if i % 2 else "+"), (f"{i % 3 + 1}/2" if i % 5 == 0 else str(i % 3 + 1)),
             (i % (n * 7 // 20), i % 7)) for i in range(n)]


def poly_text(terms):
    return " ".join(f"{s} {a}*X^({e[0]},{e[1]})" for s, a, e in terms)


def parse_seconds(text):
    """The fastest of three parses, so that one descheduled run does not count."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        parse_poly(text)
        times.append(time.perf_counter() - start)
    return min(times)


def test_parse_poly_is_linear_in_the_term_count():
    terms = poly_terms(4000)
    text = poly_text(terms)
    got = parse_poly(text)
    # 10x the terms may cost 10x the time, with room for noise; a quadratic parse costs 100x
    assert parse_seconds(text) < 30 * parse_seconds(poly_text(poly_terms(400)))

    def total(lo, hi):
        # the monomials summed term by term, pairwise so the reference stays fast
        if hi - lo == 1:
            s, a, e = terms[lo]
            return LP.monomial(e, (-1 if s == "-" else 1) * Fraction(a))
        mid = (lo + hi) // 2
        return total(lo, mid) + total(mid, hi)

    assert got == total(0, len(terms))
    assert format_poly(parse_poly(format_poly(got))) == format_poly(got)


@pytest.mark.parametrize("d", (1, 2, 3))
def test_random_config_round_trip(d):
    rng = random.Random(f"round-trip/{d}")
    for k in range(60):
        c = random_config(rng, d, VARIANTS[k % len(VARIANTS)])
        text = format_config(c)
        back = parse_config(text)
        assert format_config(back) == text
        lo, hi = random_box(rng, d)
        assert back.block(lo, hi) == c.block(lo, hi), text


def test_poly_errors():
    with pytest.raises(ConfigSyntaxError):
        parse_poly("")
    with pytest.raises(ConfigSyntaxError):
        parse_poly("x +")
    with pytest.raises(ConfigSyntaxError):
        parse_poly("z + 1")
    with pytest.raises(ConfigSyntaxError):
        parse_poly("X^(1,0) + X^(1,0,0)")


def test_tile_round_trip_and_canonicalization():
    t = parse_tile("tile { (0,0) (1,0) (0,1) }")
    assert isinstance(t, ClusterTile)
    out = format_tile(t)
    assert out == "tile { (0,0) (0,1) (1,0) }"
    assert format_tile(parse_tile(out)) == out
    assert format_tile(parse_tile("tile { (5,7) (6,7) }")) == "tile { (0,0) (1,0) }"


def test_window_specs():
    assert parse_window("3x4").bounds() == ((0, 0), (2, 3))
    assert parse_window("3x3x3").bounds() == ((0, 0, 0), (2, 2, 2))
    assert parse_window("-2..2,0..5").bounds() == ((-2, 0), (2, 5))
    assert parse_window("500", dim=2).bounds() == ((0, 0), (499, 499))
    assert parse_window("−2..2,0..5").bounds() == ((-2, 0), (2, 5))
    with pytest.raises(ConfigSyntaxError):
        parse_window("0x4")
    with pytest.raises(ConfigSyntaxError):
        parse_window("axb")


def test_range_specs():
    assert parse_range("2..8") == range(2, 9)
    assert parse_range("3") == range(3, 4)
    assert parse_range("−1..1") == range(-1, 2)
    assert parse_range(" 5 .. 4 ") == range(5, 5)


def test_poly_exponents_and_sugar_meet_the_given_dim():
    for text, position in (("X^(1,0,0) - y", (1, 13)), ("x - 1", (1, 1)), ("2*X^(1,1)", (1, 3))):
        with pytest.raises(ConfigSyntaxError, match="mixed exponent dimensions") as exc:
            parse_poly(text, dim=3)
        assert exc.value.position == position, text


def test_integer_text():
    assert [parse_int(t) for t in (" 4", "+5", "−4", "-4", "0")] == [4, 5, -4, -4, 0]


def test_vector_lists():
    assert parse_vectors("(1,0) (0,1)") == [(1, 0), (0, 1)]
    assert parse_vectors("(1,0);(0,-1)") == [(1, 0), (0, -1)]
    assert parse_vectors(";(1,0) ;; (0,-1);") == [(1, 0), (0, -1)]
    assert parse_vectors("(1,0,−3)") == [(1, 0, -3)]
    with pytest.raises(ConfigSyntaxError):
        parse_vectors("  ")
