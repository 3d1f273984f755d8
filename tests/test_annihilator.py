import random
from fractions import Fraction

import pytest

import nivatk.linalg
from nivatk.annihilator import (
    build_radical_witness,
    expansion_bound,
    find_annihilator,
    radical_witness_normal_form,
    search_difference_annihilator,
    verify_expansion,
)
from nivatk.configurations import Mechanical, Periodic
from nivatk.errors import (
    NonIntegerCoefficientsError,
    NotPrimeError,
    V0NotInSupportError,
)
from nivatk.lattice import Lattice, Window
from nivatk.laurent import LaurentPolynomial as LP, annihilates, apply
from nivatk.quadratic import QuadraticReal

from draws import binary_irrational, checkerboard, readme_board, sturmian_rows, two_lines_3d


def constant(value=5):
    return Periodic(Lattice([(1, 0), (0, 1)]), {(0, 0): value})


def test_find_annihilator_checkerboard():
    c = checkerboard()
    rep = find_annihilator(c, Window.box((0, 0), (1, 1)),
                           Window.box((0, 0), (7, 7)),
                           Window.box((0, 0), (7, 7)))
    assert rep is not None
    assert dict(rep.g.terms) == {(0, -1): Fraction(1), (0, 0): Fraction(1)}
    assert rep.constant == 1
    assert dict(rep.f.terms) == {
        (0, -1): Fraction(-1), (0, 0): Fraction(-1),
        (1, -1): Fraction(1), (1, 0): Fraction(1)}
    assert annihilates(rep.f, c, Window.box((0, 0), (9, 9)))


def test_find_annihilator_constant():
    c = constant(5)
    rep = find_annihilator(c, Window.box((0, 0), (0, 0)),
                           Window.box((0, 0), (4, 4)),
                           Window.box((0, 0), (4, 4)))
    assert rep is not None
    assert rep.g.terms == {(0, 0): 1}
    assert rep.constant == 5
    assert dict(rep.f.terms) == {(1, 0): Fraction(1), (0, 0): Fraction(-1)}


def test_find_annihilator_reported_identity_holds():
    # (g*c) is the constant the report claims, everywhere on the window
    c = checkerboard()
    rep = find_annihilator(c, Window.box((0, 0), (1, 1)),
                           Window.box((0, 0), (7, 7)),
                           Window.box((0, 0), (7, 7)))
    pat = apply(rep.g, c, Window.box((-5, -5), (5, 5)))
    assert pat.constant_value() == rep.constant


def test_find_annihilator_absent_when_complexity_exceeds_shape():
    c = sturmian_rows()
    shape = Window.box((0, 0), (2, 0))
    sample = Window.box((0, 1), (499, 1))
    rep = find_annihilator(c, shape, sample, sample)
    assert rep is None


def test_find_annihilator_back_substitutes_one_kernel_vector(monkeypatch):
    # two patterns and a 20 x 20 shape leave 399 free columns; the whole
    # kernel basis took one back-substitution for each
    calls = []
    real = nivatk.linalg._kernel_vector

    def counting(*args):
        calls.append(args[2])
        return real(*args)

    monkeypatch.setattr(nivatk.linalg, "_kernel_vector", counting)
    sample = Window.box((0, 0), (9, 9))
    rep = find_annihilator(readme_board(), Window.box((0, 0), (19, 19)), sample, sample)
    assert rep.g.terms == {(0, 0): 1, (0, -1): 1} and rep.constant == 1
    assert len(calls) == 1


def test_expansion_bound():
    x = LP.monomial((1, 0))
    y = LP.monomial((0, 1))
    assert expansion_bound(x - y, 1) == (2, 2)
    assert expansion_bound(2 * x + 3 * LP.one(2), 1) == (5, 120)
    assert expansion_bound(x - y, 0) == (0, 1)


def test_verify_expansion_checkerboard():
    c = checkerboard()
    x = LP.monomial((1, 0))
    y = LP.monomial((0, 1))
    f = x - y  # annihilates the checkerboard
    checks = verify_expansion(f, c, [3, 2], Window.box((0, 0), (9, 9)))
    by_p = {chk.prime: chk for chk in checks}
    assert by_p[3].above_bound and by_p[3].modp_ok
    assert by_p[3].exact is not None and by_p[3].exact.status == "exact"
    assert not by_p[2].above_bound
    assert by_p[2].modp_ok
    assert by_p[2].exact is None


def test_verify_expansion_computes_no_factorial(monkeypatch):
    c = Mechanical((1000, 0), QuadraticReal.sqrt(2))
    f = LP.difference((0, 1))
    window = Window.box((0, 0), (99, 3))
    s = 2 * max(map(abs, c.block(window.lo, window.hi)))
    assert s == 280014
    x_minus_y = LP.monomial((1, 0)) - LP.monomial((0, 1))  # annihilates the checkerboard
    small = expansion_bound(x_minus_y, 1)[0]

    def no_factorial(n):
        raise AssertionError(f"factorial({n}) computed")

    monkeypatch.setattr("nivatk.annihilator.math.factorial", no_factorial)
    checks = verify_expansion(f, c, [2, 3], window)
    assert [chk.threshold for chk in checks] == [s, s]
    assert not any(chk.above_bound for chk in checks)
    board = verify_expansion(x_minus_y, checkerboard(), [3], Window.box((0, 0), (5, 5)))
    assert board[0].threshold == small


def test_verify_expansion_rejects_composites_and_fractions():
    c = checkerboard()
    x = LP.monomial((1, 0))
    y = LP.monomial((0, 1))
    with pytest.raises(NotPrimeError):
        verify_expansion(x - y, c, [4], Window.box((0, 0), (5, 5)))
    halved = (x - y) * Fraction(1, 2)  # still annihilates
    with pytest.raises(NonIntegerCoefficientsError):
        verify_expansion(halved, c, [3], Window.box((0, 0), (5, 5)))


def test_radical_witness_construction():
    x = LP.monomial((1, 0))
    y = LP.monomial((0, 1))
    w = build_radical_witness(x - y, 2, (0, 1))
    assert dict(w.terms) == {(3, 1): Fraction(1), (1, 3): Fraction(-1)}


def direct_radical_witness(f, r, v0):
    """X^(1,...,1) * prod over v in the support, v != v0, of X^(r*v) - X^(r*v0)."""
    g = LP.monomial((1,) * f.dim)
    rv0 = tuple(r * x for x in v0)
    for v in f.support():
        if v != v0:
            g = g * LP(f.dim, {tuple(r * x for x in v): 1, rv0: -1})
    return g


def test_radical_witness_normal_form_identity():
    x = LP.monomial((1, 0))
    y = LP.monomial((0, 1))
    mono, vectors = radical_witness_normal_form(x - y, 2, (0, 1))
    assert mono == (1, 3)
    assert vectors == [(2, -2)]
    assert build_radical_witness(x - y, 2, (0, 1)) == direct_radical_witness(x - y, 2, (0, 1))
    rng = random.Random(11)
    for dim in (1, 2, 3):
        for _ in range(15):
            f = LP(dim, {tuple(rng.randint(-2, 2) for _ in range(dim)): rng.randint(1, 3)
                         for _ in range(rng.randint(1, 4))})
            r = rng.randint(1, 3)
            for v0 in f.support():
                want = direct_radical_witness(f, r, v0)
                assert build_radical_witness(f, r, v0) == want
                mono, vectors = radical_witness_normal_form(f, r, v0)
                assert want == LP.difference_product(dim, vectors).shift(mono)


def test_radical_witness_monomial_input():
    f = LP(2, {(3, 1): Fraction(7)})
    w = build_radical_witness(f, 4, (3, 1))
    assert dict(w.terms) == {(1, 1): Fraction(1)}


def test_radical_witness_requires_support_point():
    x = LP.monomial((1, 0))
    with pytest.raises(V0NotInSupportError):
        build_radical_witness(x, 2, (5, 5))


def test_search_checkerboard_single_step():
    c = checkerboard()
    steps = search_difference_annihilator(c, 2, 1, Window.box((0, 0), (11, 11)))
    assert steps == [(1, -1)]


def test_search_two_lines():
    c = two_lines_3d()
    steps = search_difference_annihilator(
        c, 2, 1, Window.box((-6, -6, -6), (6, 6, 6)))
    assert steps == [(0, 1, 0), (1, 0, 0)]


def test_search_binary_irrational_needs_three_steps():
    c = binary_irrational()
    steps = search_difference_annihilator(c, 3, 1, Window.box((0, 0), (59, 59)))
    assert steps == [(0, 1), (1, -1), (1, 0)]


def test_search_returns_none_for_sturmian_rows():
    c = sturmian_rows()
    steps = search_difference_annihilator(c, 1, 1, Window.box((0, 0), (49, 49)))
    assert steps is None


def test_search_skips_a_chain_that_fails_the_exact_check():
    lat = Lattice([(3, 0), (0, 3)])
    ones = {(0, 1), (0, 2), (2, 1)}
    c = Periodic(lat, {r: int(r in ones) for r in lat.residues()})
    window = Window.box((0, 0), (4, 5))
    # the first chain in shortest-then-lex order vanishes on the window only
    local = LP.difference((2, -1)) * LP.difference((2, 0))
    assert apply(local, c, Window.box((4, 0), (4, 4))).is_zero()
    assert not annihilates(local, c, window)
    steps = search_difference_annihilator(c, 3, 2, window)
    assert steps == [(0, 1), (1, -2), (1, 0)]
    f = LP.difference((0, 1)) * LP.difference((1, -2)) * LP.difference((1, 0))
    assert annihilates(f, c, window).status == "exact"


def test_search_result_is_a_certificate():
    c = binary_irrational()
    steps = search_difference_annihilator(c, 3, 1, Window.box((0, 0), (59, 59)))
    f = LP.one(2)
    for v in steps:
        f = f * LP.difference(v)
    assert annihilates(f, c, Window.box((0, 0), (40, 40)))
