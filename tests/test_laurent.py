import random
from fractions import Fraction

import pytest

from nivatk.annihilator import find_annihilator
from nivatk.configurations import CosetIndicator, Sum
from nivatk.errors import DimensionMismatchError, ZeroPolynomialError
from nivatk.lattice import Lattice, Window, vec_scale
from nivatk.laurent import (
    LaurentPolynomial as LP,
    _line_split,
    _upoly_exquo,
    _upoly_prem,
    annihilates,
    apply,
    line_content,
    line_factorization,
    newton_polygon_directions,
    normalize_integer_primitive,
)
from nivatk.linalg import integer_primitive
from nivatk.textio import parse_poly
from nivatk.tiling import ClusterTile, tile_polynomial

from draws import binary_irrational, checkerboard, rand_steps, rand_upoly, random_board, random_poly, upoly_mul
from fast_paths import prem_gcd, product_terms, reference_product, upoly_divmod


def test_constructors():
    assert LP.zero(2).is_zero
    assert LP.one(2).terms == {(0, 0): 1}
    assert LP.monomial((1, -2), 3).terms == {(1, -2): Fraction(3)}
    assert LP.monomial((1, 0)).terms == {(1, 0): Fraction(1)}
    assert LP.difference((1, 0)).terms == {(1, 0): Fraction(1), (0, 0): Fraction(-1)}


def test_difference_rejects_non_integral_steps():
    # int() would read (1.7, 0) as (1, 0)
    with pytest.raises(TypeError):
        LP.difference((1.7, 0))


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_difference_of_the_zero_step_is_zero(dim):
    zero = (0,) * dim
    assert LP.difference(zero).is_zero and LP.difference(zero).dim == dim
    assert LP.difference_product(dim, [(1,) + zero[1:], zero]).is_zero
    assert LP.difference_product(dim, [zero, (-2,) * dim]) == LP.zero(dim)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_difference_product_matches_the_loop(dim):
    rng = random.Random(40 + dim)
    cases = [[], [(1,) * dim], [(1,) * dim, (1,) * dim], [(1,) * dim, (-1,) * dim]]
    cases += [rand_steps(rng, dim, rng.randint(1, 5)) for _ in range(40)]
    for steps in cases:
        want = LP.one(dim)
        for v in steps:
            want = want * LP.difference(v)
        got = LP.difference_product(dim, steps)
        assert got.dim == dim
        assert list(got.terms.items()) == list(want.terms.items())
    assert LP.difference_product(dim, []).terms == {(0,) * dim: 1}
    with pytest.raises(DimensionMismatchError):
        LP.difference_product(dim, [(1,) * (dim + 1)])


def test_ring_axioms_on_random_inputs():
    rng = random.Random(3)
    for _ in range(50):
        f, g, h = (random_poly(rng, 2, terms=6, coeff=9) for _ in range(3))
        assert (f + g).terms == (g + f).terms
        assert (f * g).terms == (g * f).terms
        assert ((f + g) * h).terms == (f * h + g * h).terms
        assert (f - f).is_zero


def test_powers_reflected_subtraction_and_lattice_keys():
    f = LP(2, {(1, 0): Fraction(2, 3), (0, -1): 1, (0, 0): -2})
    assert f ** 0 == 1
    assert f ** 3 == f * f * f
    with pytest.raises(ValueError):
        f ** -1
    assert 1 - f == -(f - 1)
    a, b = Lattice([(2, 0), (1, 1)]), Lattice([(1, 1), (3, 1)])
    assert a == b and hash(a) == hash(b)
    assert {a: "a"}[b] == "a" and {b: "b"}[a] == "b"


def test_shift_and_scale():
    x = LP.monomial((1, 0))
    assert x.shift((-2, 5)).terms == {(-1, 5): Fraction(1)}
    assert (x * Fraction(3, 2)).terms == {(1, 0): Fraction(3, 2)}
    with pytest.raises(DimensionMismatchError):
        x.shift((1, 2, 3))


def assert_product(f, g, prod):
    assert product_terms(prod) == reference_product(f, g)


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_x_plus_one_times_x_minus_one_is_x_squared_minus_one(dim):
    x = LP.monomial((1,) + (0,) * (dim - 1))
    assert ((x + 1) * (x - 1)).terms == {(2,) + (0,) * (dim - 1): 1, (0,) * dim: -1}


def test_packed_product_wide_span_and_integral_fractions():
    rng = random.Random(71)
    wide = LP.difference((2_000_000, 0))
    for _ in range(10):
        g = random_poly(rng, 2, terms=6, coord=5, coeff=9)
        assert_product(wide, g, wide * g)
        assert_product(g, wide, g * wide)
        assert_product(wide * g, LP.difference((0, -3)), wide * g * LP.difference((0, -3)))
    half, third = Fraction(1, 2), Fraction(2, 3)
    f = LP(2, {(0, 0): half, (1, 0): Fraction(3, 2), (0, -1): half})
    g = LP(2, {(0, 0): third, (0, 1): Fraction(4, 3)})
    prod = f * g
    assert_product(f, g, prod)
    assert prod.terms[(1, 0)] == 1 and type(prod.terms[(1, 0)]) is int
    assert prod.terms[(0, 0)] == 1 and type(prod.terms[(0, 0)]) is int
    assert prod.terms[(0, 1)] == third


def test_packed_product_zero_and_constant_factors():
    rng = random.Random(73)
    for dim in (1, 2, 3):
        f = random_poly(rng, dim, terms=6, coeff=9) * Fraction(3, 4)
        zero = LP.zero(dim)
        for prod in (zero * f, f * zero, zero * zero, 0 * f, f * 0):
            assert prod.is_zero and prod.dim == dim
        for c in (3, -1, Fraction(4, 3), Fraction(8, 6)):
            want = LP.constant(dim, c)
            assert_product(f, want, f * c)
            assert_product(f, want, c * f)


def test_leading_term_is_graded_lex_max():
    x = LP.monomial((1, 0))
    y = LP.monomial((0, 1))
    assert (x + y).leading_term() == ((1, 0), Fraction(1))
    assert (y * y + x).leading_term() == ((0, 2), Fraction(1))


def test_normalize_integer_primitive():
    g = LP(2, {(0, 0): Fraction(2, 3), (1, 0): Fraction(-4, 3)})
    assert sorted(normalize_integer_primitive(g).terms.items()) == [
        ((0, 0), Fraction(-1)), ((1, 0), Fraction(2))]
    # sign: the graded-lex leading coefficient comes out positive
    g2 = LP(2, {(0, 0): Fraction(2), (1, 0): Fraction(-4)})
    assert normalize_integer_primitive(g2).leading_term()[1] > 0


def test_substitute_power():
    f = LP.difference((1, 0))
    assert f.substitute_power(3).terms == {(3, 0): Fraction(1), (0, 0): Fraction(-1)}


def test_coefficients_mod_drops_multiples():
    f = LP(1, {(0,): Fraction(6), (1,): Fraction(5), (2,): Fraction(-1)})
    assert f.coefficients_mod(3) == {(1,): 2, (2,): 2}


def test_power_substitution_congruence_small():
    # (f mod p)^p and f(X^p) agree coefficientwise mod p
    rng = random.Random(9)
    for p in (2, 3, 5):
        for _ in range(10):
            f = random_poly(rng, 2, terms=4, coord=2, coeff=5)
            if f.is_zero:
                continue
            fp = f
            for _ in range(p - 1):
                fp = fp * f
            assert fp.coefficients_mod(p) == f.substitute_power(p).coefficients_mod(p)


def test_apply_convention_subtracts_exponent():
    # (f*c)(v) = sum_e f_e * c(v - e)
    c = checkerboard()
    f = LP.monomial((1, 0))
    pat = apply(f, c, Window.box((0, 0), (2, 2)))
    for v in Window.box((0, 0), (2, 2)):
        assert pat.values[v] == c.value((v[0] - 1, v[1]))


def test_annihilates_periodic_is_exact():
    c = checkerboard()
    f = LP.difference((1, 1))
    res = annihilates(f, c, Window.box((0, 0), (5, 5)))
    assert res.status == "exact"
    assert bool(res)


def test_annihilates_reports_witness():
    c = checkerboard()
    f = LP.difference((1, 0))
    res = annihilates(f, c, Window.box((0, 0), (5, 5)))
    assert res.status == "no"
    assert res.witness is not None
    assert not bool(res)


def test_annihilates_window_only_for_aperiodic():
    c = binary_irrational()
    f = (LP.difference((1, 0)) * LP.difference((0, 1))
         * LP.difference((1, -1)))
    res = annihilates(f, c, Window.box((0, 0), (40, 40)))
    assert res.status == "window"


@pytest.mark.parametrize("d", (1, 2, 3))
def test_exact_and_windowed_annihilates_agree_on_periodic_inputs(d):
    # the same board as a bare Periodic (checked on one fundamental domain)
    # and as a one-term Sum (checked on a window); any box at least as wide
    # as the pivots holds a full residue system, so the answers must agree
    rng = random.Random(f"annihilates/{d}")
    seen = set()
    for _ in range(40):
        c = random_board(rng, d, values=(0, 2))
        lat = c.lattice
        f = random_poly(rng, d, terms=3, coord=2, coeff=2)
        if rng.random() < 0.5:
            f = f * LP.difference(rng.choice(lat.basis()))
        pivots = [row[i] for i, row in enumerate(lat.basis())]
        lo = tuple(rng.randint(-9, 9) for _ in range(d))
        window = Window.box(lo, tuple(a + p - 1 + rng.randint(0, 2) for a, p in zip(lo, pivots)))
        exact = annihilates(f, c, window)
        windowed = annihilates(f, Sum([(1, c)]), window)
        assert exact.status in ("exact", "no") and windowed.status in ("window", "no")
        assert bool(exact) == bool(windowed), (f, lat, window)
        for res in (exact, windowed):
            if not res:
                assert apply(f, c, Window.box(res.witness, res.witness)).cells != (0,)
        seen.add(bool(exact))
    assert seen == {True, False}


def test_newton_polygon_directions_square():
    f = LP.difference((1, 0)) * LP.difference((0, 1))
    assert newton_polygon_directions(f) == ((0, 1), (1, 0))
    assert newton_polygon_directions(LP.monomial((3, -2), 5)) == ()


def test_line_content_extracts_full_direction_factor():
    f = LP.difference((1, 0)) * LP.difference((0, 1))
    phi = line_content(f, (1, 0))
    assert sorted(phi.terms.items()) == [
        ((0, 0), Fraction(-1)), ((1, 0), Fraction(1))]


def test_line_factorization_two_differences():
    f = LP.difference((1, 0)) * LP.difference((0, 1))
    lf = line_factorization(f)
    assert lf.monomial == (0, 0)
    assert lf.directions == ((0, 1), (1, 0))
    assert lf.remainder.terms == {(0, 0): 1}
    assert (lf.product() - f).is_zero


def test_line_factorization_line_free_remainder():
    h = LP.monomial((1, 0)) + LP.monomial((0, 1)) + LP.one(2)
    lf = line_factorization(h)
    assert lf.factors == ()
    assert (lf.remainder - h).is_zero


def test_line_factorization_strips_monomial_shift():
    f = LP.monomial((-1, 2)) * LP.difference((1, 0))
    lf = line_factorization(f)
    assert lf.monomial == (-1, 2)
    assert lf.directions == ((1, 0),)
    assert (lf.product() - f).is_zero


def test_line_factorization_triple_product():
    f = (LP.difference((1, 0)) * LP.difference((0, 1))
         * LP.difference((1, -1)))
    lf = line_factorization(f)
    assert lf.directions == ((0, 1), (1, -1), (1, 0))
    assert len(lf.factors) == 3
    assert (lf.product() - f).is_zero


def test_line_factorization_random_reconstruction():
    rng = random.Random(17)
    dirs_pool = [(1, 0), (0, 1), (1, -1), (1, 1), (2, 1), (1, -2)]
    for _ in range(40):
        k = rng.randint(1, 3)
        dirs = sorted(rng.sample(dirs_pool, k))
        f = LP.one(2)
        for v in dirs:
            # a nontrivial line polynomial along v
            f = f * (LP.monomial((2 * v[0], 2 * v[1]))
                     + rng.randint(1, 4) * LP.monomial(v)
                     + LP.one(2) * rng.randint(1, 4))
        lf = line_factorization(f)
        assert set(dirs) <= set(lf.directions)
        assert (lf.product() - f).is_zero


def test_line_factorization_rejects_zero():
    with pytest.raises(ZeroPolynomialError):
        line_factorization(LP.zero(2))


def test_coset_line_killed_by_matching_difference():
    c = CosetIndicator((0, 0, 3), [(0, 1, 0)], 1)
    f = LP.difference((0, 1, 0))
    assert annihilates(f, c, Window.box((-3, -3, 0), (3, 3, 5)))


def assert_coefficient_form(f):
    """Every exponent is a tuple of dim ints, and every coefficient is a
    nonzero int or a Fraction that is not integral."""
    for e, a in f.terms.items():
        assert type(e) is tuple and len(e) == f.dim and all(type(x) is int for x in e), e
        assert a and (type(a) is int or (type(a) is Fraction and a.denominator > 1)), (e, a)


def test_coefficient_form_invariant():
    rng = random.Random(23)
    half = Fraction(1, 2)
    for f in (LP.zero(2), LP.one(2), LP.constant(2, Fraction(6, 3)),
              LP.constant(2, half), LP.monomial((1, 2), Fraction(4, 2)),
              LP.monomial((1, 2), half), LP.monomial((0, 1)), LP.difference((2, -1)),
              LP(2, {(0, 0): Fraction(3), (1, 0): Fraction(3, 4), (0, 1): Fraction(8, 4),
                     (1, 1): Fraction(2, 8), (2, 0): True})):
        assert_coefficient_form(f)
    # a float coefficient raises TypeError (test_no_float)
    assert LP(2, {(1, 1): Fraction(2, 8)}).terms == {(1, 1): Fraction(1, 4)}
    for _ in range(60):
        f, g = random_poly(rng, 2, terms=6, coeff=9), random_poly(rng, 2, terms=6, coeff=9)
        if f.is_zero:
            continue
        h = f * Fraction(rng.randint(1, 4), rng.randint(1, 4))
        for out in (f, h, f + g, f - h, h - h * 1, f * h, h * (h * 2),
                    h ** 2, f ** 3, f * half, h * 2, h.shift((1, -1)),
                    h.substitute_power(3), normalize_integer_primitive(h)):
            assert_coefficient_form(out)
        # the operations that build their result without the checked constructor
        for dim in (1, 2, 3):
            k = rng.randint(-4, 4)
            v = tuple(rng.randint(-5, 5) for _ in range(dim))
            for p in (random_poly(rng, dim, terms=6, coeff=9), random_poly(rng, dim, terms=6, coeff=9) * (half * rng.randint(1, 5))):
                for out in (-p, p.shift(v), p.substitute_power(rng.randint(1, 4)),
                            p * k, p * 0, p * 2, p ** rng.randint(0, 3)):
                    assert out.dim == dim
                    assert_coefficient_form(out)
        prod = f * half * LP.difference((1, 1)) * (LP.monomial((2, 0), 3) - 2)
        if prod.is_zero:
            continue
        lf = line_factorization(prod)
        for _, phi in lf.factors:
            assert_coefficient_form(phi)
        assert_coefficient_form(lf.remainder)
        phi = line_content(prod, (1, 1))
        assert_coefficient_form(phi)
    rep = find_annihilator(checkerboard(), Window.box((0, 0), (1, 1)),
                           Window.box((0, 0), (9, 9)), Window.box((0, 0), (9, 9)))
    assert_coefficient_form(rep.g)
    assert_coefficient_form(rep.f)
    assert_coefficient_form(tile_polynomial(ClusterTile([(0, 0), (1, 0), (0, 1)])))
    for text in ("X^(1,0) - 1", "1/2*X^(1,0) - 1/2", "4/2*x + 3/6*y - 2"):
        assert_coefficient_form(parse_poly(text))
    assert parse_poly("1/2*X^(1,0) - 1/2").terms == {(1, 0): half, (0, 0): -half}


def test_line_factorization_high_exponents():
    # two-term and planted products with exponent gcd g > 1, on an axis and skew
    rng = random.Random(29)
    cases = [LP.difference((10**6, 0)), LP.difference((0, 999_999)),
             LP.difference((500_000, -250_000)),
             LP(2, {(3 * 10**5, 2 * 10**5): 2, (0, 0): -7})]
    for _ in range(6):
        g = rng.choice([2, 3, 1000, 99_991])
        v = rng.choice([(1, 0), (0, 1), (1, 1), (2, -1), (3, 5)])
        k = rng.randint(1, 10**6 // (g * max(map(abs, v))))
        line = LP(2, {(g * k * v[0], g * k * v[1]): rng.randint(1, 5),
                      (g * v[0], g * v[1]): rng.randint(-5, 5),
                      (0, 0): rng.choice([-3, -1, 1, 2])})
        cases.append(line * (LP.monomial((1, 1)) + 1) * LP.difference((0, g)))
    for f in cases:
        lf = line_factorization(f)
        assert lf.product() == f
        assert lf.factors


def test_line_split_of_planted_products():
    # phi * q == f, phi is line_content(f, v), and q keeps no content along v
    rng = random.Random(31)
    line_free = LP(2, {(1, 0): 1, (0, 1): 1, (0, 0): 1})
    for v in [(1, 0), (0, 1), (1, 1), (-1, 2), (1, -1), (2, -3), (-3, -1)]:
        assert _line_split(line_free, v) is None
        for i in range(5):
            g = rng.choice([1, 2, 3])
            line = LP(2, {vec_scale(g * k, v): rng.randint(-4, 4) for k in range(rng.randint(1, 3))})
            line = line + LP.monomial(vec_scale(g * rng.randint(3, 4), v), rng.choice([-2, 1, 3]))
            h = line_free.shift((rng.randint(-3, 3), rng.randint(-3, 3)))
            if i == 4:
                # Fractions inside line and h: levels have different denominators
                line = LP(2, {e: Fraction(a, rng.randint(1, 6)) for e, a in line.terms.items()})
                h = LP(2, {e: Fraction(rng.randint(1, 9), rng.randint(1, 6)) for e in h.terms})
            f = line * LP.difference(vec_scale(g, v)) * h * rng.choice([1, 2, Fraction(1, 3)])
            phi, q = _line_split(f, v)
            assert phi * q == f
            assert phi == line_content(f, v)
            assert _line_split(q, v) is None


def spy_fraction_new(monkeypatch):
    """The list of every Fraction constructed from here on."""
    made = []
    new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting_new)
    Fraction(1, 2)
    assert made  # the spy sees Fraction construction
    made.clear()
    return made


class CountedInt(int):
    """An int that counts the products it is a factor of, and stays counted
    through products and differences."""

    products = 0

    def __mul__(self, other):
        CountedInt.products += 1
        return CountedInt(int(self) * other)

    __rmul__ = __mul__

    def __sub__(self, other):
        return CountedInt(int(self) - other)


def test_upoly_prem_by_a_leading_minus_one_never_rescales_the_dividend():
    # s^n - 1 by 1 - s: rescaling a by -1 at each of the n steps would take
    # about n^2 / 2 products in all; the steps only subtract from a's entries
    n = 1000
    a = [CountedInt(x) for x in [-1] + [0] * (n - 1) + [1]]
    CountedInt.products = 0
    assert _upoly_prem(a, [1, -1]) == []
    assert CountedInt.products == 0


@pytest.mark.parametrize("b", [[1, -2], [1, 0, 3]], ids=["1 - 2s", "1 + 3s^2"])
def test_upoly_prem_by_a_leading_two_or_three_rescales_only_the_rewritten_entries(b):
    # about half the steps meet a top coefficient lc does not divide; rescaling
    # all of a at each would take about len(a)^2 / 4 products in all
    rng = random.Random(f"prem/{b}")
    a = [CountedInt(rng.randint(-9, 9)) for _ in range(1000)] + [CountedInt(7)]
    CountedInt.products = 0
    assert _upoly_prem(a, b) == _upoly_prem(list(map(int, a)), b)
    assert 0 < CountedInt.products <= 2 * len(a) * len(b)


def test_upoly_exquo_matches_rational_division():
    # a primitive int factor b times an int cofactor, degree 0..10: the
    # quotient is the rational one, in ints
    rng = random.Random(43)
    inexact = 0
    for _ in range(300):
        b = integer_primitive(rand_upoly(rng, rng.randint(0, 5), False))
        a = upoly_mul(b, rand_upoly(rng, rng.randint(0, 10 - len(b) + 1), False))
        want, r = upoly_divmod(a, b)
        assert r == []
        got = _upoly_exquo(a, b)
        assert got == want and all(type(x) is int for x in got)
        if len(b) > 1:
            # a + 1 leaves the remainder 1
            inexact += 1
            with pytest.raises(ValueError, match="not exact"):
                _upoly_exquo([a[0] + 1] + a[1:], b)
    assert inexact > 100
    # a step that does not divide, and a remainder after exact steps
    for a, b in (([1, 1], [1, 2]), ([1, 1, 1], [1, 1]), ([1], [1, 1])):
        assert upoly_divmod(a, b)[1]
        with pytest.raises(ValueError, match="not exact"):
            _upoly_exquo(a, b)


def test_upoly_gcd_builds_no_fraction_on_integer_input(monkeypatch):
    made = spy_fraction_new(monkeypatch)
    rng = random.Random(41)
    for _ in range(100):
        common = rand_upoly(rng, rng.randint(1, 4), False)
        a, b = (upoly_mul(common, rand_upoly(rng, rng.randint(0, 6), False)) for _ in range(2))
        g = prem_gcd(a, b)
        assert len(g) >= len(common) and all(type(x) is int for x in g)
    f = LP(2, {(0, 0): 2, (1, 2): 3, (2, 1): -1}) * LP.difference((3, 0)) * (LP.monomial((1, 1), 5) - 2)
    lf = line_factorization(f)
    assert lf.directions == ((1, 0), (1, 1)) and lf.product() == f
    assert made == []


def test_rational_line_split_builds_fewer_fractions_than_terms(monkeypatch):
    # three degree-40 lines times a rational factor: each level is scaled to
    # ints once and divided on ints, so the split builds about one Fraction
    # per output coefficient, not several per step of a rational division
    rng = random.Random(7)
    f = LP(2, {(0, 0): Fraction(2, 7), (1, 2): 3, (2, 1): -1})
    for v in ((1, 0), (0, 1), (1, 1)):
        f = f * LP(2, {vec_scale(k, v): rng.choice([-1, 1]) * rng.randint(1, 9) for k in range(41)})
    made = spy_fraction_new(monkeypatch)
    lf = line_factorization(f)
    assert len(made) < len(f.terms) == 5163
    assert lf.directions == ((0, 1), (1, 0), (1, 1))
    assert [len(phi.terms) for _, phi in lf.factors] == [41, 41, 41] and lf.product() == f
