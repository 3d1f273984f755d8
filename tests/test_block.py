"""Differential tests of the block evaluator.

Configuration.block(lo, hi) is the fast path every value table, apply and
pattern reads from; value(v) is the reference.  The rows of fast_paths.py
compare seeded descriptors of all six variants cell by cell against
value() on boxes with negative coordinates and extent-1 axes in
dimensions 1 to 3.  Here Mechanical floors are also checked
against an integer-only oracle at extreme weights and coordinates, and the
one table of floors that a Sum's Mechanical terms of one alpha share
against value() and against the terms' own blocks.
"""

import itertools
import random
from fractions import Fraction

import pytest

from nivatk.configurations import (
    FiniteSupport,
    Mechanical,
    Sum,
    combine,
    extract_pattern,
    window_values,
)
from nivatk.errors import DimensionMismatchError, EmptyShapeError
from nivatk.lattice import Window
from nivatk.laurent import LaurentPolynomial, apply
from nivatk.quadratic import QuadraticReal

from draws import (
    LEAVES,
    VARIANTS,
    binary_irrational,
    random_box,
    random_config,
    random_window,
    sturmian_rows,
)
from fast_paths import apply_reference, block_reference


class CountingCells(dict):
    """A support table that counts its get() calls and the items it yields."""

    reads = 0

    def get(self, *args):
        self.reads += 1
        return super().get(*args)

    def items(self):
        for item in super().items():
            self.reads += 1
            yield item


def test_finite_support_block_reads_the_box_or_the_support_whichever_is_smaller():
    rng = random.Random(5)
    c = FiniteSupport({(rng.randrange(20000), rng.randrange(20000)): rng.randint(1, 3)
                       for _ in range(1000)})
    c.assoc = CountingCells(c.assoc)
    for u in itertools.islice(c.assoc, 5):
        hi = (u[0] + 19, u[1] + 19)
        want, c.assoc.reads = block_reference(c, u, hi), 0
        assert c.block(u, hi) == want
        assert c.assoc.reads <= 400
    c = FiniteSupport({(3, 5): 1, (299, 0): 2})
    c.assoc = CountingCells(c.assoc)
    assert c.block((0, 0), (299, 299)).count(0) == 300 * 300 - 2
    assert c.assoc.reads == 2


@pytest.mark.parametrize("variant", VARIANTS)
def test_block_rejects_wrong_dimension_and_empty_boxes(variant):
    c = random_config(random.Random(variant), 2, variant)
    with pytest.raises(DimensionMismatchError):
        c.block((0, 0, 0), (1, 1, 1))
    with pytest.raises(EmptyShapeError):
        c.block((0, 2), (3, 1))


def test_window_values_and_extract_pattern_follow_window_order():
    rng = random.Random(11)
    for d in (1, 2, 3):
        for variant in VARIANTS:
            c = random_config(rng, d, variant)
            pts = [tuple(rng.randint(-8, 8) for _ in range(d)) for _ in range(rng.randint(1, 9))]
            far = [tuple(rng.randint(-500, 500) for _ in range(d)) for _ in range(3)]
            single = Window.from_points([tuple(rng.randint(-8, 8) for _ in range(d))])
            for window in (Window.box(*random_box(rng, d)), Window.from_points(pts),
                           Window.from_points(far), random_window(rng, d, 8), single):
                want = [c.value(p) for p in window]
                assert window_values(c, window) == want
                anchor = tuple(rng.randint(-3, 3) for _ in range(d))
                pat = extract_pattern(c, anchor, window)
                assert pat.cells == tuple(c.value(p) for p in window.shift(anchor))


# --- apply --------------------------------------------------------------------


def test_apply_zero_polynomial():
    c = Mechanical((1, 2), QuadraticReal.sqrt(3))
    window = Window.box((-2, -2), (2, 2))
    assert apply(LaurentPolynomial(2, {}), c, window).values == {u: 0 for u in window}


def test_window_values_cost_follows_the_cells_not_their_bounding_box(floor_batches):
    # the bounding box of these 3 cells holds about 1.4 million
    c = binary_irrational()
    f = LaurentPolynomial.difference((1, 0)) * LaurentPolynomial.difference((0, 1))
    window = Window.from_points([(0, 0), (1200, 3), (5, 1200)])
    pat = apply(f, c, window)
    # each cell reads its 2 x 2 cover, and each of the 3 atoms floors at most those 4 cells
    assert sum(floor_batches) <= 3 * 4 * 3
    assert pat.values == apply_reference(f, c, window)


# --- exact Mechanical floors --------------------------------------------------


def floor_oracle(A, B, n, q):
    """floor((A + B*sqrt(n)) / q), q > 0, by bisection on exact square comparisons."""

    def at_most(t):
        # t <= B*sqrt(n), deciding signs first and comparing squares after
        if B >= 0:
            return t <= 0 or t * t <= B * B * n
        return t < 0 and t * t >= B * B * n

    # the largest k with k*q - A <= B*sqrt(n)
    lo, hi = -(abs(A) + abs(B) * (n + 1)) // q - 2, (abs(A) + abs(B) * (n + 1)) // q + 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if at_most(mid * q - A):
            lo = mid
        else:
            hi = mid
    return lo


def mechanical_oracle(c, v):
    m = sum(w * x for w, x in zip(c.weights, v))
    a = c.alpha
    return floor_oracle(m * a.a, m * a.b, a.n, a.q)


@pytest.mark.parametrize("weights", [(10**6, 1), (0, 0), (-3, 7), (1, -10**6), (5, 0)])
@pytest.mark.parametrize("corner", [(0, 0), (-7, 4), (10**15, -10**15), (-10**15 - 3, 10**15)])
def test_mechanical_block_exact_at_extremes(weights, corner):
    for alpha in (QuadraticReal.sqrt(2), QuadraticReal(-3, 2, 7, 5),
                  QuadraticReal.from_fraction(Fraction(-7, 3))):
        c = Mechanical(weights, alpha)
        lo, hi = corner, (corner[0] + 6, corner[1] + 8)
        want = [mechanical_oracle(c, p) for p in Window.box(lo, hi)]
        assert c.block(lo, hi) == want
        assert block_reference(c, lo, hi) == want


def test_mechanical_block_cost_follows_the_box_not_the_range_of_m(floor_batches):
    # <w, v> spans about 5 * 10**7 values here but takes only 2500 of them
    c = Mechanical((10**6, 1), QuadraticReal.sqrt(2))
    got = c.block((0, 0), (49, 49))
    assert floor_batches == [2500]
    assert len(got) == 2500
    assert got[::97] == [mechanical_oracle(c, p) for p in list(Window.box((0, 0), (49, 49)))[::97]]


def test_quadratic_floor_matches_oracle_up_to_1e30():
    rng = random.Random(30)
    for _ in range(400):
        n = rng.choice((0, 2, 3, 5, 6, 7, 10, 11, 13, 9973))
        a, b, q = rng.randint(-50, 50), rng.randint(-50, 50), rng.randint(1, 40)
        m = rng.choice((1, -1)) * rng.randint(0, 10 ** rng.randint(0, 30))
        alpha = QuadraticReal(a, b, n, q)
        want = floor_oracle(m * a, m * b if n else 0, n, q)
        assert Mechanical((m,), alpha).value((1,)) == want, (a, b, n, q, m)
        assert alpha.floor_multiples([m]) == [want], (a, b, n, q, m)
        ms = sorted((m, -m))
        assert alpha.floor_multiples(ms) == [Mechanical((1,), alpha).value((x,)) for x in ms]


# --- batched floors and Mechanical row slices ----------------------------------

ALPHAS = (
    QuadraticReal.sqrt(2),
    QuadraticReal(1, 1, 5, 2),
    QuadraticReal(-3, 2, 7, 5),
    QuadraticReal(3, -2, 7, 5),
    QuadraticReal(0, -1, 3, 1),
    QuadraticReal.from_fraction(Fraction(-7, 3)),
    QuadraticReal.from_fraction(Fraction(5)),
)


@pytest.mark.parametrize("alpha", ALPHAS, ids=repr)
def test_floor_multiples_matches_oracle_and_floor(alpha):
    big = 10**15
    for ms in (range(-40, 41), range(-9, 30, 3), range(-big - 6, -big + 6),
               range(big - 6, big + 6), [-big, -big + 1, -3, 0, 0, 7, big - 1, big], [0], []):
        got = alpha.floor_multiples(ms)
        assert got == [Mechanical((1,), alpha).value((m,)) for m in ms], (alpha, ms)
        assert got == [floor_oracle(m * alpha.a, m * alpha.b, alpha.n, alpha.q) for m in ms]


@pytest.fixture
def floor_batches(monkeypatch):
    """The length of every batch Mechanical.block asks QuadraticReal to floor."""
    sizes = []
    batch = QuadraticReal.floor_multiples

    def recording(self, ms):
        sizes.append(len(ms))
        return batch(self, ms)

    monkeypatch.setattr(QuadraticReal, "floor_multiples", recording)
    return sizes


BOXES_2D = [((-5, 3), (4, 3)), ((2, -7), (2, 6)), ((-3, -4), (5, 2)), ((7, 7), (7, 7)),
            ((-10**15, 10**15 - 4), (-10**15 + 3, 10**15))]


@pytest.mark.parametrize("weights", [(1, 1), (1, 0), (0, 1), (2, 4), (6, -9), (3, -1),
                                     (-2, -5), (4, 0), (0, -3), (0, 0)])
def test_mechanical_block_rows_match_value(weights, floor_batches):
    for alpha in (QuadraticReal.sqrt(2), QuadraticReal(3, -2, 7, 5),
                  QuadraticReal.from_fraction(Fraction(-7, 3))):
        c = Mechanical(weights, alpha)
        for lo, hi in BOXES_2D:
            floor_batches.clear()
            assert c.block(lo, hi) == block_reference(c, lo, hi), (weights, alpha, lo, hi)
            assert max(floor_batches) <= len(Window.box(lo, hi))


@pytest.mark.parametrize("weights", [(2, 4, 6), (1, -1, 0), (3, 0, -2), (0, 5, 1), (-4, 6, -10),
                                     (10**6, 3, 0)])
def test_mechanical_block_rows_match_value_in_3d(weights, floor_batches):
    c = Mechanical(weights, QuadraticReal(1, 1, 5, 2))
    for lo, hi in [((-2, 1, 3), (3, 4, 3)), ((0, -3, 5), (4, -3, 5)), ((-1, -1, -1), (2, 3, 4)),
                   ((5, -2, 0), (5, -2, 7)), ((1, 2, 3), (1, 2, 3))]:
        floor_batches.clear()
        assert c.block(lo, hi) == block_reference(c, lo, hi), (weights, lo, hi)
        assert max(floor_batches) <= len(Window.box(lo, hi))


def test_mechanical_block_on_the_sturmian_layout():
    # 10,011 x 1, as the Sturmian factor counts read it: one row of extent 1 per cell
    r2 = QuadraticReal.sqrt(2)
    for weights in ((1, 1), (1, 0), (-1, 3)):
        c = Mechanical(weights, r2)
        lo, hi = (-4000, 1), (6010, 1)
        assert c.block(lo, hi) == block_reference(c, lo, hi)


@pytest.mark.parametrize("p", [3, 4, 5, 6, 7])
def test_mechanical_block_on_both_sides_of_the_dense_span(p, floor_batches):
    # on a 4 x 5 box, s = <w/g, v> spans 3p + 5 or 4p + 4 values against 20
    # cells: up to 20 the table covers the span, above it the 20 distinct
    # values that occur are floored
    for weights, span in (((p, 1), 3 * p + 5), ((-p, 1), 3 * p + 5),
                          ((2 * p, -2), 3 * p + 5), ((1, p), 4 * p + 4)):
        c = Mechanical(weights, QuadraticReal(-3, 2, 7, 5))
        for lo in ((0, 0), (-7, 11)):
            hi = (lo[0] + 3, lo[1] + 4)
            floor_batches.clear()
            assert c.block(lo, hi) == block_reference(c, lo, hi), (weights, lo)
            assert floor_batches == [min(span, 20)]


# --- one table of floors per alpha in a Sum -------------------------------------

SHARED_ALPHAS = ALPHAS[:3] + (QuadraticReal(3, -2, 7, 5), QuadraticReal(0, -1, 3, 1),
                              QuadraticReal.from_fraction(Fraction(-7, 3)))


def mechanical_sum(rng, d):
    """2 to 4 Mechanical terms of one alpha, with weights of gcds 1 to 6 and
    zeros among weights and coefficients, plus terms of another alpha and
    other variants."""
    alpha, other = rng.sample(SHARED_ALPHAS, 2)
    base = rng.choice((1, 2, 3))
    terms = [(rng.randint(-3, 3), Mechanical(tuple(g * rng.randint(-2, 2) for _ in range(d)), alpha))
             for g in rng.choices((base, base, 2 * base), k=rng.randint(2, 4))]
    for _ in range(rng.randint(0, 2)):
        extra = (Mechanical(tuple(rng.randint(-3, 3) for _ in range(d)), other)
                 if rng.random() < 0.5 else random_config(rng, d, rng.choice(LEAVES)))
        terms.insert(rng.randint(0, len(terms)), (rng.randint(-3, 3), extra))
    return Sum(terms)


@pytest.mark.parametrize("d", (1, 2, 3))
def test_sum_shares_floors_per_alpha_and_matches_value(d, floor_batches):
    rng = random.Random(f"shared-floors/{d}")
    shared = 0
    for _ in range(60):
        c = mechanical_sum(rng, d)
        for _ in range(3):
            lo, hi = random_box(rng, d)
            floor_batches.clear()
            got = c.block(lo, hi)
            assert got == block_reference(c, lo, hi), (c.terms, lo, hi)
            shared += len(floor_batches) < sum(isinstance(t, Mechanical) for _, t in c.terms)
            # each term on its own, Mechanical terms each flooring their own table
            assert got == combine((k, t.block(lo, hi)) for k, t in c.terms)
    assert shared >= 36  # one box in five at least reads a shared table


def test_sturmian_block_floors_once_per_row(floor_batches):
    sturmian = sturmian_rows()
    for lo, hi in (((-7, -4000), (-7, 6010)), ((-4000, 1), (6010, 1))):
        floor_batches.clear()
        assert sturmian.block(lo, hi) == block_reference(sturmian, lo, hi)
        assert len(floor_batches) == 1


def test_sum_of_sparse_span_atoms_keeps_the_cost_of_one(floor_batches):
    # one table over the union of these spans would hold about 10**8 values
    r2 = QuadraticReal.sqrt(2)
    c = Sum([(1, Mechanical((10**6, 1), r2)), (-1, Mechanical((10**6, 2), r2))])
    got = c.block((0, 0), (49, 49))
    assert floor_batches == [2500, 2500]
    assert len(got) == 2500
    box = list(Window.box((0, 0), (49, 49)))[::97]
    assert got[::97] == [mechanical_oracle(c.terms[0][1], p) - mechanical_oracle(c.terms[1][1], p)
                         for p in box]
