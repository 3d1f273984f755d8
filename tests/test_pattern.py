"""Differential tests of the flat pattern layout.

A Pattern stores its values as one tuple in window order.  Every operator
that reads or builds patterns (difference, integrate, apply, component_sum,
the decompose period check and the bounded difference search) is compared
on seeded random windows in dimensions 1 to 3 (boxes with negative
coordinates, L-shaped and scattered explicit windows) against a per-cell
dict reference, most of them as rows of the table in fast_paths.py.
"""

import math
import operator
import random
from fractions import Fraction

import pytest

from nivatk.configurations import (
    Pattern,
    Sum,
    _rows,
    combine,
)
from nivatk.decomposition import WindowDecomposition
from nivatk.lattice import Window
from nivatk.laurent import LaurentPolynomial, apply

from draws import (
    BlockRecorder,
    VARIANTS,
    binary_irrational,
    cases,
    random_config,
    random_step,
    random_values,
    random_window,
)
from fast_paths import apply_reference


def test_pattern_rejects_a_value_sequence_of_the_wrong_length():
    for window in (Window.box((-2, 0), (0, 1)), Window.from_points([(0, 0), (3, -1)])):
        n = len(window)
        assert Pattern(window, range(n)).cells == tuple(range(n))
        for wrong in (n - 1, n + 1, 0):
            with pytest.raises(ValueError):
                Pattern(window, range(wrong))
        with pytest.raises(TypeError):
            Pattern(window, dict.fromkeys(window, 0))


@pytest.mark.parametrize("seed", [1, 2])
def test_values_view_and_on_follow_window_order(seed):
    rng = random.Random(seed)
    for d, _ in cases(60):
        window = random_window(rng, d)
        vals = random_values(rng, window)
        p = Pattern(window, vals.values())
        assert list(p.values.items()) == sorted(vals.items())
        assert p.cells == tuple(vals[u] for u in window)
        sub = Window.from_points(rng.sample(list(window), rng.randint(1, len(window))))
        assert p.on(sub) == [vals[u] for u in sub]
        if window.is_box:
            lo = tuple(rng.randint(a, b) for a, b in zip(window.lo, window.hi))
            box = Window.box(lo, tuple(rng.randint(a, b) for a, b in zip(lo, window.hi)))
            assert p.on(box) == [vals[u] for u in box]


@pytest.mark.parametrize("d", [1, 2, 3])
def test_indices_fold_the_trailing_axes_a_window_spans(d):
    """Flat indices against their brute-force positions in the box, for windows
    spanning 0, 1 or 2 trailing axes in full, axes of extent 1 and negative lo."""
    rng = random.Random(80 + d)
    seen = set()
    for _ in range(80):
        lo = tuple(rng.randint(-5, 2) for _ in range(d))
        box = Window.box(lo, tuple(a + rng.choice((0, 0, 1, 2, 3)) for a in lo))
        p = Pattern(box, range(len(box)))  # the value of a cell is its flat index
        full = rng.randint(0, min(2, d))
        wlo, whi = [], []
        for i, (a, b) in enumerate(zip(box.lo, box.hi)):
            x = a if i >= d - full else rng.randint(a, b)
            wlo.append(x)
            whi.append(b if i >= d - full else rng.randint(x, b))
        window = Window.box(wlo, whi)
        want = [p.values[u] for u in window]
        starts, n = p.rows(window)
        starts = list(starts)
        assert [b + k for b in starts for k in range(n)] == want
        # the axes spanned in full from the last one back fold into the one before
        spans = [a == x and b == y for a, b, x, y in zip(box.lo, box.hi, wlo, whi)]
        m = d - next((k for k, f in enumerate(reversed(spans)) if not f), d)
        extents = [y - x + 1 for x, y in zip(wlo, whi)]
        assert len(starts) == math.prod(extents[:max(m - 1, 0)])
        assert n * len(starts) == len(window)
        shift = rng.randint(-9, 9)
        starts, n = _rows(window, p.strides, shift)
        flat = [sum(map(operator.mul, u, p.strides)) + shift for u in window]
        assert [b + k for b in starts for k in range(n)] == flat
        seen.add((full, n == len(window)))
    assert {f for f, _ in seen} == set(range(min(2, d) + 1))


@pytest.mark.parametrize("seed", [7, 8])
def test_component_sum_matches_dict_reference(seed):
    rng = random.Random(seed)
    for d, _ in cases(45):
        window = random_window(rng, d)
        parts = [random_values(rng, window) for _ in range(rng.randint(1, 3))]
        dec = WindowDecomposition(
            vectors=tuple(random_step(rng, d) for _ in parts),
            components=tuple(Pattern(window, p.values()) for p in parts),
            core=window, residual_check=True, integral=True)
        total = dec.component_sum()
        assert total.shape == window
        assert total.cells == tuple(sum(p[u] for p in parts) for u in window)


# --- the covering block of apply and the +-1 combiner -----------------------------------


def test_apply_on_a_box_reads_one_covering_block():
    c = BlockRecorder(binary_irrational())
    f = LaurentPolynomial(2, {(2, 0): 1, (2, -1): -1, (1, 1): -1, (1, -1): 1, (0, 1): 1,
                              (0, 0): -1})
    window = Window.box((-3, 4), (9, 12))
    got = apply(f, c, window)
    # exponents 0..2 and -1..1 move the window by -2..0 and -1..1
    assert c.boxes == [((-5, 3), (9, 13))]
    assert got.values == apply_reference(f, c, window)
    assert got.is_zero()


def test_apply_keeps_per_term_blocks_for_far_spread_exponents():
    c = BlockRecorder(binary_irrational())
    f = LaurentPolynomial.difference((2000000, 0))
    window = Window.box((0, 0), (2, 2))
    got = apply(f, c, window)
    # two 3 x 3 blocks, one per term, not one block over the 2000003 x 3 span
    assert sorted(c.boxes) == [((-2000000, 0), (-1999998, 2)), ((0, 0), (2, 2))]
    assert got.values == apply_reference(f, c, window)


COEFFICIENT_ORDERS = [(1, -1, 3), (-1, 1, -2), (-1, -1, 0), (2, Fraction(1, 2), -1),
                      (Fraction(-3, 4), 1, Fraction(5, 3)), (-5, Fraction(-1, 2), 1)]


@pytest.mark.parametrize("coefficients", COEFFICIENT_ORDERS, ids=str)
def test_apply_and_sum_combine_every_kind_of_coefficient(coefficients):
    rng = random.Random(f"combine/{coefficients}")
    window = Window.box((-4, 2), (3, 7))
    for _ in range(6):
        leaves = [random_config(rng, 2, rng.choice(VARIANTS)) for _ in coefficients]
        grid = [(i, j) for i in range(-2, 3) for j in range(-2, 3)]
        exponents = rng.sample(grid, len(coefficients))
        f = LaurentPolynomial(2, dict(zip(exponents, coefficients)))
        assert list(f.terms.values()) == [a for a in coefficients if a]
        assert apply(f, leaves[0], window).values == apply_reference(f, leaves[0], window)
        integral = [k for k in coefficients if Fraction(k).denominator == 1]
        s = Sum(list(zip(integral, leaves)))
        assert s.block(window.lo, window.hi) == [s.value(u) for u in window]
        blocks = [c.block(window.lo, window.hi) for c in leaves]
        assert combine(zip(coefficients, blocks)) == [
            sum(k * b[i] for k, b in zip(coefficients, blocks)) for i in range(len(window))]
