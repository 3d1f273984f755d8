"""Differential tests of the flat pattern layout.

A Pattern stores its values as one tuple in window order.  Every operator
that reads or builds patterns (difference, integrate, apply, component_sum,
the decompose period check and the bounded difference search) is compared
on seeded random windows in dimensions 1 to 3 (boxes with negative
coordinates, L-shaped and scattered explicit windows) against a per-cell
dict reference kept here.
"""

import itertools
import math
import operator
import random
from fractions import Fraction

import pytest

from nivatk.annihilator import search_difference_annihilator
from nivatk.configurations import (
    CosetIndicator,
    Mechanical,
    Pattern,
    Periodic,
    Sum,
    _rows,
    combine,
)
from nivatk.decomposition import (
    WindowDecomposition,
    _repeats,
    difference,
    difference_vanishes,
    integrate,
)
from nivatk.errors import EmptyResultError, WindowTooSmallError
from nivatk.lattice import Window, canonical_sign, vec_add, vec_sub
from nivatk.laurent import LaurentPolynomial, apply
from nivatk.quadratic import QuadraticReal

from draws import (
    BlockRecorder,
    VARIANTS,
    apply_reference,
    binary_irrational,
    random_config,
    random_poly,
    random_step,
)


def random_window(rng, d, box_only=False, extent=None):
    lo = tuple(rng.randint(-6, 2) for _ in range(d))
    extent = extent or {1: 9, 2: 5, 3: 4}[d]
    kind = 0 if box_only else rng.randrange(3)
    if kind == 0:
        return Window.box(lo, tuple(a + rng.randint(0, extent - 1) for a in lo))
    if kind == 1:
        # an L: a corner plus an arm along each of up to two axes
        pts = [lo]
        for axis in rng.sample(range(d), min(2, d)):
            pts += [tuple(x + k * (i == axis) for i, x in enumerate(lo))
                    for k in range(1, rng.randint(2, extent + 1))]
        return Window.from_points(pts)
    return Window.from_points(
        [tuple(x + rng.randint(0, extent) for x in lo) for _ in range(rng.randint(1, 12))])


def random_values(rng, window):
    return {u: rng.randint(-3, 3) for u in window}


def ref_difference(vals, v):
    """u -> vals[u - v] - vals[u] on the cells where both are known, in lexicographic order."""
    return {u: vals[vec_sub(u, v)] - vals[u] for u in sorted(vals) if vec_sub(u, v) in vals}


def ref_integrate(vals, v):
    """Zero at each line's entry cell of the box, then o[u] = o[u - v] - vals[u]."""
    cells = sorted(vals)
    out = {}
    for u in (cells if v > (0,) * len(v) else reversed(cells)):
        w = vec_sub(u, v)
        out[u] = out[w] - vals[u] if w in out else 0
    return {u: out[u] for u in cells}


def ref_repeats(vals, v):
    return all(vals[vec_add(u, v)] == x for u, x in vals.items() if vec_add(u, v) in vals)


def cases(seed, count, box_only=False):
    rng = random.Random(seed)
    for k in range(count):
        d = 1 + k % 3
        yield rng, d, random_window(rng, d, box_only)


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
    for rng, d, window in cases(seed, 60):
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


@pytest.mark.parametrize("seed", [3, 4])
def test_difference_matches_dict_reference(seed):
    for rng, d, window in cases(seed, 90):
        vals = random_values(rng, window)
        v = random_step(rng, d, 3)
        want = ref_difference(vals, v)
        p = Pattern(window, vals.values())
        if not want:
            with pytest.raises(EmptyResultError):
                difference(p, v)
            continue
        got = difference(p, v)
        assert list(got.shape) == list(want)
        assert got.cells == tuple(want.values())
        assert got.is_zero() == all(x == 0 for x in want.values())


@pytest.mark.parametrize("seed", [5, 6])
def test_integrate_matches_dict_reference(seed):
    for rng, d, window in cases(seed, 60, box_only=True):
        vals = random_values(rng, window)
        v = random_step(rng, d, 3)
        got = integrate(Pattern(window, vals.values()), v)
        assert got.shape == window
        assert got.cells == tuple(ref_integrate(vals, v).values())


@pytest.mark.parametrize("d", (1, 2, 3))
def test_apply_matches_dict_reference(d):
    rng = random.Random(f"flat-apply/{d}")
    for k in range(24):
        c = random_config(rng, d, VARIANTS[k % len(VARIANTS)])
        f = random_poly(rng, d, integral=k % 3 != 0)
        window = random_window(rng, d)
        want = {u: sum(a * c.value(vec_sub(u, e)) for e, a in f.terms.items()) for u in window}
        got = apply(f, c, window)
        assert got.shape == window
        assert got.cells == tuple(want[u] for u in window)


@pytest.mark.parametrize("seed", [7, 8])
def test_component_sum_matches_dict_reference(seed):
    for rng, d, window in cases(seed, 45):
        parts = [random_values(rng, window) for _ in range(rng.randint(1, 3))]
        dec = WindowDecomposition(
            vectors=tuple(random_step(rng, d) for _ in parts),
            components=tuple(Pattern(window, p.values()) for p in parts),
            core=window, residual_check=True, integral=True)
        total = dec.component_sum()
        assert total.shape == window
        assert total.cells == tuple(sum(p[u] for p in parts) for u in window)


def line_constant_values(rng, window, v):
    """Random values constant along every line u + Zv."""
    i0 = next(i for i, x in enumerate(v) if x)
    line = {}
    return {u: line.setdefault(vec_sub(u, tuple(u[i0] // v[i0] * x for x in v)),
                               rng.randint(-3, 3)) for u in window}


@pytest.mark.parametrize("seed", [9, 10])
def test_period_check_matches_dict_reference(seed):
    seen = set()
    for rng, d, window in cases(seed, 90):
        v = random_step(rng, d)
        if rng.random() < 0.5:
            vals = random_values(rng, window)
        else:
            vals = line_constant_values(rng, window, v)
        want = ref_repeats(vals, v)
        assert _repeats(Pattern(window, vals.values()), v) == want
        seen.add(want)
    assert seen == {True, False}


@pytest.mark.parametrize("seed", [13, 14])
def test_row_slice_repeat_test_matches_the_difference(seed):
    seen = set()
    for rng, d, window in cases(seed, 120):
        v = random_step(rng, d, 3)
        if rng.random() < 0.5:
            vals = random_values(rng, window)
        else:
            vals = line_constant_values(rng, window, v)
        p = Pattern(window, vals.values())
        try:
            want = difference(p, v).is_zero()
        except EmptyResultError:
            with pytest.raises(EmptyResultError):
                difference_vanishes(p, v)
            seen.add((window.is_box, "empty"))
            continue
        assert difference_vanishes(p, v) == want, (window, v)
        seen.add((window.is_box, want))
    assert seen == {(box, x) for box in (True, False) for x in (True, False, "empty")}


# --- the bounded difference search ---------------------------------------------


def ref_search(c, max_factors, coord_bound, window):
    """The search with every pattern held as a cell -> value dict."""
    zero = (0,) * c.dim
    steps = sorted({canonical_sign(v) for v in itertools.product(
        range(-coord_bound, coord_bound + 1), repeat=c.dim) if v != zero})
    base = {u: c.value(u) for u in window}

    def verified(chain):
        # re-verified like the search does: exactly on one fundamental
        # domain for a Periodic descriptor, else on the shrunk window
        product, dom = LaurentPolynomial.one(c.dim), base
        for v in chain:
            product = product * LaurentPolynomial.difference(v)
            dom = ref_difference(dom, v)
        cells = c.lattice.residues() if isinstance(c, Periodic) else sorted(dom)
        return not any(sum(a * c.value(vec_sub(u, e)) for e, a in product.terms.items())
                       for u in cells)

    def dfs(vals, start, depth, chain):
        for idx in range(start, len(steps)):
            v = steps[idx]
            nxt = ref_difference(vals, v)
            if not nxt:
                raise WindowTooSmallError(f"window exhausted after shrinking by step {v}")
            if depth == 1:
                if all(x == 0 for x in nxt.values()) and verified(chain + [v]):
                    return chain + [v]
            else:
                found = dfs(nxt, idx, depth - 1, chain + [v])
                if found is not None:
                    return found
        return None

    for length in range(1, max_factors + 1):
        found = dfs(base, 0, length, [])
        if found is not None:
            return found
    return None


def search_outcome(search, *args):
    try:
        return search(*args)
    except WindowTooSmallError as exc:
        return (type(exc).__name__, str(exc))


def search_config(rng, d, bound):
    kind = rng.randrange(4)
    if kind == 0:
        return random_config(rng, d, rng.choice(VARIANTS))
    if kind < 3:
        # one difference factor per line: a certificate of length <= 3 when the
        # steps are short enough
        return Sum([(rng.randint(1, 2), CosetIndicator(
            tuple(rng.randint(-3, 3) for _ in range(d)), [random_step(rng, d, bound)]))
            for _ in range(rng.randint(2, 3))])
    # a linear ramp for an integer alpha: (X^v - 1)^2 annihilates it
    alpha = rng.choice((QuadraticReal.sqrt(2), QuadraticReal.from_fraction(rng.randint(1, 2))))
    return Mechanical(tuple(rng.randint(-2, 2) for _ in range(d)), alpha)


@pytest.mark.parametrize("d", (1, 2, 3))
def test_search_matches_dict_reference(d):
    rng = random.Random(f"flat-search/{d}")
    kinds = set()
    for k in range(40):
        bound = 1 if d == 3 else rng.randint(1, 2)
        c = search_config(rng, d, bound)
        if rng.random() < 0.6:
            lo = tuple(rng.randint(-4, 0) for _ in range(d))
            hi = [a + rng.randint(2, {1: 15, 2: 7, 3: 4}[d]) for a in lo]
            if k % 4 == 0:
                # a thin axis, so that a leaf step can exhaust the window
                axis = rng.randrange(d)
                hi[axis] = lo[axis] + rng.randint(0, 1)
            window = Window.box(lo, hi)
        else:
            window = random_window(rng, d, extent={1: 16, 2: 8, 3: 5}[d])
        args = (c, rng.randint(1, 3 if d < 3 else 2), bound, window)
        want = search_outcome(ref_search, *args)
        assert search_outcome(search_difference_annihilator, *args) == want, args
        kinds.add(len(want) if isinstance(want, list) else want and want[0])
    # certificates of length one and two, no certificate, and exhausted windows
    assert kinds >= {1, 2, None, "WindowTooSmallError"}


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


@pytest.mark.parametrize("d", (1, 2, 3))
def test_apply_on_explicit_windows_matches_reference(d):
    rng = random.Random(f"explicit-apply/{d}")
    for k in range(20):
        c = random_config(rng, d, VARIANTS[k % len(VARIANTS)])
        f = random_poly(rng, d, integral=k % 2 == 0)
        window = random_window(rng, d)
        while window.is_box:
            window = random_window(rng, d)
        assert apply(f, c, window).values == apply_reference(f, c, window), (f, c, window)


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

