"""Certified period lattices and the counts keyed on one anchor per class.

Configuration.periods() returns a lattice of periods of any rank or None;
every certified lattice is checked cell by cell on seeded random
descriptors of all six variants.  Lattice.intersect, the rank < d
Lattice.reduce and Mechanical's w-perp are checked against brute-force
membership on a box.  Each counting site that keys a box of the sample
meeting the same residue classes of a full rank lattice (nivat_scan,
sampled pattern_complexity and find_annihilator) is compared with the
same call keying every anchor, in d = 1..3 for the last two, by rows of
the table in fast_paths.py.
"""

import itertools
import operator
import random

import pytest

from nivatk.annihilator import find_annihilator
from nivatk.configurations import (
    CosetIndicator,
    FiniteSupport,
    Mechanical,
    Pattern,
    Periodic,
    Sum,
    ValueMap,
    covering_pattern,
    extract_pattern,
    pattern_complexity,
    residue_representatives,
)
from nivatk.errors import (
    DimensionMismatchError,
    EmptySampleError,
    RankDeficientError,
    ZeroVectorError,
)
from nivatk.lattice import Lattice, Window, vec_add, vec_scale, vec_sub
from nivatk.laurent import LaurentPolynomial, annihilates, periodicity_test
from nivatk.nivat import nivat_scan
from nivatk.quadratic import QuadraticReal
from nivatk.textio import parse_config

from draws import (
    BlockRecorder,
    VARIANTS,
    binary_irrational,
    periodic_inputs,
    random_board,
    random_box,
    random_cell,
    random_config,
    random_lattice,
)
from fast_paths import complexity_reference


# --- soundness ----------------------------------------------------------------


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("d", (1, 2, 3))
def test_periods_are_periods(variant, d):
    rng = random.Random(f"periods/{variant}/{d}")
    certified = 0
    for _ in range(40):
        c = random_config(rng, d, variant)
        lattice = c.periods()
        if lattice is None:
            continue
        certified += 1
        assert lattice.dim == d
        if variant == "periodic":
            assert lattice.is_full_rank
        for p in lattice.basis():
            for _ in range(6):
                v = random_cell(rng, d)
                assert c.value(vec_add(v, p)) == c.value(v), (c, p, v)
    if variant != "finite":
        assert certified > 0


def test_periods_by_variant():
    lat = Lattice([(2, 0), (1, 3)])
    assert Periodic(lat, {r: 1 for r in lat.residues()}).periods() == lat
    assert CosetIndicator((1, 2), [(2, 0), (1, 3)], 4).periods() == lat
    assert CosetIndicator((1, 2), [(2, 1)], 4).periods() == Lattice([(2, 1)])
    whole = Lattice([(1, 0), (0, 1)])
    assert Mechanical((0, 0), QuadraticReal.sqrt(2)).periods() == whole
    assert Mechanical((1, 2), QuadraticReal.from_fraction(0)).periods() == whole
    assert Mechanical((1, 2), QuadraticReal.sqrt(2)).periods() == Lattice([(2, -1)])
    assert Mechanical((3,), QuadraticReal.sqrt(2)).periods() is None
    assert FiniteSupport({}, dim=2).periods() == whole
    assert FiniteSupport({(0, 0): 1}).periods() is None
    other = Lattice([(3, 0), (0, 2)])
    two = Sum([(1, Periodic(lat, {r: 1 for r in lat.residues()})),
               (2, Periodic(other, {r: r[0] for r in other.residues()}))])
    assert two.periods() == lat.intersect(other)
    line = Sum([(1, two), (1, Mechanical((1, 0), QuadraticReal.sqrt(2)))])
    assert line.periods() == Lattice([(0, 6)])
    assert ValueMap(two, {0: 1}, 0).periods() == two.periods()
    # w-perp of (1, 0) meets the coset line of (1, 1) in {0}
    assert Sum([(1, line), (1, CosetIndicator((0, 0), [(1, 1)]))]).periods() is None
    assert Sum([(1, FiniteSupport({(0, 0): 1})), (1, line)]).periods() is None


# --- Lattice.intersect ----------------------------------------------------------


@pytest.mark.parametrize("d", (1, 2, 3))
def test_intersect_matches_membership(d):
    rng = random.Random(f"intersect/{d}")
    radius = {1: 40, 2: 12, 3: 6}[d]
    box = list(itertools.product(range(-radius, radius + 1), repeat=d))
    for _ in range(30):
        a = random_lattice(rng, d, rng.randint(1, d))
        b = random_lattice(rng, d, rng.randint(1, d))
        both = [v for v in box if a.contains(v) and b.contains(v)]
        meet = a.intersect(b)
        if meet is None:
            assert both == [(0,) * d], (a, b)
            continue
        assert [v for v in box if meet.contains(v)] == both, (a, b)
        assert meet == b.intersect(a)
        if a.is_full_rank and b.is_full_rank:
            assert meet.is_full_rank


@pytest.mark.parametrize("d", (1, 2, 3))
def test_reduce_names_cosets_at_every_rank(d):
    rng = random.Random(f"reduce/{d}")
    radius = {1: 30, 2: 8, 3: 4}[d]
    box = list(itertools.product(range(-radius, radius + 1), repeat=d))
    for _ in range(20):
        lat = random_lattice(rng, d, rng.randint(1, d))
        basis = lat.basis()
        for v in rng.sample(box, 20):
            key = lat.reduce(v)
            assert lat.contains(vec_sub(v, key))
            # constant on the coset
            shift = (0,) * d
            for row in basis:
                shift = vec_add(shift, vec_scale(rng.randint(-3, 3), row))
            assert lat.reduce(vec_add(v, shift)) == key
            # and distinct on distinct cosets
            for u in rng.sample(box, 10):
                assert (lat.reduce(u) == key) == lat.contains(vec_sub(u, v)), (lat, u, v)
        if not lat.is_full_rank:
            with pytest.raises(RankDeficientError):
                lat.index()
            with pytest.raises(RankDeficientError):
                lat.residues()


@pytest.mark.parametrize("d", (1, 2, 3))
def test_mechanical_periods_are_w_perp(d):
    rng = random.Random(f"w-perp/{d}")
    radius = {1: 30, 2: 12, 3: 5}[d]
    box = list(itertools.product(range(-radius, radius + 1), repeat=d))
    for _ in range(20):
        w = tuple(rng.randint(-4, 4) for _ in range(d))
        if not any(w):
            continue
        lattice = Mechanical(w, QuadraticReal.sqrt(2)).periods()
        if d == 1:
            assert lattice is None
            continue
        assert lattice.rank == d - 1
        assert [v for v in box if lattice.contains(v)] == [
            v for v in box if sum(a * b for a, b in zip(w, v)) == 0], w


# --- the representatives --------------------------------------------------------


def test_representatives_are_a_box_of_the_sample_with_its_classes():
    rng = random.Random("representatives")
    seen, cut = set(), set()
    for _ in range(60):
        d = rng.randint(1, 3)
        c = random_board(rng, d, values=(0, 2))
        lat, lo = c.lattice, random_cell(rng, d)
        # thin axes of one cell, others up to past the index
        anchors = Window.box(lo, [a + rng.choice((0, rng.randint(0, lat.index() + 2))) for a in lo])
        reps = residue_representatives(c, anchors)
        assert reps.is_box and reps.lo == anchors.lo and all(map(operator.le, reps.hi, anchors.hi))
        assert {lat.reduce(a) for a in reps} == {lat.reduce(a) for a in anchors}
        holds = all(map(operator.le, lat.residue_box().shift(lo).hi, anchors.hi))
        if holds:
            assert len(reps) == lat.index()
        seen.add(holds)
        explicit = Window.from_points([random_cell(rng, d) for _ in range(rng.randint(1, 15))])
        points = list(explicit)
        # each class once, at its first point in sample order
        firsts = [a for k, a in enumerate(points) if lat.reduce(a) not in {lat.reduce(b) for b in points[:k]}]
        assert list(residue_representatives(c, explicit)) == firsts
        cut.add(len(firsts) < len(points))
    assert seen == {True, False} and cut == {True, False}


def test_representatives_without_periods_are_the_anchors():
    anchors = Window.box((0, 0), (9, 9))
    c = Mechanical((1, 1), QuadraticReal.sqrt(2))
    assert residue_representatives(c, anchors) is anchors


# --- the rerouted sites, with and without the representatives -------------------


TWO_BOARDS = ("sum { +periodic lattice{(3,0) (0,2)} values{(0,0):1 (1,0):0 (2,0):2 (0,1):1 (1,1):0 "
              "(2,1):1} +periodic lattice{(2,0) (1,1)} values{(0,0):0 (1,0):1} }")


@pytest.mark.parametrize("site", ["scan", "complexity", "annihilator"])
def test_a_wide_sample_reduces_a_bounded_number_of_cells(site, monkeypatch):
    # the index-12 sum's classes need all six rows of 20,001 anchors, so an
    # anchor-by-anchor search for them reduces most of the sample
    c = parse_config(TWO_BOARDS)
    call = {
        "scan": lambda s: nivat_scan(c, range(2, 4), range(2, 4), s),
        "complexity": lambda s: pattern_complexity(c, Window.box((0, 0), (2, 2)), s).count,
        "annihilator": lambda s: find_annihilator(c, Window.box((0, 0), (1, 1)), s, s),
    }[site]
    calls, reduce = [], Lattice.reduce
    monkeypatch.setattr(Lattice, "reduce", lambda lat, v: calls.append(v) or reduce(lat, v))
    got = call(Window.box((0, 0), (5, 20000)))
    assert len(calls) <= 100
    assert got == call(Window.box((0, 0), (11, 11)))


def test_scan_keys_one_anchor_per_class():
    # the scan fills one block around a few anchors, not the 60 x 60 sample
    lat = Lattice([(2, 0), (1, 2)])
    inner = Periodic(lat, {r: sum(r) % 3 for r in lat.residues()})
    c = BlockRecorder(inner)
    rows = nivat_scan(c, range(2, 9), range(2, 9), Window.box((0, 0), (59, 59)))
    assert c.cells <= len(Window.box((0, 0), (8, 8))) * lat.index()
    assert [r.lower_bound_count for r in rows] == [
        pattern_complexity(inner, Window.box((0, 0), (r.M - 1, r.N - 1))).count for r in rows]


# --- covering_pattern on spread-out anchors -------------------------------------


@pytest.mark.parametrize("span", (60, 1200))
def test_covering_pattern_fills_one_block_per_spread_anchor(span):
    c = BlockRecorder(binary_irrational())
    anchors = Window.from_points([(0, 0), (span, 7), (3, span)])
    cover = Window.box((0, 0), (3, 3))
    table, at = covering_pattern(c, cover, anchors)
    assert isinstance(table, Pattern) and table.shape.is_box
    assert c.cells == len(anchors) * len(cover)
    for shape in (cover, Window.box((1, 0), (2, 3)), Window.from_points([(0, 0), (3, 1), (2, 2)])):
        keys = [tuple(itertools.chain.from_iterable(k)) for k in table.keys(shape, at)]
        assert keys == [extract_pattern(c.inner, a, shape).cells for a in anchors]
    c.cells = 0
    shape = Window.box((0, 0), (2, 2))
    assert pattern_complexity(c, shape, anchors).count == len(
        {extract_pattern(c.inner, a, shape).cells for a in anchors})
    assert c.cells <= len(anchors) * len(shape)


def test_covering_pattern_keeps_one_box_for_dense_anchors():
    c = BlockRecorder(binary_irrational())
    anchors = Window.box((-2, 3), (9, 7))
    shape = Window.box((0, 0), (2, 1))
    _, at = covering_pattern(c, shape, anchors)
    assert at is anchors
    assert c.cells == len(Window.box((-2, 3), (11, 8)))


# --- one exact domain -------------------------------------------------------------


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("d", (1, 2, 3))
def test_exact_domain_is_the_residue_box_of_a_periodic_only(variant, d):
    rng = random.Random(f"exact-domain/{variant}/{d}")
    for _ in range(30):
        c = random_config(rng, d, variant)
        domain = c.exact_domain()
        if variant == "periodic":
            assert domain.is_box
            assert domain == Window.from_points(c.lattice.residues())
            assert list(domain) == list(c.lattice.residues())
        else:
            assert domain is None


def test_exact_domain_is_none_for_certified_non_periodic_descriptors():
    rng = random.Random("exact-domain/certified")
    for _ in range(6):
        inputs = list(periodic_inputs(rng))
        assert inputs[0].exact_domain() is not None
        for c in inputs[1:]:
            assert c.periods() is not None and c.exact_domain() is None, c


@pytest.mark.parametrize("call", (
    lambda c, w: annihilates(LaurentPolynomial.difference((1, 0)), c, w),
    lambda c, w: periodicity_test(c, (1, 0), w),
    lambda c, w: pattern_complexity(c, Window.box((0, 0), (1, 1)), w),
), ids=("annihilates", "periodicity_test", "pattern_complexity"))
def test_a_window_of_the_wrong_dimension_is_refused(call):
    # neither the exact domain nor the coset certificate may skip the check
    lat = Lattice([(2, 0), (1, 2)])
    for c in (Periodic(lat, {r: sum(r) % 2 for r in lat.residues()}),
              CosetIndicator((0, 1), [(1, 0)], 3)):
        with pytest.raises(DimensionMismatchError):
            call(c, Window.box((0, 0, 0), (2, 2, 2)))


def test_periodicity_test_reads_no_cell_under_the_coset_certificate():
    # both terms are invariant under (1, -1): X^(-1,1) - 1 sums to 0 on their cosets
    r2 = QuadraticReal.sqrt(2)
    c = BlockRecorder(Sum([(1, Mechanical((1, 1), r2)), (1, CosetIndicator((0, 0), [(1, -1)]))]))
    res = periodicity_test(c, (1, -1), Window.box((0, 0), (19, 19)))
    assert (res.status, res.witness, c.cells) == ("unknown", None, 0)


def test_periodicity_test_checks_dimension_then_zero_vector_then_sample():
    c = CosetIndicator((0, 0), [(1, 0)])
    with pytest.raises(DimensionMismatchError):
        periodicity_test(c, (0, 0), Window.box((0, 0, 0), (1, 1, 1)))
    with pytest.raises(DimensionMismatchError):
        periodicity_test(c, (0, 0, 0))
    with pytest.raises(ZeroVectorError):
        periodicity_test(c, (0, 0))
    with pytest.raises(EmptySampleError):
        periodicity_test(c, (1, 0))


# the exact-answer sites written with one isinstance(c, Periodic) test each
# and every value taken cell by cell (fast_paths.complexity_reference is the
# third): the labels exact_domain() must keep


def isinstance_annihilates(f, c, window):
    exact = isinstance(c, Periodic)
    domain = Window.from_points(c.lattice.residues()) if exact else window
    for u in domain:
        if sum(a * c.value(vec_sub(u, e)) for e, a in f.terms.items()) != 0:
            return "no", u
    return ("exact" if exact else "window"), None


def isinstance_periodicity(c, v, sample):
    if isinstance(c, Periodic):
        if c.lattice.contains(v):
            return "periodic", None
        for r in c.lattice.residues():
            if c.value(r) != c.value(vec_add(r, v)):
                return "not-periodic", r
        return "periodic", None
    for u in sample:
        if c.value(u) != c.value(vec_add(u, v)):
            return "not-periodic", u
    return "unknown", None


def label_cases(rng):
    for d in (1, 2, 3):
        for variant in VARIANTS:
            for _ in range(4):
                yield random_config(rng, d, variant)
    for _ in range(4):
        yield from periodic_inputs(rng)


def test_labels_match_the_isinstance_sites():
    rng = random.Random("labels")
    seen = set()
    for c in label_cases(rng):
        d = c.dim
        lattice = c.periods()
        steps = [random_cell(rng, d) for _ in range(2)]
        if lattice is not None:
            steps += list(lattice.basis())
        steps = [v for v in steps if any(v)]
        windows = (Window.box(*random_box(rng, d)),
                   Window.from_points([random_cell(rng, d) for _ in range(6)]))
        polys = [LaurentPolynomial.difference(v) for v in steps]
        polys.append(LaurentPolynomial(d, {random_cell(rng, d): 1, (0,) * d: -2}))
        for window in windows:
            for f in polys:
                res = annihilates(f, c, window)
                assert (res.status, res.witness) == isinstance_annihilates(f, c, window)
                seen.add(res.status)
            shape = Window.box(*random_box(rng, d))
            res = pattern_complexity(c, shape, window)
            assert (res.count, res.exact) == complexity_reference(c, shape, window)[:2]
            seen.add(res.exact)
            for v in steps:
                res = periodicity_test(c, v, window)
                assert (res.status, res.witness) == isinstance_periodicity(c, v, window)
                seen.add(res.status)
    assert seen == {"exact", "window", "no", True, False, "periodic", "not-periodic", "unknown"}
