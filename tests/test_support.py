"""Certified supports and the counts keyed only near them.

Configuration.support() returns cosets with the configuration constant off
their union, or None; every certified support is checked cell by cell on
seeded random descriptors of all six variants.  Each counting site that
keys only the anchors near the support (sampled pattern_complexity,
nivat_scan and find_annihilator) is compared with the same call with
support() returning None on every variant, by rows of the table in
fast_paths.py.
"""

import random

import pytest

from nivatk.cli import TWO_LINES_3D
from nivatk.configurations import (
    CosetIndicator,
    FiniteSupport,
    Mechanical,
    Sum,
    ValueMap,
    pattern_complexity,
    support_anchors,
)
from nivatk.lattice import Lattice, Window
from nivatk.quadratic import QuadraticReal
from nivatk.textio import parse_config

from draws import (
    VARIANTS,
    random_box,
    random_config,
    readme_board,
    supported_config,
)
from fast_paths import cover_test


def assert_sound(c, rng, boxes=3):
    support = c.support()
    on_cover = cover_test(support)
    for _ in range(boxes):
        lo, hi = random_box(rng, c.dim)
        for u, x in zip(Window.box(lo, hi), c.block(lo, hi)):
            if not on_cover(u):
                assert x == support.background, (c, u)


# --- soundness ----------------------------------------------------------------


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("d", (1, 2, 3))
def test_support_is_background_off_the_cover(variant, d):
    rng = random.Random(f"support/{variant}/{d}")
    certified = 0
    for _ in range(40):
        c = random_config(rng, d, variant)
        if c.support() is None:
            continue
        certified += 1
        assert_sound(c, rng)
    if variant in ("finite", "sum", "valuemap") or (variant == "coset" and d > 1):
        assert certified > 0
    if variant in ("periodic", "mechanical"):
        assert certified == 0


@pytest.mark.parametrize("d", (1, 2, 3))
def test_support_of_nested_supported_descriptors(d):
    rng = random.Random(f"support/nested/{d}")
    backgrounds = set()
    for _ in range(60):
        c = supported_config(rng, d)
        assert c.support() is not None
        backgrounds.add(c.support().background)
        assert_sound(c, rng)
    assert len(backgrounds) > 2


def test_support_by_variant():
    line = CosetIndicator((1, 2), [(2, 1)], 4)
    assert line.support() == ((((1, 2), Lattice([(2, 1)]).basis()),), 0)
    assert CosetIndicator((1, 2), [(2, 0), (1, 3)], 4).support() is None
    assert FiniteSupport({}, dim=2).support() == ((), 0)
    assert FiniteSupport({(0, 1): 2, (3, 3): 0}).support() == ((((0, 1), ()),), 0)
    assert readme_board().support() is None
    assert Mechanical((1, 2), QuadraticReal.sqrt(2)).support() is None
    assert Mechanical((0, 0), QuadraticReal.sqrt(2)).support() is None
    two = Sum([(2, line), (-3, ValueMap(FiniteSupport({(5, 5): 1}), {0: 4}, 9))])
    assert two.support() == (line.support().cosets + (((5, 5), ()),), -12)
    assert Sum([(1, line), (1, Mechanical((1, 0), QuadraticReal.sqrt(2)))]).support() is None
    assert ValueMap(readme_board(), {0: 1}, 0).support() is None


def test_terms_cancelling_on_the_cover():
    a = CosetIndicator((0, 1), [(1, 1)], 2)
    b = CosetIndicator((0, 1), [(1, 1)], 1)
    c = Sum([(1, a), (-2, b), (1, FiniteSupport({(3, 4): 5})), (-1, FiniteSupport({(3, 4): 5}))])
    assert c.support().background == 0 and len(c.support().cosets) == 4
    assert_sound(c, random.Random(1), boxes=6)
    assert not any(c.block((-9, -9), (9, 9)))
    sample = Window.box((-6, -6), (6, 6))
    assert pattern_complexity(c, Window.box((0, 0), (2, 2)), sample).count == 1
    # the keyed anchors are the ones near the cover and one other
    assert len(support_anchors(c, Window.box((0, 0), (2, 2)), sample)) < len(sample)


def test_recoded_background_is_a_nonzero_letter():
    lines = parse_config(TWO_LINES_3D)
    c = ValueMap(lines, {0: 5}, 1)
    assert c.support() == (lines.support().cosets, 5)
    assert_sound(c, random.Random(2), boxes=6)
    shape, sample = Window.box((0, 0, 0), (2, 2, 2)), Window.box((-12,) * 3, (9,) * 3)
    assert pattern_complexity(c, shape, sample).count == 19


def test_empty_finite_support_keys_one_anchor():
    c = FiniteSupport({}, dim=2)
    sample = Window.box((-3, 2), (4, 8))
    assert support_anchors(c, Window.box((0, 0), (1, 1)), sample) == Window.from_points([(-3, 2)])
    assert pattern_complexity(c, Window.box((0, 0), (1, 1)), sample).count == 1


# --- which anchors are keyed ------------------------------------------------------


def test_two_lines_key_397_of_10648_anchors():
    c = parse_config(TWO_LINES_3D)
    shape, sample = Window.box((0, 0, 0), (2, 2, 2)), Window.box((-12,) * 3, (9,) * 3)
    keyed = support_anchors(c, shape, sample)
    assert (len(sample), len(keyed)) == (10648, 397)
    # 22 x 3 x 3 anchors see each line, and (-12, -12, -12) sees neither
    assert keyed.bounds() == ((-12, -12, -12), (9, 9, 3))
    assert pattern_complexity(c, shape, sample).count == 19


def test_explicit_shapes_key_at_least_the_anchors_that_meet_the_cover():
    rng = random.Random("support/explicit-shape")
    for _ in range(30):
        c = supported_config(rng, 2)
        shape = Window.from_points([(rng.randint(-2, 3), rng.randint(-2, 3)) for _ in range(4)])
        sample = Window.box(*random_box(rng, 2))
        on_cover = cover_test(c.support())
        near = {a for a in sample if any(map(on_cover, shape.shift(a)))}
        got = set(support_anchors(c, shape, sample))
        assert near <= got <= set(sample)
        if len(got) < len(sample):
            assert got - near


# --- the rerouted sites, with and without the support ------------------------------


def test_a_sample_every_anchor_meets_is_kept():
    c = FiniteSupport({(0, 0): 1}, dim=2)
    sample = Window.box((-2, -2), (0, 0))
    assert support_anchors(c, Window.box((0, 0), (2, 2)), sample) is sample
