"""Certified supports and the counts keyed only near them.

Configuration.support() returns cosets with the configuration constant off
their union, or None; every certified support is checked cell by cell on
seeded random descriptors of all six variants.  Each counting site that
keys only the anchors near the support (sampled pattern_complexity,
nivat_scan and find_annihilator) is compared with the same call with
support() returning None on every variant.
"""

import random

import pytest

import nivatk.configurations
from nivatk.annihilator import find_annihilator
from nivatk.cli import TWO_LINES_3D
from nivatk.configurations import (
    Configuration,
    CosetIndicator,
    FiniteSupport,
    Mechanical,
    Sum,
    ValueMap,
    pattern_complexity,
    support_anchors,
)
from nivatk.errors import VerificationFailedError
from nivatk.lattice import Lattice, Window, vec_sub
from nivatk.nivat import nivat_scan
from nivatk.quadratic import QuadraticReal
from nivatk.textio import parse_config

from draws import (
    VARIANTS,
    _triangular_generators,
    random_box,
    random_config,
    readme_board,
    run_both,
)


def cover_test(support):
    """Membership in one of the support's cosets, by lattice membership."""
    cosets = [(offset, Lattice(basis) if basis else None) for offset, basis in support.cosets]

    def on_cover(u) -> bool:
        return any(not any(w) if lat is None else lat.contains(w)
                   for w, lat in ((vec_sub(u, offset), lat) for offset, lat in cosets))

    return on_cover


def random_coset(rng, d, value=None):
    """A CosetIndicator of rank 1..d-1, or a point in d = 1."""
    offset = tuple(rng.randint(-5, 5) for _ in range(d))
    value = rng.randint(-3, 3) if value is None else value
    if d == 1:
        return FiniteSupport({offset: value}, dim=1)
    return CosetIndicator(offset, _triangular_generators(rng, d, rng.randint(1, d - 1)), value)


def supported_config(rng, d, depth=2):
    """A random descriptor built only from variants that certify a support."""
    kind = rng.choice(("coset", "finite") + (("sum", "valuemap") if depth > 0 else ()))
    if kind == "coset":
        return random_coset(rng, d)
    if kind == "finite":
        return random_config(rng, d, "finite")
    if kind == "sum":
        return Sum([(rng.randint(-3, 3), supported_config(rng, d, depth - 1))
                    for _ in range(rng.randint(1, 3))])
    mapping = {k: rng.randint(-2, 4) for k in range(-4, 5) if rng.random() < 0.5}
    return ValueMap(supported_config(rng, d, depth - 1), mapping, rng.randint(-1, 1))


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


def brute_force_anchors(c, shape, sample):
    """Sample anchors whose shape meets the cover, plus the first that does not."""
    on_cover = cover_test(c.support())
    near = {a for a in sample if any(map(on_cover, shape.shift(a)))}
    far = [a for a in sample if a not in near]
    return Window.from_points(list(near) + far[:1])


def test_two_lines_key_397_of_10648_anchors():
    c = parse_config(TWO_LINES_3D)
    shape, sample = Window.box((0, 0, 0), (2, 2, 2)), Window.box((-12,) * 3, (9,) * 3)
    keyed = support_anchors(c, shape, sample)
    assert (len(sample), len(keyed)) == (10648, 397)
    # 22 x 3 x 3 anchors see each line, and (-12, -12, -12) sees neither
    assert keyed.bounds() == ((-12, -12, -12), (9, 9, 3))
    assert pattern_complexity(c, shape, sample).count == 19


@pytest.mark.parametrize("d", (1, 2, 3))
def test_keyed_anchors_match_brute_force_on_box_shapes(d):
    rng = random.Random(f"support/anchors/{d}")
    for _ in range(30):
        c = supported_config(rng, d)
        shape = Window.box(*random_box(rng, d))
        if rng.random() < 0.5:
            sample = Window.box(*random_box(rng, d))
        else:
            sample = Window.from_points(
                [tuple(rng.randint(-9, 9) for _ in range(d)) for _ in range(rng.randint(1, 20))])
        want = brute_force_anchors(c, shape, sample)
        got = support_anchors(c, shape, sample)
        assert got == want
        if len(want) == len(sample):
            assert got is sample


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


@pytest.fixture
def no_support(monkeypatch):
    """Key every anchor: support() gives None on every variant."""
    for cls in vars(nivatk.configurations).values():
        if isinstance(cls, type) and issubclass(cls, Configuration):
            monkeypatch.setattr(cls, "support", lambda self: None)


def site_inputs(rng, d):
    """Supported descriptors in d = 2: lines, points, their sums and recodings."""
    yield Sum([(1, CosetIndicator((0, 0), [(1, 0)])), (1, CosetIndicator((0, 3), [(1, 1)]))])
    yield ValueMap(FiniteSupport({(1, 1): 1, (2, 1): 2, (4, 3): 3}), {0: 7}, 0)
    yield FiniteSupport({(0, 0): 1}, dim=2)
    for _ in range(4):
        yield supported_config(rng, d)


def site_samples(rng, d):
    """Windows in d = 2: a box, scattered cells, a column and a box near the origin."""
    yield Window.box((-3, -2), (12, 10))
    yield Window.from_points([(rng.randint(-8, 8), rng.randint(-8, 8)) for _ in range(15)])
    yield Window.box((0, 0), (0, 5))
    # every anchor's 3x3 block meets the point at the origin
    yield Window.box((-2, -2), (0, 0))


def test_a_sample_every_anchor_meets_is_kept():
    c = FiniteSupport({(0, 0): 1}, dim=2)
    sample = Window.box((-2, -2), (0, 0))
    assert support_anchors(c, Window.box((0, 0), (2, 2)), sample) is sample


def test_nivat_scan_with_and_without_support(request):
    got, want = run_both(request, "no_support", lambda c, s: nivat_scan(c, range(1, 4), range(1, 4), s),
                         "support-sites", site_inputs, site_samples)
    assert got == want
    assert {r.verdict for rows in got for r in rows} == {"ExceedsMN", "Inconclusive"}


def test_pattern_complexity_with_and_without_support(request):
    shapes = (Window.box((0, 0), (2, 1)), Window.from_points([(0, 0), (1, 0), (0, 2)]))

    def call(c, sample):
        return [pattern_complexity(c, shape, sample) for shape in shapes]

    got, want = run_both(request, "no_support", call, "support-sites", site_inputs, site_samples)
    assert got == want
    assert len({r.count for rs in got for r in rs}) > 3


def test_find_annihilator_with_and_without_support(request):
    def call(c, sample):
        try:
            return find_annihilator(c, Window.box((0, 0), (1, 1)), sample,
                                    Window.box((-4, -4), (8, 8)))
        except VerificationFailedError as exc:
            return str(exc)

    got, want = run_both(request, "no_support", call, "support-sites", site_inputs, site_samples)
    assert got == want
    assert any(r is not None and not isinstance(r, str) for r in got) and None in got


def test_three_dimensional_sites_with_and_without_support(request):
    rng = random.Random("support-sites/3d")
    cases = [(parse_config(TWO_LINES_3D), Window.box((-12,) * 3, (9,) * 3))]
    cases += [(supported_config(rng, 3), Window.box(*random_box(rng, 3))) for _ in range(8)]
    shape = Window.box((0, 0, 0), (1, 1, 2))

    def results():
        out = []
        for c, sample in cases:
            out.append(pattern_complexity(c, shape, sample))
            try:
                out.append(find_annihilator(c, shape, sample, sample))
            except VerificationFailedError as exc:
                out.append(str(exc))
        return out

    got = results()
    request.getfixturevalue("no_support")
    assert got == results()
