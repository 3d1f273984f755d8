import math
import random

import pytest

from nivatk.errors import (
    DimensionMismatchError,
    NonPrimitiveError,
    RankDeficientError,
    ZeroVectorError,
)
from nivatk.lattice import (
    Lattice,
    Window,
    canonical_sign,
    primitive_vector,
    unimodular_complement,
    vec_add,
    vec_sub,
)

from draws import random_lattice


def test_canonical_sign_makes_first_nonzero_positive():
    assert canonical_sign((-1, 2)) == (1, -2)
    assert canonical_sign((0, -3)) == (0, 3)
    assert canonical_sign((2, -5)) == (2, -5)
    assert canonical_sign((0, 0)) == (0, 0)


def test_primitive_vector_divides_out_gcd():
    assert primitive_vector((4, -6)) == (2, -3)
    assert primitive_vector((0, 5, 0)) == (0, 1, 0)
    with pytest.raises(ZeroVectorError):
        primitive_vector((0, 0))


def test_unimodular_complement_determinant_and_minimality():
    rng = random.Random(7)
    seen = 0
    while seen < 100:
        v = (rng.randint(-9, 9), rng.randint(-9, 9))
        if v == (0, 0) or math.gcd(*v) != 1:
            continue
        seen += 1
        w = unimodular_complement(v)
        assert v[0] * w[1] - v[1] * w[0] in (1, -1)
        best = min(
            abs(a) + abs(b)
            for a in range(-25, 26)
            for b in range(-25, 26)
            if abs(v[0] * b - v[1] * a) == 1
        )
        assert abs(w[0]) + abs(w[1]) == best
        assert unimodular_complement(v) == w


def test_unimodular_complement_rejects_bad_input():
    with pytest.raises(NonPrimitiveError):
        unimodular_complement((2, 4))
    with pytest.raises(ZeroVectorError):
        unimodular_complement((0, 0))
    with pytest.raises(DimensionMismatchError):
        unimodular_complement((1, 0, 0))


def test_lattice_square():
    lat = Lattice([(2, 0), (0, 2)])
    assert lat.index() == 4
    assert lat.residues() == ((0, 0), (0, 1), (1, 0), (1, 1))
    assert lat.contains((2, 0))
    assert lat.contains((-4, 2))
    assert not lat.contains((1, 0))
    assert lat.reduce((3, 5)) == (1, 1)


def test_lattice_skew_basis_is_canonical():
    lat = Lattice([(3, 0), (1, 1)])
    assert lat.basis() == ((3, 0), (1, 1))
    assert lat.index() == 3
    assert lat.residues() == ((0, 0), (1, 0), (2, 0))
    assert lat.reduce((7, 5)) == (2, 0)
    # the same lattice through a different generating set
    same = Lattice([(1, 1), (-2, 1)])
    assert same == lat
    assert same.basis() == lat.basis()


def test_lattice_reduction_is_a_residue_map():
    lat = Lattice([(3, 0), (1, 1)])
    res = set(lat.residues())
    rng = random.Random(1)
    for _ in range(200):
        v = (rng.randint(-20, 20), rng.randint(-20, 20))
        r = lat.reduce(v)
        assert r in res
        assert lat.contains(vec_sub(v, r))


def test_lattice_rejects_degenerate_generators():
    with pytest.raises(RankDeficientError):
        Lattice([(2, 0), (0, 2), (2, 2)])
    with pytest.raises(ZeroVectorError):
        Lattice([(1, 0), (0, 0)])
    with pytest.raises(ZeroVectorError):
        Lattice([])
    with pytest.raises(DimensionMismatchError):
        Lattice([(1, 0), (0, 1, 0)])


def test_rank_deficient_lattice_limits():
    lat = Lattice([(1, 1)])
    assert lat.rank == 1
    assert not lat.is_full_rank
    assert lat.contains((2, 2))
    assert not lat.contains((1, 0))
    with pytest.raises(RankDeficientError):
        lat.index()
    with pytest.raises(RankDeficientError):
        lat.residues()


def test_lattice_3d():
    lat = Lattice([(2, 0, 0), (0, 3, 0), (0, 0, 5)])
    assert lat.index() == 30
    assert len(lat.residues()) == 30
    assert lat.reduce((7, -1, 12)) == (1, 2, 2)


def classes(lat, window):
    return {lat.reduce(a) for a in window}


@pytest.mark.parametrize("d", (1, 2, 3))
def test_every_translate_of_the_residue_box_holds_each_class_once(d):
    rng = random.Random(f"residue-box/{d}")
    for _ in range(40):
        lat = random_lattice(rng, d, max_index=60)
        for _ in range(5):
            box = lat.residue_box().shift([rng.randint(-30, 30) for _ in range(d)])
            assert len(box) == len(classes(lat, box)) == lat.index()


@pytest.mark.parametrize("d", (1, 2, 3))
def test_the_index_corner_of_a_box_meets_the_same_classes(d):
    rng = random.Random(f"index-corner/{d}")
    for _ in range(40):
        lat = random_lattice(rng, d, max_index={1: 40, 2: 24, 3: 12}[d])
        n = lat.index()
        lo = [rng.randint(-30, 30) for _ in range(d)]
        # thin axes of one cell, and others up to past the index
        hi = [a + rng.choice((0, rng.randint(0, n + 2))) for a in lo]
        corner = Window.box(lo, [min(b, a + n - 1) for a, b in zip(lo, hi)])
        assert classes(lat, corner) == classes(lat, Window.box(lo, hi))


def test_window_box_iteration_and_membership():
    w = Window.box((0, 0), (1, 2))
    assert len(w) == 6
    assert list(w) == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]
    assert (0, 1) in w
    assert (2, 0) not in w
    assert w.is_box


def test_window_shift_and_intersect():
    w = Window.box((0, 0), (1, 1)).shift((2, 3))
    assert w.bounds() == ((2, 3), (3, 4))
    isect = Window.box((0, 0), (3, 3)).intersect(Window.box((2, 2), (5, 5)))
    assert isect.bounds() == ((2, 2), (3, 3))
    assert Window.box((0, 0), (1, 1)).intersect(Window.box((5, 5), (6, 6))) is None


def test_window_from_points_dedupes_and_sorts():
    w = Window.from_points([(3, 1), (0, 0), (3, 1)])
    assert list(w) == [(0, 0), (3, 1)]
    assert len(w) == 2
    assert not w.is_box
    assert w.bounds() == ((0, 0), (3, 1))
    assert (3, 1) in w and (1, 1) not in w


def test_window_hash_agrees_with_eq():
    box = Window.box((0, 0), (1, 1))
    explicit = Window.from_points([(0, 0), (0, 1), (1, 0), (1, 1)])
    assert box == explicit
    assert hash(box) == hash(explicit)
    assert len({box, explicit}) == 1


def test_window_translate_covariance():
    w = Window.box((-1, -1), (1, 1))
    v = (4, -2)
    assert [vec_add(p, v) for p in w] == list(w.shift(v))
