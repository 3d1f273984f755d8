import math
import random

import pytest

from nivatk.configurations import (
    CosetIndicator,
    FiniteSupport,
    Mechanical,
    Sum,
    ValueMap,
    extract_pattern,
    pattern_complexity,
)
from nivatk.errors import (
    DimensionMismatchError,
    EmptySampleError,
    EmptyShapeError,
    ZeroVectorError,
)
from nivatk.lattice import Window
from nivatk.laurent import periodicity_test
from nivatk.quadratic import QuadraticReal

from draws import binary_irrational, checkerboard, two_lines_3d


def test_periodic_values_and_translates():
    c = checkerboard()
    assert [[c.value((i, j)) for j in range(4)] for i in range(2)] == [
        [0, 1, 0, 1],
        [1, 0, 1, 0],
    ]
    for i in range(-5, 5):
        for j in range(-5, 5):
            assert c.value((i, j)) == c.value((i + 2, j))
            assert c.value((i, j)) == (i + j) % 2


def test_coset_indicator_values():
    c = CosetIndicator((0, 0, 3), [(0, 1, 0)], 1)
    assert c.value((0, 5, 3)) == 1
    assert c.value((0, -2, 3)) == 1
    assert c.value((1, 0, 3)) == 0
    assert c.value((0, 0, 0)) == 0


def test_mechanical_matches_floor_differences():
    r2 = QuadraticReal.sqrt(2)
    c = Mechanical((1, 1), r2)
    for i in range(-10, 10):
        for j in range(-10, 10):
            assert c.value((i, j)) == math.floor((i + j) * math.sqrt(2))


def test_mechanical_rejects_non_integral_weights():
    # int() would read (1.5, 1) as (1, 1)
    with pytest.raises(TypeError):
        Mechanical((1.5, 1), QuadraticReal.sqrt(2))


def test_binary_irrational_values_are_bits():
    c = binary_irrational()
    values = {c.value((i, j)) for i in range(-30, 30) for j in range(-30, 30)}
    assert values == {0, 1}


def test_finite_support():
    c = FiniteSupport({(0, 0): 1, (2, 3): -4})
    assert c.value((2, 3)) == -4
    assert c.value((1, 1)) == 0
    empty = FiniteSupport({}, dim=2)
    assert empty.value((0, 0)) == 0


def test_sum_and_valuemap():
    c = Sum([(2, FiniteSupport({(0,): 3})), (-1, FiniteSupport({(0,): 1}))])
    assert c.value((0,)) == 5
    m = ValueMap(c, {5: 9}, default=0)
    assert m.value((0,)) == 9
    assert m.value((1,)) == 0


def test_extract_pattern_anchoring():
    c = checkerboard()
    p = extract_pattern(c, (1, 1), Window.box((0, 0), (1, 1)))
    assert p.values == {(1, 1): 0, (1, 2): 1, (2, 1): 1, (2, 2): 0}
    assert p.cells == (0, 1, 1, 0)


def test_pattern_key_identifies_translates():
    c = checkerboard()
    a = extract_pattern(c, (0, 0), Window.box((0, 0), (1, 1)))
    b = extract_pattern(c, (2, 4), Window.box((0, 0), (1, 1)))
    assert a.cells == b.cells


def test_complexity_checkerboard_exact():
    res = pattern_complexity(checkerboard(), Window.box((0, 0), (1, 1)))
    assert res.count == 2
    assert res.exact


def test_complexity_two_lines_matches_closed_form():
    c = two_lines_3d()
    shape = Window.box((0, 0, 0), (2, 2, 2))
    sample = Window.box((-12, -12, -12), (9, 9, 9))
    res = pattern_complexity(c, shape, sample)
    assert res.count == 19  # 2*3^2 + 1
    assert not res.exact


def test_complexity_monotone_in_sample():
    c = binary_irrational()
    shape = Window.box((0, 0), (2, 2))
    small = pattern_complexity(c, shape, Window.box((0, 0), (20, 20)))
    large = pattern_complexity(c, shape, Window.box((0, 0), (60, 60)))
    assert small.count <= large.count


def test_complexity_requires_sample_for_aperiodic():
    c = binary_irrational()
    with pytest.raises(EmptySampleError):
        pattern_complexity(c, Window.box((0, 0), (1, 1)))


def test_complexity_rejects_bad_shapes():
    c = checkerboard()
    with pytest.raises(DimensionMismatchError):
        pattern_complexity(c, Window.box((0, 0, 0), (1, 1, 1)))
    with pytest.raises(EmptyShapeError):
        pattern_complexity(c, Window.from_points([]))


def test_merge_letters_never_increases_complexity():
    rng = random.Random(11)
    c = checkerboard()
    shape = Window.box((0, 0), (2, 1))
    sample = Window.box((0, 0), (10, 10))
    for _ in range(20):
        mapping = {0: rng.randint(0, 1), 1: rng.randint(0, 1)}
        merged = ValueMap(c, mapping, default=0)
        a = pattern_complexity(merged, shape, sample)
        b = pattern_complexity(c, shape, sample)
        assert a.count <= b.count


def test_merge_letters_identity_keeps_counts():
    c = checkerboard()
    shape = Window.box((0, 0), (1, 1))
    sample = Window.box((0, 0), (8, 8))
    merged = ValueMap(c, {0: 0, 1: 1}, default=0)
    assert (pattern_complexity(merged, shape, sample).count
            == pattern_complexity(c, shape, sample).count)


def test_merge_letters_collapse_to_constant():
    c = binary_irrational()
    merged = ValueMap(c, {0: 0, 1: 0}, default=0)
    res = pattern_complexity(merged, Window.box((0, 0), (2, 2)),
                             Window.box((0, 0), (30, 30)))
    assert res.count == 1


def test_periodicity_test_periodic_descriptor_is_exact():
    c = checkerboard()
    assert periodicity_test(c, (2, 0)).status == "periodic"
    assert periodicity_test(c, (1, 1)).status == "periodic"
    bad = periodicity_test(c, (1, 0))
    assert bad.status == "not-periodic"
    assert bad.witness is not None


def test_periodicity_test_rejects_non_integral_vectors():
    # int() would read (2.9, 0.5) as the period (2, 0)
    with pytest.raises(TypeError):
        periodicity_test(checkerboard(), (2.9, 0.5))


def test_periodicity_test_sampled_refutation_and_unknown():
    c = binary_irrational()
    sample = Window.box((0, 0), (30, 30))
    assert periodicity_test(c, (1, 0), sample).status == "not-periodic"
    # no finite sample can promote an aperiodic descriptor past "unknown"
    r2 = QuadraticReal.sqrt(2)
    row_constant = Mechanical((0, 1), r2)
    assert periodicity_test(row_constant, (1, 0), sample).status == "unknown"


def test_periodicity_test_rejects_zero_vector():
    with pytest.raises(ZeroVectorError):
        periodicity_test(checkerboard(), (0, 0))
