import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import pytest

import nivatk.nivat
from nivatk.configurations import (
    CosetIndicator,
    Periodic,
    pattern_complexity,
)
from nivatk.errors import (
    BlockTooSmallError,
    DegenerateDirectionError,
    DimensionMismatchError,
    NonPrimitiveError,
    ParallelDirectionsError,
    ZeroAreaError,
)
from nivatk.lattice import Lattice, Window
from nivatk.laurent import LaurentPolynomial as LP, line_factorization
from nivatk.nivat import (
    bound_disjoint_lines,
    bound_line_size,
    bound_two_directions,
    corollary_report,
    disjoint_pattern_line_count,
    line_pattern_census,
    nivat_scan,
    periodicity_class,
    scan_csv,
)
from nivatk.quadratic import QuadraticReal

from draws import BlockRecorder, binary_irrational, checkerboard, readme_board, rotation_rows, strip_inputs
from fast_paths import SCAN_SIZES, scan_reference


def test_bound_disjoint_lines_values():
    assert bound_disjoint_lines(1, 1, 2, 2) == 5
    assert bound_disjoint_lines(1, 0, 3, 2) == 2
    with pytest.raises(DegenerateDirectionError):
        bound_disjoint_lines(0, 0, 3, 3)


def test_bound_line_size_values():
    assert bound_line_size(1, 0, 4, 4, 1) == 4
    assert bound_line_size(1, 1, 2, 3, 2) == Fraction(5, 2)
    with pytest.raises(ZeroAreaError):
        bound_line_size(1, 0, 2, 2, 0)


def test_bound_two_directions_axes_give_block_area():
    for M in range(1, 11):
        for N in range(1, 11):
            assert bound_two_directions((1, 0), (0, 1), M, N) == M * N


def test_bound_two_directions_known_values_and_symmetry():
    assert bound_two_directions((1, 0), (0, 1), 4, 5) == 20
    a = bound_two_directions((1, 0), (1, -1), 3, 3)
    b = bound_two_directions((1, -1), (1, 0), 3, 3)
    assert a == b == 18


def test_bound_two_directions_every_primitive_pair():
    prims = [v for v in itertools.product(range(-4, 5), repeat=2) if math.gcd(*v) == 1]
    pairs = 0
    for (m1, n1), (m2, n2) in itertools.product(prims, repeat=2):
        if m1 * n2 == n1 * m2:
            continue
        pairs += 1
        for M, N in ((0, 0), (3, 2)):
            a1, b1, a2, b2 = abs(m1), abs(n1), abs(m2), abs(n2)
            want = Fraction((M * b1 + a1 * N) * (M * b2 + a2 * N), a1 * b2 + a2 * b1)
            assert bound_two_directions((m1, n1), (m2, n2), M, N) == want
    assert pairs > 2000


def test_bound_two_directions_input_checks():
    with pytest.raises(ParallelDirectionsError):
        bound_two_directions((1, 0), (-1, 0), 3, 3)
    with pytest.raises(NonPrimitiveError):
        bound_two_directions((2, 0), (0, 1), 3, 3)


def test_bound_two_directions_rejects_non_integral_directions():
    with pytest.raises(TypeError):
        bound_two_directions((1.5, 1), (1, -1), 3, 3)


def test_corollary_report_plain_bbox_bound():
    f = LP(2, {(2, 2): Fraction(1), (0, 0): Fraction(1)})
    rep = corollary_report(f, None, 5, 5)
    assert rep.bbox_f == (2, 2)
    assert rep.bounds == [("cor-a", 9)]
    assert rep.best == ("cor-a", 9)
    assert rep.alpha is None


def test_corollary_report_three_directions_doubles():
    f = (LP.difference((1, 0)) * LP.difference((0, 1))
         * LP.difference((1, -1)))
    lf = line_factorization(f)
    rep = corollary_report(f, lf, 5, 5)
    names = dict(rep.bounds)
    assert names["cor-a"] == 9
    assert names["cor-c"] == 18
    assert rep.best == ("cor-c", 18)
    assert rep.conditional == ("cor-c",)
    assert rep.alpha is None


def test_corollary_report_block_too_small():
    f = LP(2, {(2, 2): Fraction(1), (0, 0): Fraction(1)})
    with pytest.raises(BlockTooSmallError):
        corollary_report(f, None, 1, 5)


def test_scan_inconclusive_for_low_complexity():
    rows = nivat_scan(checkerboard(), range(2, 3), range(2, 3),
                      Window.box((0, 0), (30, 30)))
    assert len(rows) == 1
    row = rows[0]
    assert (row.M, row.N) == (2, 2)
    assert row.lower_bound_count == 2
    assert row.threshold == 4
    assert row.verdict == "Inconclusive"


def test_scan_exceeds_for_irrational_sum():
    rows = nivat_scan(binary_irrational(), range(2, 5), range(2, 5),
                      Window.box((0, 0), (119, 119)))
    assert len(rows) == 9
    assert all(r.verdict == "ExceedsMN" for r in rows)
    # row order is M-major then N
    assert [(r.M, r.N) for r in rows[:4]] == [(2, 2), (2, 3), (2, 4), (3, 2)]


def test_scan_counts_are_certified_lower_bounds():
    c = binary_irrational()
    sample = Window.box((0, 0), (59, 59))
    for row in nivat_scan(c, range(2, 4), range(2, 4), sample):
        shape = Window.box((0, 0), (row.M - 1, row.N - 1))
        true_count = pattern_complexity(c, shape, sample).count
        assert row.lower_bound_count <= true_count
        if row.verdict == "ExceedsMN":
            assert true_count > row.M * row.N


def test_scan_monotone_in_sample():
    c = binary_irrational()
    small = nivat_scan(c, range(2, 4), range(2, 4), Window.box((0, 0), (39, 39)))
    large = nivat_scan(c, range(2, 4), range(2, 4), Window.box((0, 0), (79, 79)))
    for a, b in zip(small, large):
        if a.verdict == "ExceedsMN":
            assert b.verdict == "ExceedsMN"


def test_scan_csv_format():
    rows = nivat_scan(checkerboard(), range(2, 3), range(2, 3),
                      Window.box((0, 0), (10, 10)))
    assert scan_csv(rows) == "M,N,count,threshold,verdict\n2,2,2,4,Inconclusive\n"


def test_scan_constant_configuration():
    const = Periodic(Lattice([(1, 0), (0, 1)]), {(0, 0): 7})
    rows = nivat_scan(const, range(2, 3), range(2, 3),
                      Window.box((0, 0), (20, 20)))
    assert rows[0].lower_bound_count == 1
    assert rows[0].verdict == "Inconclusive"


def test_scan_rejects_non_integral_block_extents():
    with pytest.raises(TypeError):
        nivat_scan(checkerboard(), [2.7], [2], Window.box((0, 0), (10, 10)))


@pytest.fixture
def strips(monkeypatch):
    """The samples the scan reads in strips, call by call."""
    seen = []
    real = nivatk.nivat._strip_counts

    def recording(c, Ms, Ns, sample):
        seen.append(sample)
        return real(c, Ms, Ns, sample)

    monkeypatch.setattr(nivatk.nivat, "_strip_counts", recording)
    return seen


def test_strip_scan_reads_a_box_sample_whole_in_one_call(strips):
    rng = random.Random("scan/strips")
    for height in (1, 2, 3, 7, 8, 9, 15, 16, 17):
        for c in strip_inputs(rng):
            lo = (rng.randint(-60, 60), rng.randint(-60, 60))
            sample = Window.box(lo, (lo[0] + height - 1, lo[1] + rng.randint(0, 24)))
            strips.clear()
            nivat_scan(c, rng.choice(SCAN_SIZES), rng.choice(SCAN_SIZES), sample)
            assert strips == [sample]


def test_strip_scan_reads_every_strip_for_inconclusive_rows(strips):
    c = BlockRecorder(rotation_rows(QuadraticReal.sqrt(2)))
    sample = Window.box((-7, 3), (32, 30))
    rows = nivat_scan(c, [1, 3], [2, 4], sample)
    assert strips == [sample]
    assert [(r.M, r.N, r.lower_bound_count, r.verdict) for r in rows] == scan_reference(c, [1, 3], [2, 4], sample)
    assert [r.verdict for r in rows] == ["ExceedsMN", "ExceedsMN", "Inconclusive", "Inconclusive"]
    assert c.cells >= len(sample)
    # each square on the way to the whole box is filled once, not once per
    # size; cover is the cells under the anchors' blocks
    cover = (40 + 3 - 1) * (28 + 4 - 1)
    assert c.cells < 3 * cover


def test_strip_scan_fills_a_tenth_of_the_covering_pattern():
    # criterion 09's scan: one covering pattern holds 407^2 cells
    c = BlockRecorder(binary_irrational())
    rows = nivat_scan(c, range(2, 9), range(2, 9), Window.box((0, 0), (399, 399)))
    assert all(r.verdict == "ExceedsMN" for r in rows)
    assert c.cells < 407 ** 2 // 10


@pytest.mark.parametrize("sizes, hi", [
    (range(2, 5), (9, 999_999)),
    (range(2, 5), (999_999, 9)),
    # criterion 09's scan, which read 4,477 cells in anchor rows as wide as the sample
    (range(2, 9), (399, 399)),
], ids=["10x10^6", "10^6x10", "criterion-09"])
def test_an_early_exit_reads_cells_by_its_answer_not_by_the_sample(sizes, hi):
    c = BlockRecorder(binary_irrational())
    rows = nivat_scan(c, sizes, sizes, Window.box((0, 0), hi))
    assert all(r.verdict == "ExceedsMN" for r in rows)
    assert c.cells < 1000


@pytest.mark.parametrize("c, verdict, limit", [
    # every size's key set held at once peaked at 6.0 MB, one at a time at 0.5 MB
    (binary_irrational(), "ExceedsMN", 2_000_000),
    # every row read: names of all 20 lengths held at once peaked at 1.8 MB, one length at 0.3 MB
    (rotation_rows(QuadraticReal.sqrt(2)), "Inconclusive", 1_000_000),
], ids=["exceeds", "inconclusive"])
def test_strip_scan_holds_one_key_set_and_one_name_length_at_a_time(c, verdict, limit):
    # an untraced scan first fills CPython's tuple free lists, so that the
    # traced peak counts what the scan holds, not how its tuples are built
    box = Window.box((0, 0), (79, 79))
    nivat_scan(c, range(2, 21), range(2, 21), box)
    tracemalloc.start()
    try:
        rows = nivat_scan(c, range(2, 21), range(2, 21), box)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(r.verdict == verdict for r in rows)
    assert peak < limit


def test_line_pattern_census_axis_line():
    c = CosetIndicator((0, 0), [(1, 0)], 1)
    census = line_pattern_census(c, Window.box((0, 0), (1, 1)), (1, 0),
                                 Window.box((0, 0), (7, 7)))
    assert len(census) == 8
    assert all(count == 1 for _, count in census)


def test_line_pattern_census_checkerboard_row():
    c = checkerboard()
    census = line_pattern_census(c, Window.box((0, 0), (0, 0)), (1, 0),
                                 Window.box((0, 0), (9, 0)))
    assert census == [((0, 0), 2)]


def test_disjoint_pattern_line_count():
    c = checkerboard()
    one = Window.box((0, 0), (0, 0))
    # all anchors in a single row form one line of patterns
    assert disjoint_pattern_line_count(c, one, (1, 0), Window.box((0, 0), (9, 0))) == 1
    # diagonals alternate between all-zero and all-one: two disjoint lines
    assert disjoint_pattern_line_count(c, one, (1, 1), Window.box((0, 0), (9, 9))) == 2


def test_census_dimension_checks():
    board = readme_board()
    sample = Window.box((0, 0), (5, 5))
    for census in (line_pattern_census, disjoint_pattern_line_count):
        with pytest.raises(DimensionMismatchError):
            census(board, Window.box((0, 0, 0), (1, 1, 1)), (1, 0), sample)
        with pytest.raises(DimensionMismatchError):
            census(board, Window.box((0, 0), (1, 1)), (1, 0, 0), sample)


def test_census_rejects_non_integral_directions():
    board = readme_board()
    for census in (line_pattern_census, disjoint_pattern_line_count):
        with pytest.raises(TypeError):
            census(board, Window.box((0, 0), (1, 1)), (1.5, 0), Window.box((0, 0), (5, 5)))


def test_periodicity_class_confirmed_doubly_periodic():
    rep = periodicity_class(search_result=[(1, 1)], config=checkerboard(),
                            periods=[(2, 0), (0, 2)])
    assert rep.label == "DoublyPeriodicCandidate"
    assert rep.certain
    assert rep.direction_count == 1
    assert set(rep.verified_periods) == {(2, 0), (0, 2)}


def test_periodicity_class_rejects_non_integral_periods():
    # int() would certify (2, 0), a period the caller never gave
    with pytest.raises(TypeError):
        periodicity_class(config=checkerboard(), periods=[(2.9, 0.5)],
                          sample=Window.box((0, 0), (5, 5)))


def test_periodicity_class_single_period():
    rep = periodicity_class(config=checkerboard(), periods=[(1, 1)])
    assert rep.label == "OnePeriodicCandidate"
    assert rep.certain


def test_periodicity_class_three_directions_proxy():
    rep = periodicity_class(search_result=[(1, 0), (0, 1), (1, -1)])
    assert rep.label == "NonPeriodicCandidate"
    assert not rep.certain
    assert rep.direction_count == 3


SQUARE_LINES = LP.difference((1, 0)) * LP.difference((0, 1))  # directions (0,1), (1,0)


@pytest.mark.parametrize("kwargs, label, certain, count, periods", [
    (dict(search_result=[]), "DoublyPeriodicCandidate", False, 0, ()),
    (dict(search_result=[(2, 0)]), "OnePeriodicCandidate", False, 1, ()),
    (dict(search_result=[(1, 0), (0, 3)]), "NonPeriodicCandidate", False, 2, ()),
    (dict(lf=True), "NonPeriodicCandidate", False, 2, ()),
    (dict(lf=True, search_result=[(1, 0), (1, 1)]), "OnePeriodicCandidate", False, 1, ()),
    (dict(lf=True, search_result=[(1, 1)]), "DoublyPeriodicCandidate", False, 0, ()),
    (dict(search_result=[(1, 0), (0, 1), (1, -1)], periods=[(1, 0)]),
     "NonPeriodicCandidate", False, 3, ()),
    (dict(search_result=[(1, 0), (0, 1), (1, -1)], periods=[(1, 1), (2, 2), (1, 0)]),
     "OnePeriodicCandidate", True, 3, ((1, 1), (2, 2))),
    (dict(periods=[(1, 0), (1, -1), (1, 1)]),
     "DoublyPeriodicCandidate", True, None, ((1, -1), (1, 1))),
    (dict(), "Unknown", False, None, ()),
])
def test_periodicity_class_every_label_branch(kwargs, label, certain, count, periods):
    kwargs = dict(kwargs)
    if kwargs.pop("lf", False):
        kwargs["lf"] = line_factorization(SQUARE_LINES)
    if "periods" in kwargs:
        kwargs["config"] = checkerboard()
    rep = periodicity_class(**kwargs)
    assert (rep.label, rep.certain, rep.direction_count, rep.verified_periods) == (
        label, certain, count, periods)


def test_periodicity_class_no_information():
    rep = periodicity_class()
    assert rep.label == "Unknown"
    assert not rep.certain


def test_periodicity_class_periods_need_config():
    with pytest.raises(ValueError):
        periodicity_class(periods=[(2, 0)])
