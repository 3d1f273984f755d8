"""Pattern keys and the line census against keys read anchor by anchor.

pattern_complexity, nivat_scan, the line census and find_annihilator are
rows of the differential table in fast_paths.py, which test_fast_paths.py
runs.  The key layouts on axes of extent 1 and the census keyed by residue
class are checked here on seeded descriptors of all six variants in
dimensions 1 to 3.
"""

import itertools
import random

import pytest

import nivatk.nivat
from nivatk.configurations import (
    CosetIndicator,
    Mechanical,
    Pattern,
    Sum,
    ValueMap,
    covering_pattern,
)
from nivatk.lattice import Window, vec_add, vec_dot, vec_scale, vec_sub
from nivatk.nivat import disjoint_pattern_line_count, line_pattern_census
from nivatk.quadratic import QuadraticReal

from draws import ANCHORS, _triangular_generators, cases, random_board, random_config, random_window, readme_board
from fast_paths import CENSUS_STEPS, census_reference, ref_keys


def ref_slice_keys(table, shape, anchors):
    """Keys read anchor by anchor: one slice per run of shape cells consecutive
    in shape order and in the table, the runs found cell by cell."""
    runs = []
    for u in shape:
        off = vec_dot(u, table.strides)
        if runs and runs[-1][1] == off:
            runs[-1][1] = off + 1
        else:
            runs.append([off, off + 1])
    bases = [vec_dot(vec_sub(a, table.shape.lo), table.strides) for a in anchors]
    return [tuple(table.cells[b + start:b + stop] for start, stop in runs) for b in bases]


@pytest.mark.parametrize("seed", [91, 92])
def test_keys_with_extent_one_trailing_axes_match_reference(seed):
    """Shapes and anchors of extent 1 on trailing axes make the layout's rows
    fold; box tables, and the stacked blocks covering_pattern builds once one
    anchor lies far past the others, give the per-anchor keys and values."""
    rng = random.Random(seed)
    for d, variant in cases(60):
        c = random_config(rng, d, variant)
        shape = random_window(rng, d, 2, flat=rng.randint(0, d - 1))
        anchors = random_window(rng, d, ANCHORS[d], flat=rng.randint(0, d - 1))
        want = ref_keys(c, shape, anchors)
        (alo, ahi), (slo, shi) = anchors.bounds(), shape.bounds()
        box = Window.box(vec_add(alo, slo), vec_add(ahi, shi))
        spread = Window.from_points([*anchors, (ahi[0] + 10**4,) + alo[1:]])
        stacked = covering_pattern(c, shape, spread)
        assert stacked[1] is not spread
        for table, at in ((Pattern(box, c.block(box.lo, box.hi)), anchors), stacked):
            got = list(table.keys(shape, at))[:len(anchors)]
            assert got == ref_slice_keys(table, shape, at)[:len(anchors)]
            assert [tuple(itertools.chain.from_iterable(key)) for key in got] == want


def census_configs(rng, d):
    """Full rank periods() that are not a bare Periodic, then rank < d ones."""
    full = [Sum([(1, random_board(rng, d)), (rng.choice((-1, 2)), random_board(rng, d))]),
            ValueMap(random_board(rng, d), {0: 1, 1: 0}, 2),
            CosetIndicator(tuple(rng.randint(-3, 3) for _ in range(d)),
                           _triangular_generators(rng, d, d), 3)]
    rank_low = [Mechanical(tuple(rng.randint(-2, 2) for _ in range(d - 1)) + (1,),
                           QuadraticReal.sqrt(2))]
    if d > 1:
        rank_low.append(CosetIndicator(tuple(rng.randint(-3, 3) for _ in range(d)),
                                       _triangular_generators(rng, d, 1), 2))
    return full, rank_low


@pytest.fixture
def keyed_anchors(monkeypatch):
    """The anchors of every covering_pattern the census builds, call by call."""
    seen = []

    def recording(c, shape, anchors):
        seen.append(anchors)
        return covering_pattern(c, shape, anchors)

    monkeypatch.setattr(nivatk.nivat, "covering_pattern", recording)
    return seen


@pytest.mark.parametrize("v", CENSUS_STEPS)
def test_line_census_by_residue_class_matches_reference(v, keyed_anchors):
    """Descriptors with a full rank periods() key one anchor per class; the
    others key every anchor.  Counts and greedy counts match the reference,
    and a box sample, read line by line, gives what its cells as an explicit
    sample, read anchor by anchor, give.  At the boundary, samples of index
    cells key the residue box and samples of index - 1 cells every anchor;
    thin boxes, scattered points and points of one class miss classes."""
    d = len(v)
    rng = random.Random(f"census/classes/{v}")

    def check(c, shape, sample, full):
        census, kept = census_reference(c, shape, v, sample)
        keyed_anchors.clear()
        assert line_pattern_census(c, shape, v, sample) == census
        assert disjoint_pattern_line_count(c, shape, v, sample) == kept
        lattice = c.periods()
        if c in full and lattice.index() <= len(sample):
            assert all(len(a) <= lattice.index() for a in keyed_anchors)
        else:
            assert all(a == sample for a in keyed_anchors)

    for k in range(4):
        full, rank_low = census_configs(rng, d)
        lo = tuple(rng.randint(-9, -3) for _ in range(d))
        if k % 2:
            box = Window.box(lo, tuple(a + {1: 12, 2: 9, 3: 4}[d] for a in lo))
            samples = [box, Window.from_points(box)]
        else:
            samples = [Window.from_points([tuple(a + rng.randint(0, 8) for a in lo)
                                           for _ in range(rng.randint(20, 40))])]
        shape = random_window(rng, d, 3)
        for c, sample in itertools.product(full + rank_low, samples):
            check(c, shape, sample, full)

    full, _ = census_configs(rng, d)
    shape = random_window(rng, d, 3)
    for c in full:
        lattice = c.periods()
        n, lo = lattice.index(), tuple(rng.randint(-9, -3) for _ in range(d))
        samples = [Window.from_points({vec_add(lo, vec_scale(t, g))
                                       for t in range(n + 1) for g in lattice.basis()})]
        for m in (n, n - 1) if n > 1 else (n,):
            points = set()
            while len(points) < m:
                points.add(tuple(a + rng.randint(0, m) for a in lo))
            samples += [Window.box(lo, (lo[0] + m - 1,) + lo[1:]), Window.from_points(points)]
        for sample in samples:
            check(c, shape, sample, full)


def test_line_census_keys_one_anchor_per_class_on_the_readme_board(keyed_anchors):
    c = readme_board()
    sample = Window.box((0, 0), (59, 59))
    census = line_pattern_census(c, Window.box((0, 0), (2, 2)), (2, 1), sample)
    assert sum(n for _, n in census) > len(census)
    assert [len(a) for a in keyed_anchors] == [2]
