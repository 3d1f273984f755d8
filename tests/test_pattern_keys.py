"""Differential test of the box-pattern keys.

Every pattern-counting entry point is compared, on seeded random
descriptors of all six variants in dimensions 1 to 3, against a per-anchor
reference that names each pattern by its values c.value(p), p in a + shape.
"""

import itertools
import random
from fractions import Fraction

import pytest

import nivatk.nivat
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
    pattern_complexity,
)
from nivatk.errors import VerificationFailedError
from nivatk.lattice import (
    Lattice,
    Window,
    canonical_sign,
    vec_add,
    vec_dot,
    vec_neg,
    vec_scale,
    vec_sub,
)
from nivatk.laurent import LaurentPolynomial, annihilates, apply
from nivatk.linalg import integer_primitive, nullspace_basis
from nivatk.nivat import disjoint_pattern_line_count, line_pattern_census, nivat_scan
from nivatk.quadratic import QuadraticReal

from draws import VARIANTS, readme_board


def _triangular_generators(rng, d, rank):
    gens = []
    for i in range(rank):
        g = [0] * d
        g[i] = rng.choice((1, 2, 3))
        for j in range(i + 1, d):
            g[j] = rng.randint(-2, 2)
        gens.append(tuple(g))
    return gens


def random_config(rng, d, variant):
    if variant == "periodic":
        lat = Lattice(_triangular_generators(rng, d, d))
        return Periodic(lat, {r: rng.randint(0, 2) for r in lat.residues()})
    if variant == "coset":
        offset = tuple(rng.randint(-3, 3) for _ in range(d))
        gens = _triangular_generators(rng, d, rng.randint(1, d))
        return CosetIndicator(offset, gens, rng.randint(1, 3))
    if variant == "mechanical":
        weights = tuple(rng.randint(-2, 2) for _ in range(d))
        alpha = rng.choice((QuadraticReal.sqrt(2), QuadraticReal.sqrt(5),
                            QuadraticReal.from_fraction(Fraction(rng.randint(1, 7), 5))))
        return Mechanical(weights, alpha)
    if variant == "finite":
        cells = {tuple(rng.randint(-4, 4) for _ in range(d)): rng.randint(-2, 2)
                 for _ in range(rng.randint(0, 6))}
        return FiniteSupport(cells, dim=d)
    if variant == "sum":
        leaves = ("periodic", "coset", "mechanical", "finite")
        return Sum([(rng.randint(-2, 2), random_config(rng, d, rng.choice(leaves)))
                    for _ in range(2)])
    inner = random_config(rng, d, rng.choice(("periodic", "mechanical", "sum")))
    mapping = {k: rng.randint(0, 3) for k in range(-2, 3) if rng.random() < 0.6}
    return ValueMap(inner, mapping, rng.randint(0, 1))


def random_box(rng, d, extent):
    lo = tuple(rng.randint(-4, 2) for _ in range(d))
    return Window.box(lo, tuple(a + rng.randint(0, extent - 1) for a in lo))


def random_shape(rng, d):
    if rng.random() < 0.5:
        return random_box(rng, d, 3)
    # an L: a corner plus an arm along each of two axes, or a random point set
    corner = tuple(rng.randint(-2, 1) for _ in range(d))
    if rng.random() < 0.5:
        pts = [corner]
        for axis in rng.sample(range(d), min(2, d)):
            for k in range(1, rng.randint(2, 3)):
                pts.append(tuple(x + k * (i == axis) for i, x in enumerate(corner)))
        return Window.from_points(pts)
    return Window.from_points(
        [tuple(x + rng.randint(0, 2) for x in corner) for _ in range(rng.randint(2, 5))])


def random_anchors(rng, d):
    extent = {1: 12, 2: 6, 3: 4}[d]
    if rng.random() < 0.6:
        return random_box(rng, d, extent)
    return Window.from_points(
        [tuple(rng.randint(-5, 5) for _ in range(d)) for _ in range(rng.randint(1, 20))])


def cases(seed, count):
    rng = random.Random(seed)
    for k in range(count):
        d = 1 + k % 3
        variant = VARIANTS[(k // 3) % len(VARIANTS)]
        yield rng, d, random_config(rng, d, variant), random_shape(rng, d), random_anchors(rng, d)


# --- per-anchor reference ---------------------------------------------------


def ref_keys(c, shape, anchors):
    return [tuple(c.value(p) for p in shape.shift(a)) for a in anchors]


def ref_count(keys, limit=None):
    seen = set()
    for key in keys:
        seen.add(key)
        if limit is not None and len(seen) > limit:
            break
    return len(seen)


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


def ref_groups(c, shape, v, anchors):
    step = canonical_sign(v)
    i0 = next(k for k, x in enumerate(step) if x != 0)
    groups = {}
    for a, key in zip(anchors, ref_keys(c, shape, anchors)):
        rep = vec_sub(a, vec_scale(a[i0] // step[i0], step))
        groups.setdefault(rep, set()).add(key)
    return groups


def ref_census(groups):
    """The census and the greedy disjoint line count of reference groups."""
    used, kept = set(), 0
    for rep in sorted(groups):
        if not groups[rep] & used:
            used |= groups[rep]
            kept += 1
    return sorted((rep, len(keys)) for rep, keys in groups.items()), kept


def ref_find_annihilator(c, shape, sample, verify):
    shape_pts = list(shape)
    rows = sorted({(1,) + key for key in ref_keys(c, shape, sample)})
    kernel = nullspace_basis([list(r) for r in rows])
    if not kernel:
        return None
    a = integer_primitive(kernel[0])
    g = LaurentPolynomial(
        c.dim, {vec_neg(u): a[i + 1] for i, u in enumerate(shape_pts) if a[i + 1]})
    if g.leading_term()[1] < 0:
        a = [-x for x in a]
        g = -g
    f = LaurentPolynomial.difference((1,) + (0,) * (c.dim - 1)) * g
    if apply(g, c, verify).constant_value() != -a[0] or not annihilates(f, c, verify):
        raise VerificationFailedError("reference verification failed")
    return g, -a[0], f


def outcome(fn, *args):
    try:
        return fn(*args)
    except VerificationFailedError:
        return VerificationFailedError


# --- comparisons --------------------------------------------------------------


@pytest.mark.parametrize("seed", [11, 22])
def test_pattern_complexity_matches_reference(seed):
    for rng, d, c, shape, anchors in cases(seed, 72):
        keys = ref_keys(c, shape, anchors)
        res = pattern_complexity(c, shape, anchors)
        if isinstance(c, Periodic):
            domain = Window.from_points(c.lattice.residues())
            assert res.count == ref_count(ref_keys(c, shape, domain))
            assert res.exact and res.sample_window == domain
        else:
            assert res.count == ref_count(keys)
            assert not res.exact and res.sample_window == anchors
        rng.randint(0, 4)  # keeps the seeded cases that follow as they were


@pytest.mark.parametrize("seed", [33, 44])
def test_nivat_scan_matches_reference(seed):
    rng = random.Random(seed)
    for k in range(18):
        c = random_config(rng, 2, VARIANTS[k % len(VARIANTS)])
        sample = random_anchors(rng, 2)
        rows = nivat_scan(c, range(1, 4), range(1, 3), sample)
        want = []
        for M, N in itertools.product(range(1, 4), range(1, 3)):
            count = ref_count(ref_keys(c, Window.box((0, 0), (M - 1, N - 1)), sample), M * N)
            want.append((M, N, count, "ExceedsMN" if count > M * N else "Inconclusive"))
        assert [(r.M, r.N, r.lower_bound_count, r.verdict) for r in rows] == want


@pytest.mark.parametrize("seed", [55, 66])
def test_line_census_matches_reference(seed):
    for rng, d, c, shape, anchors in cases(seed, 54):
        v = tuple(rng.randint(-2, 2) for _ in range(d))
        if not any(v):
            v = (1,) + v[1:]
        census, kept = ref_census(ref_groups(c, shape, v, anchors))
        assert line_pattern_census(c, shape, v, anchors) == census
        assert disjoint_pattern_line_count(c, shape, v, anchors) == kept


@pytest.mark.parametrize("seed", [77, 88])
def test_find_annihilator_matches_reference(seed):
    for rng, d, c, shape, anchors in cases(seed, 54):
        got = outcome(find_annihilator, c, shape, anchors, anchors)
        want = outcome(ref_find_annihilator, c, shape, anchors, anchors)
        if got is None or got is VerificationFailedError:
            assert got is want
        else:
            assert (got.g, got.constant, got.f) == want


def flat_shape(rng, d, flat):
    """A box or L-shaped shape with extent 1 on its last `flat` axes."""
    corner = tuple(rng.randint(-2, 1) for _ in range(d))
    free = range(d - flat)
    if rng.random() < 0.6 or not free:
        return Window.box(corner, tuple(x + (rng.randint(0, 2) if i in free else 0)
                                        for i, x in enumerate(corner)))
    pts = [corner]
    for axis in free:
        pts += [tuple(x + k * (i == axis) for i, x in enumerate(corner)) for k in (1, 2)]
    return Window.from_points(pts)


def flat_anchors(rng, d, flat):
    """A box or point set of anchors, one cell wide on its last `flat` axes."""
    lo = tuple(rng.randint(-5, 2) for _ in range(d))
    reach = [0 if i >= d - flat else {1: 12, 2: 6, 3: 4}[d] - 1 for i in range(d)]
    if rng.random() < 0.6:
        return Window.box(lo, tuple(a + rng.randint(0, r) for a, r in zip(lo, reach)))
    return Window.from_points([tuple(a + rng.randint(0, r) for a, r in zip(lo, reach))
                               for _ in range(rng.randint(1, 15))])


@pytest.mark.parametrize("seed", [91, 92])
def test_keys_with_extent_one_trailing_axes_match_reference(seed):
    """Shapes and anchors of extent 1 on trailing axes make the layout's rows
    fold; box tables, and the stacked blocks covering_pattern builds once one
    anchor lies far past the others, give the per-anchor keys and values."""
    rng = random.Random(seed)
    for k in range(60):
        d = 1 + k % 3
        c = random_config(rng, d, VARIANTS[(k // 3) % len(VARIANTS)])
        shape = flat_shape(rng, d, rng.randint(0, d - 1))
        anchors = flat_anchors(rng, d, rng.randint(0, d - 1))
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


# The residue-class test's boxes are 13 wide in 1-D, 10 in 2-D and 5 in 3-D.
# On them (1, -10) and (0, 1, -5) leave the box in one move with a flat step
# <step, strides> of 0, and (1, -13) and (1, -6, 0) with a negative one, so
# every line holds one anchor; (13,) leaves the 1-D box with a positive one.
CENSUS_STEPS = [(2, 0), (0, -2), (0, 1), (-3, 0), (2, 2, 0), (0, 0, 3), (0, -1, 2),
                (1, -1), (1, -10), (1, -13), (0, 1, -5), (1, -6, 0), (2,), (-1,), (13,)]


@pytest.mark.parametrize("v", CENSUS_STEPS)
def test_line_census_on_awkward_steps_matches_reference(v):
    """Non-primitive steps, steps whose first nonzero coordinate is not the
    first, and anchors below zero, in boxes and explicit samples."""
    d = len(v)
    rng = random.Random(repr(v))
    step = canonical_sign(v)
    i0 = next(k for k, x in enumerate(step) if x)
    for k in range(12):
        c = random_config(rng, d, VARIANTS[k % len(VARIANTS)])
        shape = random_shape(rng, d)
        lo = tuple(rng.randint(-9, -3) for _ in range(d))
        if k % 2:
            anchors = Window.box(lo, tuple(a + rng.randint(2, {1: 9, 2: 7, 3: 4}[d]) for a in lo))
        else:
            anchors = Window.from_points([tuple(a + rng.randint(0, 8) for a in lo)
                                          for _ in range(rng.randint(1, 25))])
        census, kept = ref_census(ref_groups(c, shape, v, anchors))
        assert line_pattern_census(c, shape, v, anchors) == census
        assert all(0 <= rep[i0] < step[i0] for rep, _ in census)
        assert disjoint_pattern_line_count(c, shape, v, anchors) == kept


def census_configs(rng, d):
    """Full rank periods() that are not a bare Periodic, then rank < d ones."""
    def board():
        lat = Lattice(_triangular_generators(rng, d, d))
        return Periodic(lat, {r: rng.randint(0, 2) for r in lat.residues()})

    full = [Sum([(1, board()), (rng.choice((-1, 2)), board())]),
            ValueMap(board(), {0: 1, 1: 0}, 2),
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
        census, kept = ref_census(ref_groups(c, shape, v, sample))
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
        shape = random_shape(rng, d)
        for c, sample in itertools.product(full + rank_low, samples):
            check(c, shape, sample, full)

    full, _ = census_configs(rng, d)
    shape = random_shape(rng, d)
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
