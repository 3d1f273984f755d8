"""Named boards and seeded draws that the test modules share.

The boards are the paper's running examples (Kari & Szabados, arXiv
1510.00177).  Each is a function that returns a fresh descriptor, so a
test may wrap it in a counter of its own.  The draws take a random.Random
that the calling test seeds with its own seed string, so every test keeps
its cases; there is one draw for each kind of object.  pytest does not
collect this module, as its name does not start with test_; test modules
import from here and never from each other.
"""

from fractions import Fraction

from nivatk.configurations import (
    Configuration,
    CosetIndicator,
    FiniteSupport,
    Mechanical,
    Periodic,
    Sum,
    ValueMap,
)
from nivatk.lattice import Lattice, Window, vec_add, vec_scale, vec_sub
from nivatk.laurent import LaurentPolynomial
from nivatk.quadratic import QuadraticReal

# --- named boards ---------------------------------------------------------------


def binary_irrational():
    """floor((i+j)*sqrt(2)) - floor(i*sqrt(2)) - floor(j*sqrt(2)): binary,
    not periodic, and annihilated by the differences along (1,0), (0,1) and
    (1,-1)."""
    r2 = QuadraticReal.sqrt(2)
    return Sum([(1, Mechanical((1, 1), r2)), (-1, Mechanical((1, 0), r2)),
                (-1, Mechanical((0, 1), r2))])


def sturmian_rows():
    """floor((i+j)*sqrt(2)) - floor(i*sqrt(2)): every row a Sturmian word,
    with n + 1 factors of length n."""
    r2 = QuadraticReal.sqrt(2)
    return Sum([(1, Mechanical((1, 1), r2)), (-1, Mechanical((1, 0), r2))])


def checkerboard():
    """(i + j) mod 2 on the lattice of (2,0) and (0,2)."""
    return Periodic(Lattice([(2, 0), (0, 2)]), {(0, 0): 0, (1, 0): 1, (0, 1): 1, (1, 1): 0})


def readme_board():
    """The README's board: (i + j) mod 2 on the index-2 lattice of (2,0) and (1,1)."""
    return Periodic(Lattice([(2, 0), (1, 1)]), {(0, 0): 0, (1, 0): 1})


def two_lines_3d():
    """Ones on the i-axis and on the j-line at height 3, zero elsewhere."""
    return Sum([
        (1, CosetIndicator((0, 0, 0), [(1, 0, 0)], 1)),
        (1, CosetIndicator((0, 0, 3), [(0, 1, 0)], 1)),
    ])


def rotation_rows(alpha):
    """floor(2y alpha) - 2 floor(y alpha), the same on every row: at most 2N blocks of each M x N."""
    return Sum([(1, Mechanical((0, 2), alpha)), (-2, Mechanical((0, 1), alpha))])


def strip_inputs(rng):
    """2-D descriptors with neither a full rank periods() nor a support: every anchor is keyed."""
    r2, r3 = QuadraticReal.sqrt(2), QuadraticReal(1, 1, 5, 2)
    yield binary_irrational()
    yield Mechanical((rng.randint(-3, 3), rng.choice((1, 2))), r2)
    yield rotation_rows(r3)
    yield ValueMap(Sum([(1, Mechanical((1, 2), r2)), (2, Mechanical((2, -1), r3))]), {0: 5}, 1)
    # index 667 exceeds the samples, so no residue class is skipped
    lat = Lattice([(23, 0), (rng.randint(0, 22), 29)])
    yield Periodic(lat, {r: rng.randint(0, 1) for r in lat.residues()})


# --- seeded draws -----------------------------------------------------------------

LEAVES = ("periodic", "coset", "mechanical", "finite")


def _triangular_generators(rng, d, rank):
    axes = sorted(rng.sample(range(d), rank))
    gens = []
    for i in axes:
        g = [0] * d
        g[i] = rng.choice((1, 2, 3, 4))
        for j in range(i + 1, d):
            g[j] = rng.randint(-3, 3)
        gens.append(tuple(g))
    return gens


def random_alpha(rng):
    return rng.choice((
        QuadraticReal.sqrt(2),
        QuadraticReal(1, 1, 5, 2),
        QuadraticReal(-3, 2, 7, 5),
        QuadraticReal.from_fraction(Fraction(rng.randint(-9, 9), rng.randint(1, 6))),
    ))


def random_config(rng, d, variant, depth=2):
    if variant == "periodic":
        return random_board(rng, d, values=(-2, 3))
    if variant == "coset":
        offset = tuple(rng.randint(-5, 5) for _ in range(d))
        gens = _triangular_generators(rng, d, rng.randint(1, d))
        return CosetIndicator(offset, gens, rng.randint(-3, 3))
    if variant == "mechanical":
        return Mechanical(tuple(rng.randint(-3, 3) for _ in range(d)), random_alpha(rng))
    if variant == "finite":
        cells = {tuple(rng.randint(-6, 6) for _ in range(d)): rng.randint(-3, 3)
                 for _ in range(rng.randint(0, 12))}
        return FiniteSupport(cells, dim=d)
    kinds = LEAVES + (("sum", "valuemap") if depth > 0 else ())
    if variant == "sum":
        return Sum([(rng.randint(-3, 3), random_config(rng, d, rng.choice(kinds), depth - 1))
                    for _ in range(rng.randint(1, 3))])
    inner = random_config(rng, d, rng.choice(kinds), depth - 1)
    mapping = {k: rng.randint(-2, 4) for k in range(-4, 5) if rng.random() < 0.5}
    return ValueMap(inner, mapping, rng.randint(-1, 1))


VARIANTS = LEAVES + ("sum", "valuemap")


def random_box(rng, d, extent=None, flat=0):
    """(lo, hi) of a box below and above zero, of extent 1 on some axes, the
    last flat ones among them, and up to extent cells on others."""
    lo = tuple(rng.randint(-9, 3) for _ in range(d))
    extent = extent or {1: 30, 2: 9, 3: 5}[d]
    hi = tuple(a + (0 if i >= d - flat or rng.random() < 0.2 else rng.randint(0, extent - 1))
               for i, a in enumerate(lo))
    return lo, hi


def random_window(rng, d, extent=None, box_only=False, flat=0):
    """A box, an L (a corner and an arm along each of up to two axes) or up
    to 12 scattered points, each reaching at most extent cells past its
    corner, and one cell wide on its last flat axes."""
    extent = extent or {1: 9, 2: 5, 3: 4}[d]
    kind = 0 if box_only else rng.randrange(3)
    if kind == 0:
        return Window.box(*random_box(rng, d, extent, flat))
    corner = tuple(rng.randint(-9, 3) for _ in range(d))
    if kind == 1:
        pts = [corner]
        for axis in rng.sample(range(d - flat), min(2, d - flat)):
            pts += [tuple(x + k * (i == axis) for i, x in enumerate(corner))
                    for k in range(1, rng.randint(2, extent + 1))]
        return Window.from_points(pts)
    return Window.from_points([tuple(x + rng.randint(0, extent) if i < d - flat else x
                                     for i, x in enumerate(corner)) for _ in range(rng.randint(1, 12))])


# the reach of sample windows of anchors, by dimension
ANCHORS = {1: 12, 2: 6, 3: 4}


def random_values(rng, window):
    return {u: rng.randint(-3, 3) for u in window}


def line_constant_values(rng, window, v):
    """Random values constant along every line u + Zv."""
    i0 = next(i for i, x in enumerate(v) if x)
    line = {}
    return {u: line.setdefault(vec_sub(u, tuple(u[i0] // v[i0] * x for x in v)),
                               rng.randint(-3, 3)) for u in window}


def cases(count, dims=(1, 2, 3)):
    """count (d, variant) pairs: d runs through dims, and each variant takes
    one turn of dims before the next."""
    for k in range(count):
        yield dims[k % len(dims)], VARIANTS[(k // len(dims)) % len(VARIANTS)]


def random_lattice(rng, d, rank=None, max_index=None):
    """Triangular generators of the given rank (d by default), mixed by
    unimodular row steps so that they are not triangular; a full rank
    lattice is drawn again until its index is at most max_index."""
    rank = rank or d
    while True:
        gens = _triangular_generators(rng, d, rank)
        for _ in range(2):
            i, j = rng.sample(range(rank), 2) if rank > 1 else (0, 0)
            if i != j:
                k = rng.randint(-2, 2)
                gens[i] = tuple(a + k * b for a, b in zip(gens[i], gens[j]))
        lat = Lattice(gens)
        if max_index is None or lat.index() <= max_index:
            return lat


def random_cell(rng, d):
    return tuple(rng.randint(-20, 20) for _ in range(d))


def random_board(rng, d=2, generators=None, values=(0, 3)):
    """A Periodic descriptor, on triangular generators unless given."""
    lat = Lattice(generators or _triangular_generators(rng, d, d))
    return Periodic(lat, {r: rng.randint(*values) for r in lat.residues()})


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


def periodic_inputs(rng, d=2):
    """Periodic descriptors, certified non-Periodic ones, and two on different lattices."""
    c = random_board(rng, d)
    yield c
    yield ValueMap(c, {0: 1, 1: 0}, 2)
    if d == 2:
        yield CosetIndicator((rng.randint(-3, 3), 1), [(rng.randint(1, 4), 0), (1, 2)], 3)
        yield Sum([(1, random_board(rng, 2, [(2, 0), (1, 3)])), (2, random_board(rng, 2, [(3, 0), (0, 2)]))])
    else:
        yield CosetIndicator(random_cell(rng, d), _triangular_generators(rng, d, d), 3)
        yield Sum([(1, random_board(rng, d)), (2, random_board(rng, d))])


def periodic_samples(rng, d):
    if d == 2:
        yield Window.box((-3, -2), (12, 10))
        yield Window.from_points([random_cell(rng, 2) for _ in range(12)])
        # a single row and a single residue class: most classes are missed
        yield Window.box((0, 0), (0, 5))
        yield Window.from_points([(6 * k, 12 * k) for k in range(-2, 3)])
    else:
        yield Window.box((-3,) * d, (6,) * d)
        yield Window.from_points([random_cell(rng, d) for _ in range(12)])
    lo = random_cell(rng, d)
    # wide along the last axis, and thin: one cell on every other axis
    yield Window.box(lo, vec_add(lo, (1,) * (d - 1) + (120,)))
    yield Window.box(lo, vec_add(lo, (0,) * (d - 1) + (rng.randint(0, 3),)))


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


def random_step(rng, d, bound=2):
    while True:
        v = tuple(rng.randint(-bound, bound) for _ in range(d))
        if any(v):
            return v


def rand_steps(rng, dim, m, pool=None):
    """m nonzero steps, from pool or with small coordinates and zeros among
    them, and some repeating or negating an earlier step."""
    steps = []
    while len(steps) < m:
        if steps and rng.random() < 0.3:
            v = rng.choice(steps)
            steps.append(v if rng.random() < 0.5 else tuple(-x for x in v))
            continue
        v = rng.choice(pool) if pool else tuple(rng.choice((-2, -1, 0, 0, 1, 2)) for _ in range(dim))
        if any(v):
            steps.append(v)
    return steps


def random_poly(rng, d, integral=True, terms=5, coord=3, coeff=3):
    """1 to terms terms, exponents in -coord..coord and numerators in
    -coeff..coeff, over denominators 1..4 unless integral; a repeated
    exponent adds up."""
    out = {}
    for _ in range(rng.randint(1, terms)):
        e = tuple(rng.randint(-coord, coord) for _ in range(d))
        a = rng.randint(-coeff, coeff)
        if a:
            out[e] = out.get(e, 0) + Fraction(a, 1 if integral else rng.randint(1, 4))
    return LaurentPolynomial(d, out)


def rand_upoly(rng, degree, rational):
    """A dense univariate list, constant term first, with a nonzero lead."""
    out = [rng.randint(-6, 6) for _ in range(degree)] + [rng.choice([-3, -2, -1, 1, 2, 5])]
    if rational:
        out = [Fraction(x, rng.randint(1, 6)) for x in out]
    return out


def upoly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def random_matrix(rng):
    """Small dense matrix with dependent rows, and at times zero rows, a zero
    column, rational rows or entries up to 10^6."""
    ncols = rng.randint(1, 8)
    big = rng.choice([3, 10**6])
    rows = [[rng.randint(-big, big) if rng.random() < 0.6 else 0 for _ in range(ncols)]
            for _ in range(rng.randint(1, 6))]
    for _ in range(rng.randint(0, 3)):
        u, v = rng.choice(rows), rng.choice(rows)
        k, m = rng.randint(-3, 3), rng.randint(-3, 3)
        rows.append([k * a + m * b for a, b in zip(u, v)])
    if rng.random() < 0.3:
        rows.insert(rng.randrange(len(rows) + 1), [0] * ncols)
    if rng.random() < 0.3:
        j = rng.randrange(ncols)
        for row in rows:
            row[j] = 0
    if rng.random() < 0.3:
        i = rng.randrange(len(rows))
        rows[i] = [Fraction(a, rng.randint(1, 7)) for a in rows[i]]
    rng.shuffle(rows)
    return rows


def periodic_part(rng, v):
    """A random configuration with period v: values on the residues of v
    and scaled unit vectors along every axis but one where v is nonzero."""
    axis = next(k for k, x in enumerate(v) if x)
    units = [tuple(int(k == a) for k in range(len(v))) for a in range(len(v)) if a != axis]
    lat = Lattice([v] + [vec_scale(rng.randint(1, 2), e) for e in units])
    return Periodic(lat, {r: rng.randint(-3, 3) for r in lat.residues()})


# the decomposition draws' steps and box cores, by dimension
STEP_POOLS = {
    2: [(1, 0), (0, 1), (1, 1), (1, -1), (0, -1), (-1, 1), (-1, -2), (2, 1)],
    3: [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (0, -1, 1), (-1, 0, 1), (0, 0, -1)],
}
CORES = {2: Window.box((0, 0), (7, 7)), 3: Window.box((0, 0, 0), (3, 3, 3))}


def periodic_sums(rng, dim, trials=48):
    """Sums of one to four periodic parts, in turn, on steps from STEP_POOLS,
    with the box core: (c, steps, core)."""
    for trial in range(trials):
        steps = rand_steps(rng, dim, trial % 4 + 1, STEP_POOLS[dim])
        yield Sum([(1, periodic_part(rng, v)) for v in steps]), steps, CORES[dim]


# --- what a fast path reads ----------------------------------------------------------


class BlockRecorder(Configuration):
    """Delegates to an inner descriptor, periods() included, and records
    the box and the number of cells of every block read."""

    def __init__(self, inner):
        self.inner, self.dim, self.boxes, self.cells = inner, inner.dim, [], 0

    def value(self, v):
        return self.inner.value(v)

    def block(self, lo, hi):
        self.boxes.append((tuple(lo), tuple(hi)))
        out = self.inner.block(lo, hi)
        self.cells += len(out)
        return out

    def periods(self):
        return self.inner.periods()
