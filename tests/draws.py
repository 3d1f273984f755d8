"""Named boards and seeded draws that the test modules share.

The boards are the paper's running examples (Kari & Szabados, arXiv
1510.00177).  Each is a function that returns a fresh descriptor, so a
test may wrap it in a counter of its own.  The draws take a random.Random
that the calling test seeds with its own seed string, so every test keeps
its cases.  pytest does not collect this module, as its name does not start
with test_; test modules import from here and never from each other.
"""

import random
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
from nivatk.lattice import Lattice, vec_sub
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
        lat = Lattice(_triangular_generators(rng, d, d))
        return Periodic(lat, {r: rng.randint(-2, 3) for r in lat.residues()})
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


def random_box(rng, d):
    lo = tuple(rng.randint(-9, 3) for _ in range(d))
    # extent 1 on some axes, up to 9 on others
    extent = {1: 30, 2: 9, 3: 5}[d]
    hi = tuple(a + (0 if rng.random() < 0.2 else rng.randint(0, extent - 1)) for a in lo)
    return lo, hi


def random_step(rng, d, bound=2):
    while True:
        v = tuple(rng.randint(-bound, bound) for _ in range(d))
        if any(v):
            return v


def rand_steps(rng, dim, m):
    """m nonzero steps with small coordinates, zeros among them, and some
    repeating or negating an earlier step."""
    steps = []
    while len(steps) < m:
        if steps and rng.random() < 0.3:
            v = rng.choice(steps)
            steps.append(v if rng.random() < 0.5 else tuple(-x for x in v))
            continue
        v = tuple(rng.choice((-2, -1, 0, 0, 1, 2)) for _ in range(dim))
        if any(v):
            steps.append(v)
    return steps


def random_poly(rng, d, integral):
    terms = {}
    for _ in range(rng.randint(1, 5)):
        e = tuple(rng.randint(-3, 3) for _ in range(d))
        a = rng.randint(-3, 3)
        terms[e] = Fraction(a, 1 if integral else rng.randint(1, 4))
    return LaurentPolynomial(d, terms)


def apply_reference(f, c, window):
    return {u: sum(a * c.value(vec_sub(u, e)) for e, a in f.terms.items()) for u in window}


# --- what a fast path reads, and the same call without it ---------------------------


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


def run_both(request, off, call, seed, inputs, samples, dims=(2,), repeats=1):
    """call(c, sample) on every case, then on the same cases once the fixture
    named off has switched the fast path off: the two lists of answers.

    The cases come from random.Random(seed): for each d in dims, repeats
    times over, every window samples(rng, d) draws for every descriptor
    inputs(rng, d) draws.
    """
    def cases():
        rng = random.Random(seed)
        for d in dims:
            for _ in range(repeats):
                for c in inputs(rng, d):
                    for sample in samples(rng, d):
                        yield c, sample

    got = [call(c, s) for c, s in cases()]
    request.getfixturevalue(off)
    return got, [call(c, s) for c, s in cases()]
