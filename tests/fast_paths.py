"""The differential net: every fast path of nivatk beside its slow reference.

ROWS is one table of Row(id, fast, reference, draw, seeds).  A row's id is
the dotted name, under nivatk, of the fast path it checks.  fast and
reference take the same arguments, which draw(rng, *params) yields.  Each
seed entry (seed, *params) runs the draw once on random.Random(seed), as
one case of tests/test_fast_paths.py::test_fast_path_matches_reference.
Answers compare through outcome(): an empty difference or a failed
verification compares by its type, and any other error fails the case, as
does a seed whose every draw raises.  A reference is a slow
reimplementation or the same call with the fast path switched off.  A row
may also name the kinds of answer each seed's draw must reach.  Adding an
oracle takes one row here and nothing else.  pytest does not collect this
module.
"""

import itertools
import math
import random
from fractions import Fraction
from functools import cache
from typing import Callable, NamedTuple

import pytest

import nivatk.annihilator
import nivatk.configurations
import nivatk.decomposition
from nivatk import tiling
from nivatk.annihilator import find_annihilator, search_difference_annihilator
from nivatk.cli import TWO_LINES_3D
from nivatk.configurations import (
    Configuration,
    CosetIndicator,
    FiniteSupport,
    Mechanical,
    Pattern,
    Periodic,
    Sum,
    pattern_complexity,
    support_anchors,
)
from nivatk.decomposition import _repeats, decompose, difference, difference_vanishes, integrate
from nivatk.errors import EmptyResultError, VerificationFailedError, WindowTooSmallError
from nivatk.lattice import Lattice, Window, canonical_sign, vec_add, vec_neg, vec_scale, vec_sub
from nivatk.laurent import (
    LaurentPolynomial,
    _upoly_prem,
    annihilates,
    apply,
    periodicity_test,
)
from nivatk.linalg import (
    _exact,
    _solve_echelon,
    _solve_graph,
    integer_primitive,
    kernel_vector,
    nullspace_basis,
    solve_sparse,
)
from nivatk.nivat import disjoint_pattern_line_count, line_pattern_census, nivat_scan
from nivatk.quadratic import QuadraticReal
from nivatk.textio import parse_config
from nivatk.tiling import (
    ClusterTile,
    PeriodicCoTiler,
    TilingResult,
    prime_periodicity_check,
    search_periodic_cotiler,
    tile_polynomial,
    verify_cotiler,
)

from draws import (
    ANCHORS,
    VARIANTS,
    cases,
    line_constant_values,
    periodic_inputs,
    periodic_samples,
    periodic_sums,
    rand_upoly,
    random_box,
    random_cell,
    random_config,
    random_lattice,
    random_matrix,
    random_poly,
    random_step,
    random_values,
    random_window,
    site_inputs,
    site_samples,
    strip_inputs,
    supported_config,
    upoly_mul,
)


def fields(fn, *names):
    """fn, answering with the named attributes of what it returns."""
    return lambda *args: (lambda answer: tuple(getattr(answer, n) for n in names))(fn(*args))


def outcome(fn, *args):
    """What fn(*args) returns, or the type of the EmptyResultError or
    VerificationFailedError it raises."""
    try:
        return fn(*args)
    except (EmptyResultError, VerificationFailedError) as exc:
        return type(exc)


# --- cell values: Configuration.block against value() ---------------------------


def block(c, lo, hi):
    return c.block(lo, hi)


def block_reference(c, lo, hi):
    return [c.value(p) for p in Window.box(lo, hi)]


def config_boxes(rng, d, variant):
    for _ in range(25):
        c = random_config(rng, d, variant)
        for _ in range(3):
            yield (c, *random_box(rng, d))


def large_index_boxes(rng, kind):
    """Lattices whose index exceeds the box on some axes and not on others."""
    for _ in range(20):
        gens = [(rng.randint(1, 9), 0), (rng.randint(-9, 9), rng.randint(1, 9))]
        lat = Lattice(gens)
        c = Periodic(lat, {r: rng.randint(0, 5) for r in lat.residues()})
        coset = CosetIndicator((rng.randint(-9, 9), 3), gens, 2)
        lo = (rng.randint(-40, 0), rng.randint(-40, 0))
        hi = (lo[0] + rng.randint(0, 30), lo[1] + rng.randint(0, 30))
        yield (c if kind == "periodic" else coset), lo, hi


def spread_supports(rng, d):
    """Clusters of cells within +-10^6; boxes of one cell, of more cells than
    the support, and in between."""
    for _ in range(10):
        centres = [tuple(rng.randint(-10**6, 10**6) for _ in range(d)) for _ in range(rng.randint(1, 8))]
        c = FiniteSupport({tuple(x + rng.randint(-3, 3) for x in u): rng.randint(-3, 3)
                           for u in centres for _ in range(rng.randint(1, 6))}, dim=d)
        big = next(k for k in itertools.count() if (2 * k + 1) ** d > len(c.assoc))
        for u in centres:
            for r in (0, rng.randint(1, 4), big):
                yield c, tuple(x - r for x in u), tuple(x + r for x in u)


# --- apply against the per-term sum ----------------------------------------------


def apply_reference(f, c, window):
    return {u: sum(a * c.value(vec_sub(u, e)) for e, a in f.terms.items()) for u in window}


def apply_cases(rng, d):
    """Every variant, integral and rational f, on a box and on an explicit window."""
    for k in range(30):
        c = random_config(rng, d, VARIANTS[k % len(VARIANTS)])
        f = random_poly(rng, d, integral=k % 3 != 0)
        yield f, c, Window.box(*random_box(rng, d))
        window = random_window(rng, d)
        while window.is_box:
            window = random_window(rng, d)
        yield f, c, window


# --- pattern keys against keys read anchor by anchor -----------------------------


def ref_keys(c, shape, anchors):
    return [tuple(c.value(p) for p in shape.shift(a)) for a in anchors]


def keyed_cases(rng, count):
    """A descriptor, a shape and a sample of anchors, in d = 1..3 over every variant."""
    for d, variant in cases(count):
        yield random_config(rng, d, variant), random_window(rng, d, 3), random_window(rng, d, ANCHORS[d])


def complexity_reference(c, shape, sample):
    """A Periodic descriptor counts on its residues, exactly; any other on the sample."""
    if isinstance(c, Periodic):
        sample = Window.from_points(c.lattice.residues())
    return len(set(ref_keys(c, shape, sample))), isinstance(c, Periodic), sample


def scan(c, Ms, Ns, sample):
    return [(r.M, r.N, r.lower_bound_count, r.verdict) for r in nivat_scan(c, Ms, Ns, sample)]


def scan_reference(c, Ms, Ns, sample):
    value = cache(c.value)
    rows = []
    for M, N in itertools.product(Ms, Ns):
        keys = (tuple(value(vec_add(a, (i, j))) for i in range(M) for j in range(N)) for a in sample)
        seen = set()
        for key in keys:
            seen.add(key)
            if len(seen) > M * N:
                break
        count = len(seen)
        rows.append((M, N, count, "ExceedsMN" if count > M * N else "Inconclusive"))
    return rows


SCAN_SIZES = [[2, 3, 5, 8], [8, 5, 3, 2], [1], [4], [3, 1, 3], list(range(1, 5))]


def scan_cases(rng, height, widest=25):
    """Descriptors keyed at every anchor, then one of each variant; box
    samples height rows tall, one or up to widest columns wide, and explicit
    samples; block sizes out of order and repeated."""
    for k, c in enumerate([*strip_inputs(rng), *(random_config(rng, 2, v) for v in VARIANTS)]):
        lo = (rng.randint(-60, 60), rng.randint(-60, 60))
        width = 1 if k % 3 == 0 else rng.randint(2, widest)
        sample = (random_window(rng, 2, height + 5).shift(lo) if k % 4 == 3
                  else Window.box(lo, (lo[0] + height - 1, lo[1] + width - 1)))
        yield c, rng.choice(SCAN_SIZES), rng.choice(SCAN_SIZES), sample


def census(c, shape, v, anchors):
    return line_pattern_census(c, shape, v, anchors), disjoint_pattern_line_count(c, shape, v, anchors)


def census_reference(c, shape, v, anchors):
    """Keys grouped by the line through each anchor, named by its point with
    0 <= rep[i0] < step[i0]; then the lines kept greedily in order when they
    share no key with a line kept before."""
    step = canonical_sign(v)
    i0 = next(k for k, x in enumerate(step) if x != 0)
    groups, used, kept = {}, set(), 0
    for a, key in zip(anchors, ref_keys(c, shape, anchors)):
        groups.setdefault(vec_sub(a, vec_scale(a[i0] // step[i0], step)), set()).add(key)
    for rep in sorted(groups):
        if not groups[rep] & used:
            used |= groups[rep]
            kept += 1
    return sorted((rep, len(keys)) for rep, keys in groups.items()), kept


def census_cases(rng, count, v=None):
    """keyed_cases with a line step: a random one, or v in every case."""
    for d, variant in cases(count, (len(v),) if v else (1, 2, 3)):
        c, shape = random_config(rng, d, variant), random_window(rng, d, 3)
        yield c, shape, v or random_step(rng, d), random_window(rng, d, ANCHORS[d])


# The residue-class census test's boxes are 13 wide in 1-D, 10 in 2-D and 5
# in 3-D.  On them (1, -10) and (0, 1, -5) leave the box in one move with a
# flat step <step, strides> of 0, and (1, -13) and (1, -6, 0) with a negative
# one, so every line holds one anchor; (13,) leaves the 1-D box with a
# positive one.  The rest are non-primitive steps and steps whose first
# nonzero coordinate is not the first.
CENSUS_STEPS = [(2, 0), (0, -2), (0, 1), (-3, 0), (2, 2, 0), (0, 0, 3), (0, -1, 2),
                (1, -1), (1, -10), (1, -13), (0, 1, -5), (1, -6, 0), (2,), (-1,), (13,)]


def annihilator(c, shape, sample):
    rep = find_annihilator(c, shape, sample, sample)
    return rep and (rep.g, rep.constant, rep.f)


def annihilator_reference(c, shape, sample):
    rows = sorted({(1,) + key for key in ref_keys(c, shape, sample)})
    kernel = nullspace_basis([list(r) for r in rows])
    if not kernel:
        return None
    a = integer_primitive(kernel[0])
    g = LaurentPolynomial(c.dim, {vec_neg(u): a[i + 1] for i, u in enumerate(shape) if a[i + 1]})
    if g.leading_term()[1] < 0:
        a, g = [-x for x in a], -g
    f = LaurentPolynomial.difference((1,) + (0,) * (c.dim - 1)) * g
    if apply(g, c, sample).constant_value() != -a[0] or not annihilates(f, c, sample):
        raise VerificationFailedError("reference verification failed")
    return g, -a[0], f


# --- which anchors are keyed: support_anchors, and each site with a fast path off ------


def cover_test(support):
    """Membership in one of the support's cosets, by lattice membership."""
    cosets = [(offset, Lattice(basis) if basis else None) for offset, basis in support.cosets]

    def on_cover(u) -> bool:
        return any(not any(w) if lat is None else lat.contains(w)
                   for w, lat in ((vec_sub(u, offset), lat) for offset, lat in cosets))

    return on_cover


def support_keyed(c, shape, sample):
    keyed = support_anchors(c, shape, sample)
    return keyed, keyed is sample


def support_keyed_reference(c, shape, sample):
    """Sample anchors whose shape meets the cover, plus the first that does
    not; the sample itself when that is every anchor."""
    on_cover = cover_test(c.support())
    near = {a for a in sample if any(map(on_cover, shape.shift(a)))}
    far = [a for a in sample if a not in near]
    keyed = Window.from_points(list(near) + far[:1])
    return keyed, len(keyed) == len(sample)


def supported_cases(rng, d):
    for _ in range(30):
        c, shape = supported_config(rng, d), Window.box(*random_box(rng, d))
        if rng.random() < 0.5:
            yield c, shape, Window.box(*random_box(rng, d))
        else:
            yield c, shape, Window.from_points(
                [tuple(rng.randint(-9, 9) for _ in range(d)) for _ in range(rng.randint(1, 20))])


def switched_off(call, patches):
    """call with each (target, name, value) of patches set, which switches a fast path off."""
    def reference(*args):
        with pytest.MonkeyPatch.context() as mp:
            for target, name, value in patches:
                mp.setattr(target, name, value)
            return call(*args)
    return reference


# every anchor keyed: residue_representatives is the identity at each site
EVERY_ANCHOR = [(module, "residue_representatives", lambda c, anchors: anchors)
                for module in (nivatk.configurations, nivatk.annihilator)]
# every anchor keyed: support() is None on every variant
NO_SUPPORT = [(cls, "support", lambda self: None) for cls in vars(nivatk.configurations).values()
              if isinstance(cls, type) and issubclass(cls, Configuration)]


def site_scan(c, sample):
    return nivat_scan(c, range(1, 4), range(1, 4), sample)


def site_complexities(c, sample):
    d = c.dim
    return [pattern_complexity(c, shape, sample) for shape in (
        Window.box((0,) * d, (1,) * (d - 1) + (2,)),
        Window.from_points([(0,) * d, (1,) + (0,) * (d - 1), (0,) * (d - 1) + (2,)]))]


def site_annihilator(c, sample, shape=None, verify=None):
    d = c.dim
    try:
        return find_annihilator(c, shape or Window.box((0,) * d, (1,) * d), sample,
                                verify or Window.box((-4,) * d, (8,) * d))
    except VerificationFailedError as exc:
        return str(exc)


def site_3d(c, sample):
    shape = Window.box((0, 0, 0), (1, 1, 2))
    return pattern_complexity(c, shape, sample), site_annihilator(c, sample, shape, sample)


def sites(rng, inputs, samples, dims, repeats):
    """For each d of dims, repeats times over: every sample window of
    samples(rng, d) for every descriptor of inputs(rng, d)."""
    for d in dims:
        for _ in range(repeats):
            for c in inputs(rng, d):
                for sample in samples(rng, d):
                    yield c, sample


def sites_3d(rng):
    yield parse_config(TWO_LINES_3D), Window.box((-12,) * 3, (9,) * 3)
    for _ in range(8):
        yield supported_config(rng, 3), Window.box(*random_box(rng, 3))


def verdicts(args, rows):
    return {r.verdict for r in rows}


def both_verdicts(kinds, *params):
    return kinds == {"ExceedsMN", "Inconclusive"}


def annihilator_kinds(args, rep):
    return {rep if rep is None else rep[:3] if isinstance(rep, str) else "found"}


# --- flat patterns against cell -> value dicts ------------------------------------


def pattern_steps(rng, count, bound=3, box_only=False):
    """A step and random values, or values constant along the step, on every kind of window."""
    for d, _ in cases(count):
        window = random_window(rng, d, box_only=box_only)
        v = random_step(rng, d, bound)
        vals = random_values(rng, window) if rng.random() < 0.5 else line_constant_values(rng, window, v)
        yield Pattern(window, vals.values()), v


def ref_difference(vals, v):
    """u -> vals[u - v] - vals[u] on the cells where both are known, in lexicographic order."""
    return {u: vals[vec_sub(u, v)] - vals[u] for u in sorted(vals) if vec_sub(u, v) in vals}


def difference_cells(p, v):
    q = difference(p, v)
    return list(q.shape), q.cells, q.is_zero()


def difference_reference(p, v):
    want = ref_difference(p.values, v)
    if not want:
        raise EmptyResultError("no cell u with u - v in the window")
    return list(want), tuple(want.values()), not any(want.values())


def integrate_reference(p, v):
    """Zero at each line's entry cell of the box, then o[u] = o[u - v] - p[u]."""
    cells, out = sorted(p.values), {}
    for u in (cells if v > (0,) * len(v) else reversed(cells)):
        w = vec_sub(u, v)
        out[u] = out[w] - p.values[u] if w in out else 0
    return p.shape, tuple(out[u] for u in cells)


def repeats_reference(p, v):
    return all(p.values[vec_add(u, v)] == x for u, x in p.values.items() if vec_add(u, v) in p.values)


def search_outcome(search):
    """search, answering an exhausted window with the error's name and message."""
    def answer(*args):
        try:
            return search(*args)
        except WindowTooSmallError as exc:
            return (type(exc).__name__, str(exc))
    return answer


def ref_search(c, max_factors, coord_bound, window):
    """The search with every pattern held as a cell -> value dict."""
    zero = (0,) * c.dim
    steps = sorted({canonical_sign(v) for v in itertools.product(
        range(-coord_bound, coord_bound + 1), repeat=c.dim) if v != zero})
    base = {u: c.value(u) for u in window}

    def verified(chain):
        # re-verified like the search does: exactly on one fundamental
        # domain for a Periodic descriptor, else on the shrunk window
        product, dom = LaurentPolynomial.one(c.dim), base
        for v in chain:
            product = product * LaurentPolynomial.difference(v)
            dom = ref_difference(dom, v)
        cells = c.lattice.residues() if isinstance(c, Periodic) else sorted(dom)
        return not any(sum(a * c.value(vec_sub(u, e)) for e, a in product.terms.items())
                       for u in cells)

    def dfs(vals, start, depth, chain):
        for idx in range(start, len(steps)):
            v = steps[idx]
            nxt = ref_difference(vals, v)
            if not nxt:
                raise WindowTooSmallError(f"window exhausted after shrinking by step {v}")
            if depth == 1:
                if all(x == 0 for x in nxt.values()) and verified(chain + [v]):
                    return chain + [v]
            else:
                found = dfs(nxt, idx, depth - 1, chain + [v])
                if found is not None:
                    return found
        return None

    for length in range(1, max_factors + 1):
        found = dfs(base, 0, length, [])
        if found is not None:
            return found
    return None


def search_config(rng, d, bound):
    kind = rng.randrange(4)
    if kind == 0:
        return random_config(rng, d, rng.choice(VARIANTS))
    if kind < 3:
        # one difference factor per line: a certificate of length <= 3 when the
        # steps are short enough
        return Sum([(rng.randint(1, 2), CosetIndicator(
            tuple(rng.randint(-3, 3) for _ in range(d)), [random_step(rng, d, bound)]))
            for _ in range(rng.randint(2, 3))])
    # a linear ramp for an integer alpha: (X^v - 1)^2 annihilates it
    alpha = rng.choice((QuadraticReal.sqrt(2), QuadraticReal.from_fraction(rng.randint(1, 2))))
    return Mechanical(tuple(rng.randint(-2, 2) for _ in range(d)), alpha)


def search_cases(rng, d):
    """Boxes, some with a thin axis so that a leaf step can exhaust them, and other windows."""
    for k in range(40):
        bound = 1 if d == 3 else rng.randint(1, 2)
        c = search_config(rng, d, bound)
        if rng.random() < 0.6:
            lo = tuple(rng.randint(-4, 0) for _ in range(d))
            hi = [a + rng.randint(2, {1: 15, 2: 7, 3: 4}[d]) for a in lo]
            if k % 4 == 0:
                axis = rng.randrange(d)
                hi[axis] = lo[axis] + rng.randint(0, 1)
            window = Window.box(lo, hi)
        else:
            window = random_window(rng, d, {1: 16, 2: 8, 3: 5}[d])
        yield c, rng.randint(1, 3 if d < 3 else 2), bound, window


# --- periodicity_test against the per-cell loop ------------------------------------


def periodicity_reference(c, v, sample):
    """The first cell u, in window order, with c(u) != c(u + v)."""
    domain = c.exact_domain()
    for u in sample if domain is None else domain:
        if c.value(u) != c.value(vec_add(u, v)):
            return "not-periodic", u
    return ("unknown" if domain is None else "periodic"), None


def periodicity_cases(rng, variant):
    """Steps in the periods() basis half the time, on a box and scattered points."""
    for k in range(60):
        d = 1 + k % 3
        c = random_config(rng, d, variant)
        lattice = c.periods()
        if lattice is not None and rng.random() < 0.5:
            v = rng.choice(lattice.basis())
        else:
            v = random_step(rng, d)
        pts = [tuple(rng.randint(-8, 8) for _ in range(d)) for _ in range(rng.randint(1, 12))]
        for sample in (Window.box(*random_box(rng, d)), Window.from_points(pts)):
            yield c, v, sample


# --- packed products against the exponent-tuple convolution -----------------------


def product_terms(p):
    """The dimension, the terms in order and their types."""
    return p.dim, list(p.terms.items()), list(map(type, p.terms.values()))


def product(f, g):
    return product_terms(f * g)


def reference_product(f, g):
    """product_terms of f*g by the exponent-tuple convolution, self outer
    and other inner, through the checked constructor."""
    out = {}
    for e1, a1 in f.terms.items():
        for e2, a2 in g.terms.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, 0) + a1 * a2
    return product_terms(LaurentPolynomial(f.dim, out))


def product_cases(rng, dim):
    """Small, wide and rational factors, then their product times a factor
    again, where terms collide most."""
    for _ in range(80):
        f = random_poly(rng, dim, terms=8, coord=rng.choice([1, 3, 40]), coeff=9)
        g = random_poly(rng, dim, terms=8, coord=rng.choice([1, 3, 40]), coeff=9)
        if rng.random() < 0.5:
            g = g * Fraction(rng.randint(1, 6), rng.randint(1, 6))
        yield f, g
        yield f * g, g
    x = LaurentPolynomial.monomial((1,) + (0,) * (dim - 1))
    yield x + 1, x - 1


def spread_axis_products(rng):
    """A radix-1 axis between two spread axes, all-negative exponents, and
    the 2,000,000 span on the first axis of a 3-D product."""
    for _ in range(20):
        mid = rng.randint(-5, 5)
        f = LaurentPolynomial(3, {(rng.randint(-1000, 1000), mid, rng.randint(-1000, 1000)): rng.randint(1, 9)
                                  for _ in range(rng.randint(1, 6))})
        g = LaurentPolynomial(3, {(rng.randint(-50, 50), -mid, rng.randint(-50, 50)): rng.randint(-9, 9) or 1
                                  for _ in range(rng.randint(1, 6))}) * Fraction(rng.randint(1, 4), rng.randint(1, 4))
        yield f, g
        yield g, f
        dim = rng.randint(1, 4)
        neg = [LaurentPolynomial(dim, {tuple(rng.randint(-40, -1) for _ in range(dim)): rng.randint(-9, 9) or 3
                                       for _ in range(rng.randint(1, 8))}) for _ in range(2)]
        yield neg[0], neg[1]
        yield neg[0] * neg[1], neg[0]
        wide = LaurentPolynomial.difference((2_000_000, 0, 0))
        h = random_poly(rng, 3, terms=6, coord=5, coeff=9) * rng.choice([1, Fraction(1, 3)])
        yield wide, h
        yield h, wide
        yield wide * h, h


# --- line gcds on ints against Euclid over the rationals ----------------------------


def upoly_divmod(a, b):
    """Euclidean division over the rationals: the oracle for _upoly_exquo."""
    a = list(a)
    q = [0] * max(0, len(a) - len(b) + 1)
    for i in range(len(a) - len(b), -1, -1):
        c = _exact(a[i + len(b) - 1], b[-1])
        if c:
            q[i] = c
            for j, bj in enumerate(b):
                a[i + j] -= c * bj
    while a and a[-1] == 0:
        a.pop()
    return q, a


def rational_gcd(a, b):
    """Euclid over the rationals, each remainder scaled to coprime integers."""
    while b:
        _, r = upoly_divmod(a, b)
        a, b = b, integer_primitive(r)
    return a


def prem_gcd(*polys):
    """_line_split's gcd fold over its levels scaled to coprime integers."""
    g = []
    for b in map(integer_primitive, polys):
        while b:
            g, b = b, _upoly_prem(g, b)
    return g


def monic(g):
    return [Fraction(x) / g[-1] for x in g]


def gcd(a, b, planted):
    """The gcd up to a rational scalar, whether it is in ints, its content,
    and whether it keeps the planted common factor's length."""
    g = prem_gcd(a, b)
    return monic(g), all(type(x) is int for x in g), math.gcd(*g), len(g) >= planted


def gcd_cases(rng):
    """Planted common factors, and their length; int and Fraction levels of degree 0..10."""
    for _ in range(300):
        common = rand_upoly(rng, rng.randint(0, 4), rng.random() < 0.3)
        yield *(upoly_mul(common, rand_upoly(rng, rng.randint(0, 10 - len(common) + 1), rng.random() < 0.5))
                for _ in range(2)), len(common)


# --- the graph walk, the sparse solver and kernel vectors against elimination -----


def random_graph_system(rng):
    """Rows x[u] + x[w] = b, x[u] = b and 0 = b over a few columns, some
    never used.  Edges join even to odd columns when `bipartite`, so no
    cycle is odd.  The right hand sides come from a hidden integer or
    rational solution, and at times one is then knocked off by 1.  The
    last value says whether the system is bipartite and consistent."""
    ncols = rng.randint(1, 9)
    bipartite = rng.random() < 0.5
    rows = []
    for _ in range(rng.randint(0, 12)):
        kind = rng.choice((0, 1, 2, 2, 2, 2))
        if kind == 2 and ncols > 1:
            u = rng.randrange(ncols)
            w = rng.choice([j for j in range(ncols)
                            if j != u and (not bipartite or (j - u) % 2)] or [None])
            if w is not None:
                rows.append({u: 1, w: 1})
                continue
        rows.append({rng.randrange(ncols): 1} if kind else {})
    if rng.random() < 0.3:
        hidden = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(ncols)]
    else:
        hidden = [rng.randint(-9, 9) for _ in range(ncols)]
    rhs = [sum(hidden[j] for j in row) for row in rows]
    broken = bool(rows) and rng.random() < 0.3
    if broken:
        i = rng.randrange(len(rows))
        rhs[i] += 1
    return rows, rhs, ncols, bipartite and not broken


def rref(rows):
    """Dense reduced row echelon form over Fraction, the reference for the
    fraction-free eliminator.  Returns (matrix, pivot_cols)."""
    mat = [[Fraction(x) for x in row] for row in rows]
    if not mat:
        return [], []
    ncols = len(mat[0])
    pivots = []
    r = 0
    for col in range(ncols):
        sel = None
        for i in range(r, len(mat)):
            if mat[i][col] != 0:
                sel = i
                break
        if sel is None:
            continue
        mat[r], mat[sel] = mat[sel], mat[r]
        inv = 1 / mat[r][col]
        mat[r] = [x * inv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][col] != 0:
                c = mat[i][col]
                mat[i] = [a - c * b for a, b in zip(mat[i], mat[r])]
        pivots.append(col)
        r += 1
        if r == len(mat):
            break
    return mat, pivots


def rref_solution(rows_dense, rhs, ncols):
    """Textbook RREF on the augmented matrix, free variables pinned to 0."""
    aug = [[Fraction(x) for x in row] + [Fraction(b)]
           for row, b in zip(rows_dense, rhs)]
    mat, pivots = rref(aug)
    for row in mat:
        if all(x == 0 for x in row[:ncols]) and row[ncols] != 0:
            return None
    # pivots beyond ncols mean the rhs column is independent: inconsistent
    if any(p == ncols for p in pivots):
        return None
    # in reduced form with free variables pinned to 0 the pivot value is
    # just the rhs entry
    sol = [Fraction(0)] * ncols
    for i, pc in enumerate(pivots):
        sol[pc] = mat[i][ncols]
    return sol


def inconsistent_rows(rows, rhs, ncols):
    """Rows left as 0 = nonzero by elimination over Fraction that pivots each
    column, left to right, on the remaining row with the fewest nonzero
    coefficients, lowest index on ties."""
    mat = [[Fraction(row.get(j, 0)) for j in range(ncols)] + [Fraction(b)]
           for row, b in zip(rows, rhs)]
    remaining = list(range(len(mat)))
    for col in range(ncols):
        cand = [i for i in remaining if mat[i][col]]
        if not cand:
            continue
        piv = min(cand, key=lambda i: (sum(1 for x in mat[i][:ncols] if x), i))
        remaining.remove(piv)
        for i in cand:
            if i != piv:
                f = mat[i][col] / mat[piv][col]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[piv])]
    return [i for i in remaining if mat[i][ncols]]


def random_system(rng, big, rational):
    nrows = rng.randint(1, 8)
    ncols = rng.randint(1, 6)
    rows = []
    for _ in range(nrows):
        row = {}
        for j in range(ncols):
            if rng.random() < 0.5:
                v = rng.randint(-big, big)
                if v:
                    row[j] = v
        rows.append(row)
    if rational:
        rhs = [Fraction(rng.randint(-6, 6), rng.randint(1, 5)) for _ in range(nrows)]
    else:
        rhs = [rng.randint(-6, 6) for _ in range(nrows)]
    return rows, rhs, ncols


def systems(rng, big, rational, trials):
    for _ in range(trials):
        yield random_system(rng, big, rational)


def exact_solution(rows, rhs, ncols):
    """solve_sparse's answer, and whether each value is an int when integral and a Fraction when not."""
    sol, bad = solve_sparse(rows, rhs, ncols)
    return sol, bad, sol is None or all(type(x) is (int if x.denominator == 1 else Fraction) for x in sol)


def dense_solution(rows, rhs, ncols):
    """RREF over Fraction with free variables at 0, or None and the rows
    the pivot rule leaves as 0 = nonzero."""
    sol = rref_solution([[row.get(j, 0) for j in range(ncols)] for row in rows], rhs, ncols)
    return (sol, []) if sol is not None else (None, inconsistent_rows(rows, rhs, ncols))


def matrices(rng, count):
    for _ in range(count):
        yield random_matrix(rng),


def graph_systems(rng):
    for _ in range(600):
        yield random_graph_system(rng)[:3]


def graph_walk(rows, rhs, ncols):
    """The walk's answer where it gives one, elimination's where it falls back."""
    sol = _solve_graph(rows, rhs, ncols)
    return _solve_echelon(rows, rhs, ncols)[0] if sol is None else sol


# --- the bitmask cover against the list search --------------------------------------


def list_search(tile, max_index):
    """The co-tiler search on sets of residues: at the first residue not yet
    covered, the placements over it in tile order, without repeats."""
    last = len(tile) if tiling._is_polyomino(tile) else max_index
    for index in range(len(tile), last + 1, len(tile)):
        for basis in sorted(tiling._hnf_bases(tile.dim, index)):
            lat = Lattice(basis)
            cells = list(lat.residues())

            def solve(covered, chosen):
                free = next((u for u in cells if u not in covered), None)
                if free is None:
                    return chosen
                for r in dict.fromkeys(lat.reduce(vec_sub(free, d)) for d in tile.cells):
                    hit = {lat.reduce(vec_add(d, r)) for d in tile.cells}
                    found = len(hit) == len(tile) and not hit & covered and solve(covered | hit, chosen + [r])
                    if found:
                        return found
                return None

            chosen = solve(set(), [])
            if chosen:
                return PeriodicCoTiler(lat, chosen)
    return None


def tile_cases(rng, dim):
    # {0, 1, 3} on the first axis tiles no line, so no grid either
    yield ClusterTile([(x,) + (0,) * (dim - 1) for x in (0, 1, 3)]),
    side = 6 if dim == 1 else 3
    box = list(itertools.product(range(side), repeat=dim))
    for _ in range(40):
        yield ClusterTile(rng.sample(box, rng.randint(1, 4))),


# --- co-tiler checks: translate counts against the Periodic descriptor ---------------


def verify_reference(tile, cot):
    """The first residue box cell where f_D * 1_C, applied to cot.configuration(), is not 1."""
    box = cot.lattice.residue_box()
    for cell, k in zip(box, apply(tile_polynomial(tile), cot.configuration(), box).cells):
        if k != 1:
            return TilingResult("Overlap" if k > 1 else "Gap", cell)
    return TilingResult("Valid")


def periods_reference(tile, cot, window):
    """periodicity_test and the mod-p congruence, by apply, on cot.configuration()
    over the window, or over its residue box without one."""
    config, p = cot.configuration(), len(tile)
    candidates = sorted({canonical_sign(vec_scale(p, vec_sub(v, u))) for u in tile.cells for v in tile.cells if u != v})
    periods = [w for w in candidates if periodicity_test(config, w, window).status != "not-periodic"]
    congruence = apply(tile_polynomial(tile).substitute_power(p), config, window or config.exact_domain())
    if any(k % p for k in congruence.cells):
        raise VerificationFailedError("congruence")
    return periods


def cotiler_cases(rng, d, windowed):
    """Tiles beside co-tilers L + R.  Every third draw tiles: the tile is a
    complete residue system of a lattice L', and R lists the classes of L'
    modulo a sublattice L.  The others draw the tile, L and R at random.
    Windowed, the tile size is prime and a window (or None) joins the args."""
    sizes = (2, 3, 5) if windowed else range(1, 7)
    for k in range(60):
        if k % 3 == 0:
            coarse = random_lattice(rng, d, max_index=max(sizes))
            while coarse.index() not in sizes:
                coarse = random_lattice(rng, d, max_index=max(sizes))
            gens = coarse.basis()
            tile = ClusterTile(vec_add(r, vec_scale(rng.randint(-1, 1), rng.choice(gens))) for r in coarse.residues())
            m = rng.randint(1, 3)
            cot = PeriodicCoTiler(Lattice([vec_scale(m, gens[0]), *gens[1:]]),
                                  [vec_scale(j, gens[0]) for j in range(m)])
        else:
            lat = random_lattice(rng, d, max_index=12)
            side = 6 if d == 1 else 3
            tile = ClusterTile(rng.sample(list(itertools.product(range(side), repeat=d)), rng.choice(sizes)))
            cot = PeriodicCoTiler(lat, dict.fromkeys(lat.reduce(random_cell(rng, d)) for _ in range(rng.randint(1, 3))))
        if not windowed:
            yield tile, cot
        else:
            yield tile, cot, rng.choice((None, random_window(rng, d)))


def periods_kinds(args, answer):
    """The tiling status of the draw, and whether the congruence failed, with or without a window."""
    tile, cot, window = args
    return {verify_cotiler(tile, cot).status, (window is None, answer is VerificationFailedError)}


# --- the table ---------------------------------------------------------------------


class Row(NamedTuple):
    id: str
    fast: Callable
    reference: Callable
    draw: Callable
    seeds: list
    # (kinds(args, answer), holds(kinds, *params)): the answers each seed's
    # draw must reach, gathered as a set of kinds
    reaches: tuple = None


CLASSES = dict(zip(VARIANTS, ("Periodic", "CosetIndicator", "Mechanical", "FiniteSupport", "Sum", "ValueMap")))
DIMS = (1, 2, 3)
EVERY_KIND = {(box, x) for box in (True, False) for x in (True, False, "empty")}

ROWS = [
    *(Row(f"configurations.{CLASSES[v]}.block", block, block_reference, config_boxes,
          [(f"block/{v}/{d}", d, v) for d in DIMS]) for v in VARIANTS),
    *(Row(f"configurations.{CLASSES[v]}.block", block, block_reference, large_index_boxes, [(7, v)])
      for v in ("periodic", "coset")),
    Row("configurations.FiniteSupport.block", block, block_reference, spread_supports,
        [(f"spread/{d}", d) for d in DIMS]),
    Row("laurent.apply", fields(apply, "shape", "cells"),
        lambda f, c, window: (window, tuple(apply_reference(f, c, window).values())), apply_cases,
        [(f"{prefix}/{d}", d) for d in DIMS for prefix in ("apply", "flat-apply", "explicit-apply")]),
    Row("configurations.pattern_complexity", fields(pattern_complexity, "count", "exact", "sample_window"),
        complexity_reference, keyed_cases, [(s, 72) for s in (11, 22)]),
    Row("nivat.nivat_scan", scan, scan_reference, scan_cases,
        [(s, 6) for s in (33, 44)]
        + [(f"scan/strips/{h}", h) for h in (1, 2, 3, 7, 8, 9, 15, 16, 17)]
        # wide and short, then tall and narrow: the squares stop growing on one axis, not the other
        + [(f"scan/thin/{h}x{w}", h, w) for h, w in ((1, 200), (2, 200), (3, 200), (100, 3), (200, 3))],
        (lambda args, rows: {row[3] for row in rows}, both_verdicts)),
    Row("nivat.line_pattern_census", census, census_reference, census_cases,
        [(s, 54) for s in (55, 66)] + [(repr(v), 12, v) for v in CENSUS_STEPS]),
    Row("annihilator.find_annihilator", annihilator, annihilator_reference, keyed_cases, [(s, 54) for s in (77, 88)]),
    Row("configurations.support_anchors", support_keyed, support_keyed_reference, supported_cases,
        [(f"support/anchors/{d}", d) for d in DIMS]),
    Row("configurations.residue_representatives", site_scan, switched_off(site_scan, EVERY_ANCHOR), sites,
        [("sites", periodic_inputs, periodic_samples, (2,), 6)], (verdicts, both_verdicts)),
    Row("configurations.residue_representatives", site_complexities,
        switched_off(site_complexities, EVERY_ANCHOR), sites,
        [("sites", periodic_inputs, periodic_samples, DIMS, 6)]),
    # the verify window holds every residue class, so only the g*c check on
    # it can fail: f*c then vanishes on the whole board
    Row("configurations.residue_representatives", site_annihilator,
        switched_off(site_annihilator, EVERY_ANCHOR), sites,
        [("sites", periodic_inputs, periodic_samples, DIMS, 6)],
        (annihilator_kinds, lambda kinds, *_: kinds == {"found", None, "g*c"})),
    Row("configurations.support_anchors", site_scan, switched_off(site_scan, NO_SUPPORT), sites,
        [("support-sites", site_inputs, site_samples, (2,), 1)], (verdicts, both_verdicts)),
    Row("configurations.support_anchors", site_complexities, switched_off(site_complexities, NO_SUPPORT), sites,
        [("support-sites", site_inputs, site_samples, (2,), 1)],
        (lambda args, rs: {r.count for r in rs}, lambda kinds, *_: len(kinds) > 3)),
    Row("configurations.support_anchors", site_annihilator, switched_off(site_annihilator, NO_SUPPORT), sites,
        [("support-sites", site_inputs, site_samples, (2,), 1)],
        (annihilator_kinds, lambda kinds, *_: {"found", None} <= kinds)),
    Row("configurations.support_anchors", site_3d, switched_off(site_3d, NO_SUPPORT), sites_3d,
        [("support-sites/3d",)]),
    Row("decomposition.difference", difference_cells, difference_reference, pattern_steps, [(s, 90) for s in (3, 4)]),
    Row("decomposition.integrate", fields(integrate, "shape", "cells"), integrate_reference, pattern_steps,
        [(s, 60, 3, True) for s in (5, 6)]),
    Row("decomposition._repeats", _repeats, repeats_reference, pattern_steps, [(s, 90, 2) for s in (9, 10)],
        (lambda args, answer: {answer}, lambda kinds, *_: kinds == {True, False})),
    Row("decomposition.difference_vanishes", difference_vanishes, lambda p, v: difference(p, v).is_zero(),
        pattern_steps, [(s, 120) for s in (13, 14)],
        (lambda args, answer: {(args[0].shape.is_box, answer if isinstance(answer, bool) else "empty")},
         lambda kinds, *_: kinds == EVERY_KIND)),
    Row("decomposition._stencil_solve", decompose,
        switched_off(decompose, [(nivatk.decomposition, "_stencil_solve", lambda *a: None)]), periodic_sums,
        [(f"stencil/{d}", d) for d in (2, 3)]),
    Row("annihilator.search_difference_annihilator", search_outcome(search_difference_annihilator),
        search_outcome(ref_search), search_cases, [(f"flat-search/{d}", d) for d in DIMS],
        (lambda args, found: {len(found) if isinstance(found, list) else found and found[0]},
         lambda kinds, d: kinds >= {1, 2, None, "WindowTooSmallError"})),
    Row("laurent.periodicity_test", fields(periodicity_test, "status", "witness"), periodicity_reference,
        periodicity_cases, [(f"periodicity/{v}", v) for v in VARIANTS],
        (lambda args, answer: {answer[0]}, lambda kinds, variant: kinds == {
            "periodic" if variant == "periodic" else "unknown", "not-periodic"})),
    Row("laurent.LaurentPolynomial.__mul__", product, reference_product, product_cases,
        [(67 + d, d) for d in (1, 2, 3, 4)]),
    Row("laurent.LaurentPolynomial.__mul__", product, reference_product, spread_axis_products, [(79,)]),
    Row("laurent._upoly_prem", gcd, lambda a, b, planted: (monic(rational_gcd(a, b)), True, 1, True), gcd_cases,
        [(37,)]),
    Row("linalg.solve_sparse", exact_solution, lambda *system: (*dense_solution(*system), True), systems,
        [(23, 4, False, 60), (29, 10**6, True, 200)]),
    Row("linalg.solve_sparse", solve_sparse, _solve_echelon, graph_systems, [(43,)]),
    Row("linalg._solve_graph", graph_walk, lambda rows, rhs, ncols: _solve_echelon(rows, rhs, ncols)[0],
        graph_systems, [(43,)]),
    Row("linalg.kernel_vector", kernel_vector, lambda rows: next(iter(nullspace_basis(rows)), None), matrices,
        [(41, 300)], (lambda args, vec: {vec is None}, lambda kinds, *_: kinds == {True, False})),
    Row("tiling.verify_cotiler", verify_cotiler, verify_reference, cotiler_cases,
        [(f"cotiler/{d}", d, False) for d in DIMS],
        (lambda args, answer: {answer.status}, lambda kinds, *_: kinds == {"Valid", "Overlap", "Gap"})),
    Row("tiling.prime_periodicity_check", prime_periodicity_check, periods_reference, cotiler_cases,
        [(f"periods/{d}", d, True) for d in DIMS],
        (periods_kinds, lambda kinds, *_: kinds == {"Valid", "Overlap", "Gap"} | {
            (unwindowed, failed) for unwindowed in (True, False) for failed in (True, False)})),
    Row("tiling.search_periodic_cotiler", lambda tile: repr(search_periodic_cotiler(tile, 12)),
        lambda tile: repr(list_search(tile, 12)), tile_cases, [(f"exact-cover/{d}", d) for d in DIMS],
        (lambda args, answer: {answer == "None"}, lambda kinds, dim: kinds == {True, False})),
]


def check(row, seed, params):
    kinds, answered = set(), False
    for args in row.draw(random.Random(seed), *params):
        got = outcome(row.fast, *args)
        assert got == outcome(row.reference, *args), (row.id, seed, args)
        answered |= not isinstance(got, type)
        if row.reaches:
            kinds |= row.reaches[0](args, got)
    assert answered, (row.id, seed, "every case raised")
    assert not row.reaches or row.reaches[1](kinds, *params), (row.id, seed, kinds)


