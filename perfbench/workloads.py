"""The four benchmark workloads: seeded inputs, jobs and answer checks.

A workload is built by `build(name, nk, seed, size)` from the freshly
imported nivatk package `nk`.  Building is the set-up the benchmark times:
descriptors are parsed and the seeded configurations and polynomials are
made.  Each job calls nivatk through the package or module attribute at
call time, so the tracer's patches are seen.  `check` compares an answer
with an oracle from oracles.py; `canon` gives a canonical, comparable form
of the answer, used to compare passes, traced with untraced runs, and the
default seed with the digests recorded in digests.json.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import oracles as O

DEFAULT_SEED = 1
HERE = Path(__file__).resolve().parent
CLI_PINS = HERE / "cli_pins.json"

@dataclass
class Job:
    name: str
    run: Callable[[], object]
    check: Callable[[object, O.Checker], None]
    canon: Callable[[object], object] = repr


# --- canonical forms -------------------------------------------------------------


def poly_canon(f):
    return tuple(sorted((e, str(a)) for e, a in f.terms.items()))


def rows_canon(rows):
    return tuple((r.M, r.N, r.lower_bound_count, r.threshold, r.verdict) for r in rows)


def report_canon(rep):
    if rep is None:
        return None
    return (poly_canon(rep.g), rep.constant, poly_canon(rep.f))


def lf_canon(lf):
    return (lf.monomial, tuple((v, poly_canon(phi)) for v, phi in lf.factors),
            poly_canon(lf.remainder))


# --- shared inputs -----------------------------------------------------------------

BINARY_IRRATIONAL = ("sum { +mechanical weights(1,1) alpha sqrt(2) "
                     "-mechanical weights(1,0) alpha sqrt(2) "
                     "-mechanical weights(0,1) alpha sqrt(2) }")
STURMIAN = ("sum { +mechanical weights(1,1) alpha sqrt(2) "
            "-mechanical weights(1,0) alpha sqrt(2) }")
TWO_LINES = ("sum {{ +coset offset(0,0,0) gens{{(1,0,0)}} value 1 "
             "+coset offset(0,0,{k}) gens{{(0,1,0)}} value 1 }}")
README_BOARD = "periodic lattice{(2,0) (1,1)} values{(0,0):0 (1,0):1}"
CHECKERBOARD = "periodic lattice{(2,0) (0,2)} values{(0,0):0 (0,1):1 (1,0):1 (1,1):0}"
DOUBLE_DIFFERENCE = "X^(1,1) - X^(1,0) - X^(0,1) + 1"
TRIPLE_DIFFERENCE = "X^(2,0) - X^(2,-1) - X^(1,1) + X^(1,-1) + X^(0,1) - 1"


def board_descriptor(basis, table) -> str:
    lat = " ".join(f"({a},{b})" for a, b in basis)
    vals = " ".join(f"({x},{y}):{v}" for (x, y), v in sorted(table.items()))
    return f"periodic lattice{{{lat}}} values{{{vals}}}"


def random_board(rng, index):
    """Basis (p,0), (q,r) with p*r = index, values 0..3 on [0,p) x [0,r)."""
    p = rng.choice([k for k in range(1, index + 1) if index % k == 0])
    r = index // p
    q = rng.randrange(p)
    basis = [(p, 0), (q, r)]
    table = {(x, y): rng.randint(0, 3) for x in range(p) for y in range(r)}
    return basis, table


def triple_difference(nk):
    LP = nk.LaurentPolynomial
    return LP.difference((1, 0)) * LP.difference((0, 1)) * LP.difference((1, -1))


# --- periodic-fullscan -----------------------------------------------------------


def build_periodic_fullscan(nk, seed, size):
    S, A = {"full": (60, 87), "smoke": (16, 12)}[size]
    rng = random.Random(f"periodic-fullscan/{seed}")
    W = nk.Window
    specs = [([(2, 0), (1, 1)], {(0, 0): 0, (1, 0): 1})]
    specs += [random_board(rng, 3), random_board(rng, 4)]
    boards = [(nk.parse_config(board_descriptor(b, t)), O.Board(b, t)) for b, t in specs]
    shape = W.box((0, 0), (2, 2))
    shape_pts = [(x, y) for x in range(3) for y in range(3)]
    sample = W.box((0, 0), (S - 1, S - 1))
    sample_pts = [(x, y) for x in range(S) for y in range(S)]
    jobs = []

    for i, (c, ref) in enumerate(boards):
        def check_scan(rows, ck, ref=ref):
            want = [(M, N) for M in range(2, 9) for N in range(2, 9)]
            ck.eq([(r.M, r.N) for r in rows], want, "scan grid")
            for r in rows:
                exact = O.distinct_blocks(ref, ref.residues(), r.M, r.N)
                ck.eq((r.lower_bound_count, r.threshold, r.verdict),
                      (exact, r.M * r.N, "Inconclusive"), f"scan row {r.M}x{r.N}")

        jobs.append(Job(f"scan/{i}",
                        lambda c=c: nk.nivat_scan(c, range(2, 9), range(2, 9), sample),
                        check_scan, rows_canon))

        v = rng.choice([(1, 0), (0, 1), (1, 1), (1, -1), (2, 1), (1, 2)])

        def census_groups(ref=ref, v=v):
            return O.line_census(ref, shape_pts, O.canonical_sign(v), sample_pts)

        def check_census(got, ck, groups=census_groups):
            want = sorted((rep, len(keys)) for rep, keys in groups().items())
            ck.eq(got, want, "line census")

        def check_disjoint(got, ck, groups=census_groups):
            ck.eq(got, O.greedy_disjoint(groups()), "disjoint line count")

        jobs.append(Job(f"census/{i}",
                        lambda c=c, v=v: nk.line_pattern_census(c, shape, v, sample),
                        check_census))
        jobs.append(Job(f"disjoint/{i}",
                        lambda c=c, v=v: nk.disjoint_pattern_line_count(c, shape, v, sample),
                        check_disjoint))

    # Three searches on the README board, so that the certificate, and with
    # it the cost of checking it on the window, is the same for every seed.
    # Together they sample as many anchors as one 150^2 window, and the p90
    # job is not one long call that a slow second of the machine decides.
    c, ref = boards[0]
    for i in range(3):
        ox, oy = rng.randint(-500, 500), rng.randint(-500, 500)
        window = W.box((ox, oy), (ox + A - 1, oy + A - 1))
        jobs.append(Job(f"annihilator/{i}",
                        lambda window=window: nk.find_annihilator(c, shape, window, window),
                        lambda rep, ck: check_certificate(rep, ref, ck),
                        report_canon))
    return jobs


def check_certificate(rep, ref, ck):
    """g*c is the reported constant and f = (X^(1,0) - 1) g kills c, checked
    on every residue class of the board."""
    ck.true(rep is not None, "annihilator found")
    ck.true(len(rep.g.terms) > 0, "g is nonzero")
    f_want = O.poly_mul(O.poly_norm({(1, 0): 1, (0, 0): -1}), O.poly_norm(rep.g.terms))
    ck.eq(O.poly_norm(rep.f.terms), f_want, "f = (X^(1,0) - 1) g")
    ck.eq({O.convolve_at(rep.g.terms, ref, u) for u in ref.residues()},
          {Fraction(rep.constant)}, "g*c constant")
    ck.eq({O.convolve_at(rep.f.terms, ref, u) for u in ref.residues()},
          {Fraction(0)}, "f*c = 0")


# --- irrational-sample ------------------------------------------------------------


def build_irrational_sample(nk, seed, size):
    # Criteria 09 and 03 run on 400^2 and 150^2, not their 500^2 and 200^2:
    # shorter jobs meet fewer of the machine's slow seconds, and more passes
    # fit in a run.
    S09, ANCH, NMAX, S03, SAMPLE01 = {
        "full": (400, 10000, 15, 150, 12),
        "smoke": (60, 400, 5, 30, 4),
    }[size]
    rng = random.Random(f"irrational-sample/{seed}")
    W = nk.Window
    default = seed == DEFAULT_SEED

    def offset():
        return (0, 0) if default else (rng.randint(-300, 300), rng.randint(-300, 300))

    jobs = []
    binary = nk.parse_config(BINARY_IRRATIONAL)

    # criterion 09: early-exit scan
    ox, oy = offset()
    sample09 = W.box((ox, oy), (ox + S09 - 1, oy + S09 - 1))

    def check_c09(rows, ck):
        memo = {}

        def val(x, y):
            v = memo.get((x, y))
            if v is None:
                v = memo[(x, y)] = O.binary_irrational(x, y)
            return v

        ck.eq(len(rows), 49, "row count")
        for r in rows:
            seen = set()
            done = False
            for i in range(S09):
                for j in range(S09):
                    seen.add(O.block_key(val, ox + i, oy + j, r.M, r.N))
                    if len(seen) > r.M * r.N:
                        done = True
                        break
                if done:
                    break
            ck.eq((r.verdict, r.lower_bound_count), ("ExceedsMN", len(seen)),
                  f"scan row {r.M}x{r.N}")
            ck.eq(len(seen), r.M * r.N + 1, f"early exit count {r.M}x{r.N}")

    jobs.append(Job("c09/scan",
                    lambda: nk.nivat_scan(binary, range(2, 9), range(2, 9), sample09),
                    check_c09, rows_canon))

    # criterion 10: Sturmian complexities and annihilator searches
    sturm = nk.parse_config(STURMIAN)
    x0 = 0 if default else rng.randint(-5000, 5000)
    anchors = W.box((x0, 1), (x0 + ANCH - 1, 1))
    word = [O.sturmian(x0 + i, 1) for i in range(ANCH + NMAX)]

    def factors(n):
        return {tuple(word[i:i + n]) for i in range(ANCH)}

    for n in range(1, NMAX + 1):
        shape = W.box((0, 0), (n - 1, 0))

        def check_cx(res, ck, n=n):
            ck.eq((res.count, res.exact), (len(factors(n)), False), f"complexity n={n}")
            ck.eq(res.count, n + 1, f"Sturmian n+1 at n={n}")

        jobs.append(Job(f"c10/complexity/{n}",
                        lambda shape=shape: nk.pattern_complexity(sturm, shape, anchors),
                        check_cx, lambda res: (res.count, res.exact)))
    # fixed n, so that every seed costs the same
    for n in (NMAX // 3, 2 * NMAX // 3):
        shape = W.box((0, 0), (n - 1, 0))

        def check_none(rep, ck, n=n):
            rows = [(1,) + f for f in factors(n)]
            ck.eq(O.rank(rows), n + 1, f"distinct rows have full rank at n={n}")
            ck.eq(rep, None, f"no annihilator at n={n}")

        jobs.append(Job(f"c10/annihilator/{n}",
                        lambda shape=shape: nk.find_annihilator(sturm, shape, anchors, anchors),
                        check_none, report_canon))

    # criterion 01: 3x3x3 complexity of two lines in Z^3
    k = 3 if default else rng.randint(3, 6)
    lines3 = nk.parse_config(TWO_LINES.format(k=k))
    cube = W.box((0, 0, 0), (2, 2, 2))
    s = SAMPLE01
    sample01 = W.box((-s, -s, -s), (s - 3, s - 3, max(s - 3, k + 1)))

    def check_c01(res, ck):
        ck.eq(res.count, 2 * 3 * 3 + 1, "2n^2 + 1 at n = 3")

    jobs.append(Job("c01/complexity",
                    lambda: nk.pattern_complexity(lines3, cube, sample01),
                    check_c01, lambda res: (res.count, res.exact)))

    # criterion 03: triple difference annihilates the binary configuration
    ax, ay = offset()
    window03 = W.box((ax, ay), (ax + S03 - 1, ay + S03 - 1))
    g = triple_difference(nk)

    def run_c03():
        pat = nk.apply(g, binary, window03)
        ann = nk.annihilates(g, binary, window03)
        values = {binary.value(u) for u in window03}
        return pat, ann, values

    def check_c03(res, ck):
        # a compact grid of oracle values, so that the check does not raise
        # the process's peak memory above the job's own
        pat, ann, values = res
        x0, y0 = ax - 2, ay - 1
        grid = [[O.binary_irrational(x, y) for y in range(y0, ay + S03 + 1)]
                for x in range(x0, ax + S03)]
        terms = O.poly_mul({(1, 1): 1, (1, 0): -1, (0, 1): -1, (0, 0): 1},
                           {(1, -1): 1, (0, 0): -1})
        ck.eq(list(pat.values), [(x, y) for x in range(ax, ax + S03)
                                 for y in range(ay, ay + S03)], "pattern cells")
        for (x, y), got in pat.values.items():
            want = sum(a * grid[x - e[0] - x0][y - e[1] - y0] for e, a in terms.items())
            if got != want:
                ck.eq(got, want, f"triple difference at {(x, y)}")
            if want != 0:
                ck.eq(want, 0, f"triple difference vanishes at {(x, y)}")
        ck.eq(ann.status, "window", "annihilation status")
        ck.eq(values, {grid[x - x0][y - y0] for x in range(ax, ax + S03)
                       for y in range(ay, ay + S03)}, "values on the window")
        ck.true(values <= {0, 1}, "binary values")

    jobs.append(Job("c03/annihilates", run_c03, check_c03,
                    lambda res: (tuple(res[0].values.values()), res[1].status,
                                 tuple(sorted(res[2])))))
    return jobs


# --- algebra -------------------------------------------------------------------------


def fresh_values(family, seed):
    """None at the default seed, else a generator of new coefficient values.

    Every algebra family draws its cases from the acceptance suite's own
    stream (seeds 101, 202, 303, 404), so every seed has the same shapes,
    lattices, supports and degrees, and costs the same.  At the default
    seed the values are the stream's too, which reproduces the suite; any
    other seed redraws only the values.
    """
    return None if seed == DEFAULT_SEED else random.Random(f"algebra/{family}/{seed}")


def build_algebra(nk, seed, size):
    n05, n06, n07, n08, n11, k_line = {
        "full": (30, 5, 6, 30, 12, 20000),
        "smoke": (3, 1, 1, 3, 2, 500),
    }[size]
    LP = nk.LaurentPolynomial
    W = nk.Window
    jobs = []

    # criterion 05: annihilator certificates on random periodic boards
    rng = random.Random(101)
    fresh = fresh_values("c05", seed)
    sample = W.box((0, 0), (11, 11))
    verify = W.box((0, 0), (14, 14))
    wide = W.box((-9, -9), (20, 20))
    mid = W.box((-5, -5), (16, 16))
    accepted = 0
    while accepted < n05:
        p = rng.randint(1, 5)
        r = rng.randint(1, 5)
        q = rng.randint(0, r - 1) if r > 1 else 0
        lat = nk.Lattice([(p, 0), (q, r)])
        values = {cell: rng.randint(-3, 3) for cell in lat.residues()}
        c = nk.Periodic(lat, values)
        w = rng.randint(1, 3)
        h = rng.randint(1, 3)
        shape = W.box((0, 0), (w - 1, h - 1))
        if len(shape) > 9:
            continue
        if nk.pattern_complexity(c, shape).count > len(shape):
            continue
        for _ in range(100 if fresh else 0):
            redrawn = {cell: fresh.randint(-3, 3) for cell in lat.residues()}
            c2 = nk.Periodic(lat, redrawn)
            if nk.pattern_complexity(c2, shape).count <= len(shape):
                c, values = c2, redrawn
                break
        ref = O.Board([(p, 0), (q, r)], values)

        def run05(c=c, shape=shape):
            rep = nk.find_annihilator(c, shape, sample, verify)
            ann = nk.annihilates(rep.f, c, wide)
            gc = nk.apply(rep.g, c, mid).constant_value()
            return rep, ann.status, gc

        def check05(res, ck, ref=ref):
            rep, status, gc = res
            check_certificate(rep, ref, ck)
            ck.eq(status, "exact", "exact annihilation")
            ck.eq(gc, rep.constant, "g*c constant on a window")

        jobs.append(Job(f"c05/{accepted}", run05, check05,
                        lambda res: (report_canon(res[0]), res[1], res[2])))
        accepted += 1

    # criterion 06: decomposition round trips
    rng = random.Random(202)
    fresh = fresh_values("c06", seed)
    pool = [(1, 0), (0, 1), (1, 1), (1, -1), (2, 1), (1, 2)]
    core = W.box((0, 0), (29, 29))
    core_cells = [(x, y) for x in range(30) for y in range(30)]
    for i in range(n06):
        vecs = rng.sample(pool, rng.randint(1, 3))
        parts, refs = [], []
        for v in vecs:
            u = nk.lattice.vec_scale(rng.randint(1, 3), nk.lattice.unimodular_complement(v))
            lat = nk.Lattice([v, u])
            table = {cell: rng.randint(-3, 3) for cell in lat.residues()}
            if fresh:
                table = {cell: fresh.randint(-3, 3) for cell in table}
            parts.append((1, nk.Periodic(lat, table)))
            refs.append((1, O.Board([v, u], table)))
        c = nk.Sum(parts)
        ref = O.BoardSum(refs)

        def check06(dec, ck, ref=ref, vecs=vecs):
            ck.true(dec.residual_check, "residual check")
            ck.eq(list(dec.vectors), [tuple(v) for v in vecs], "component steps")
            for cell in core_cells:
                ck.eq(sum(p.values[cell] for p in dec.components), ref(*cell),
                      f"component sum at {cell}")
            cells = set(core_cells)
            for comp, v in zip(dec.components, dec.vectors):
                for x, y in core_cells:
                    t = (x + v[0], y + v[1])
                    if t in cells and comp.values[t] != comp.values[(x, y)]:
                        ck.eq(comp.values[t], comp.values[(x, y)], f"period {v} at {(x, y)}")

        def dec_canon(dec):
            return (dec.vectors, dec.residual_check, dec.integral,
                    tuple(tuple(str(p.values[u]) for u in core_cells) for p in dec.components))

        jobs.append(Job(f"c06/{i}", lambda c=c, vecs=vecs: nk.decompose(c, vecs, core),
                        check06, dec_canon))

    # criterion 07: f^p = f(X^p) mod p, with f^p by repeated multiplication
    rng = random.Random(303)
    fresh = fresh_values("c07", seed)
    primes = (2, 3, 5, 7, 11, 13)
    made = 0
    while made < n07:
        terms = {}
        for _ in range(rng.randint(1, 6)):
            e = (rng.randint(-3, 3), rng.randint(-3, 3))
            coeff = rng.randint(-9, 9)
            if coeff:
                terms[e] = Fraction(coeff)
        if not terms:
            continue
        if fresh:
            terms = flip_signs(fresh, terms)
        f = LP(2, terms)

        def run07(f=f):
            out = []
            for p in primes:
                fp = f
                for _ in range(p - 1):
                    fp = fp * f
                out.append((p, fp, f.substitute_power(p)))
            return out

        def check07(res, ck, terms=terms):
            for p, fp, sub in res:
                want = O.frobenius_mod(terms, p)
                got = {e: a.numerator % p for e, a in fp.terms.items() if a.numerator % p}
                ck.eq(got, want, f"f^{p} mod {p}")
                ck.eq(sub.coefficients_mod(p), want, f"f(X^{p}) mod {p}")

        jobs.append(Job(f"c07/{made}", run07, check07,
                        lambda res: tuple((p, poly_canon(fp)) for p, fp, _ in res)))
        made += 1

    # criterion 08: line factorization recovers planted directions
    rng = random.Random(404)
    fresh = fresh_values("c08", seed)
    dirs_pool = sorted({
        O.canonical_sign((a, b))
        for a in range(-3, 4) for b in range(-3, 4)
        if (a, b) != (0, 0) and math.gcd(a, b) == 1})
    for i in range(n08):
        planted = sorted(rng.sample(dirs_pool, rng.randint(1, 3)))
        base = rng.choice(LINE_FREE)
        shift = (rng.randint(-2, 2), rng.randint(-2, 2))
        want = O.poly_norm({(e[0] + shift[0], e[1] + shift[1]): a for e, a in base.items()})
        f = LP(2, want)
        for v in planted:
            phi = random_line_polynomial(rng, v)
            if fresh:
                phi = flip_signs(fresh, phi, keep=((0, 0),))
            f = f * LP(2, phi)
            want = O.poly_mul(want, O.poly_norm(phi))

        def check08(lf, ck, planted=planted, want=want):
            ck.eq(sorted(lf.directions), planted, "planted directions")
            ck.eq(lf_product(lf), want, "product() == f")

        jobs.append(Job(f"c08/{i}", lambda f=f: nk.line_factorization(f), check08, lf_canon))

    # criterion 11: bound calculators against their closed forms
    rng = random.Random(f"algebra/c11/{seed}")
    small = [(a, b) for a in range(-3, 4) for b in range(-3, 4)
             if math.gcd(a, b) == 1]

    def run_axis():
        return [nk.bound_two_directions((1, 0), (0, 1), M, N)
                for M in range(1, 11) for N in range(1, 11)]

    jobs.append(Job("c11/axis", run_axis,
                    lambda got, ck: ck.eq(got, [M * N for M in range(1, 11)
                                                for N in range(1, 11)], "M*N")))
    g = triple_difference(nk)
    lf_g = nk.line_factorization(g)
    f22 = LP(2, {(2, 2): 1, (0, 0): 1})
    for i in range(n11):
        while True:
            v1, v2 = rng.sample(small, 2)
            if v1[0] * v2[1] - v1[1] * v2[0]:
                break
        M, N = (5, 5) if i == 0 else (rng.randint(2, 12), rng.randint(2, 12))

        def check_two(got, ck, v1=v1, v2=v2, M=M, N=N):
            ck.eq(got, O.two_direction_bound(v1, v2, M, N), f"two-direction bound {v1} {v2}")

        def check_cor(got, ck, M=M, N=N):
            rep_g, rep_f = got
            base = (M - 2) * (N - 2)
            ck.eq(dict(rep_g.bounds)["cor-a"], base, "cor-a of the triple difference")
            ck.eq(dict(rep_g.bounds)["cor-c"], 2 * base, "cor-c of the triple difference")
            ck.eq(dict(rep_f.bounds)["cor-a"], base, "cor-a of X^(2,2) + 1")

        jobs.append(Job(f"c11/two/{i}",
                        lambda v1=v1, v2=v2, M=M, N=N: nk.bound_two_directions(v1, v2, M, N),
                        check_two))
        jobs.append(Job(f"c11/cor/{i}",
                        lambda M=M, N=N: (nk.corollary_report(g, lf_g, M, N),
                                          nk.corollary_report(f22, None, M, N)),
                        check_cor,
                        lambda got: (got[0].bounds, got[1].bounds)))

    # two-term line polynomials: dense along an axis, sparse off it; k
    # varies by less than one percent, so every seed costs the same
    rng = random.Random(f"algebra/lines/{seed}")
    for kind in ("dense", "dense", "skew", "skew"):
        k = k_line + rng.randint(0, k_line // 100)
        e = (k, 0) if kind == "dense" else (k, 1)
        want = O.poly_norm({e: 1, (0, 0): -1})
        f = LP(2, want)

        def check_line(lf, ck, e=e, want=want):
            ck.eq(lf.directions, (O.canonical_sign((e[0] // math.gcd(*e), e[1] // math.gcd(*e))),),
                  "line direction")
            ck.eq(lf_product(lf), want, "product() == f")

        jobs.append(Job(f"lines/{kind}/{len(jobs)}", lambda f=f: nk.line_factorization(f),
                        check_line, lf_canon))
    return jobs


# hand-checked to be irreducible and not supported on any single line
LINE_FREE = (
    {(0, 0): 1, (1, 0): 1, (0, 1): 1},
    {(0, 0): 1, (1, 0): 1, (0, 2): 1},
    {(0, 0): 1, (1, 0): 1, (1, 1): 1},
    {(0, 0): 3, (1, 0): 2, (0, 1): 1},
    {(0, 0): 1, (1, 0): 2, (0, 1): 3, (2, 0): 5},
)


def random_line_polynomial(rng, v):
    deg = rng.randint(1, 3)
    coeffs = [rng.randint(1, 5)]
    coeffs += [rng.randint(-4, 4) for _ in range(deg - 1)]
    coeffs += [rng.choice([1, 2, 3, -1, -2])]
    return {(k * v[0], k * v[1]): a for k, a in enumerate(coeffs) if a}


def flip_signs(rng, terms, keep=()):
    """The same magnitudes with fresh signs, except at the exponents in keep.

    Magnitudes set the size of the exact arithmetic, so the cost of a case
    stays the same while its answer changes."""
    return {e: a if e in keep else rng.choice((1, -1)) * a for e, a in terms.items()}


def lf_product(lf):
    out = {tuple(lf.monomial): Fraction(1)}
    for _, phi in lf.factors:
        out = O.poly_mul(out, O.poly_norm(phi.terms))
    return O.poly_mul(out, O.poly_norm(lf.remainder.terms))


# --- cli -------------------------------------------------------------------------------

TROMINO = "tile { (0,0) (0,1) (1,0) }"
U_PENTOMINO = "tile { (0,0) (0,1) (1,0) (2,0) (2,1) }"
TWO_LINES_3 = TWO_LINES.format(k=3)
CUBE = "-6..6,-6..6,-6..6"

# (argv, heavy); outputs are pinned in cli_pins.json.  The README and test
# inputs, one or more per subcommand, and the input errors that exit 2.
CLI_CATALOG = [
    (["complexity", "--config", README_BOARD, "--shape", "2x2"], False),
    (["complexity", "--config", CHECKERBOARD, "--shape", "2x2"], False),
    (["complexity", "--config", CHECKERBOARD, "--shape", "3x3"], False),
    (["complexity", "--config", TWO_LINES_3, "--shape", "3x3x3",
      "--sample=-12..9,-12..9,-12..9"], True),
    (["complexity", "--config", BINARY_IRRATIONAL, "--shape", "2x2", "--sample", "30x30"], False),
    (["complexity", "--config", "mechanical weights(1,0) alpha sqrt(2)",
      "--shape", "4x1", "--sample", "60x1"], False),
    (["annihilate", "--config", README_BOARD, "--shape", "2x2", "--sample", "10x10"], False),
    (["annihilate", "--config", CHECKERBOARD, "--shape", "2x2", "--sample", "8x8"], False),
    (["annihilate", "--config", BINARY_IRRATIONAL, "--shape", "2x2", "--sample", "20x20"], False),
    (["verify", "--config", CHECKERBOARD, "--poly", "X^(1,1) - 1", "--window", "10x10"], False),
    (["verify", "--config", CHECKERBOARD, "--poly", "x - 1", "--window", "6x6"], False),
    (["verify", "--config", README_BOARD, "--poly", "X^(1,0) + X^(1,-1) - 1 - X^(0,-1)",
      "--window", "12x12"], False),
    (["verify", "--config", BINARY_IRRATIONAL, "--poly", TRIPLE_DIFFERENCE,
      "--window", "40x40"], False),
    (["search", "--config", TWO_LINES_3, "--max-factors", "2", "--coord-bound", "1",
      "--window=" + CUBE], False),
    (["search", "--config", TWO_LINES_3, "--max-factors", "3", "--coord-bound", "2",
      "--window=" + CUBE], True),
    (["search", "--config", CHECKERBOARD, "--max-factors", "2", "--coord-bound", "1",
      "--window", "10x10"], False),
    (["decompose", "--config", TWO_LINES_3, "--vectors", "(1,0,0);(0,1,0)",
      "--core=-4..4,-4..4,-4..4"], False),
    (["decompose", "--config", README_BOARD, "--vectors", "(1,1)", "--core", "6x6"], False),
    (["decompose", "--config", CHECKERBOARD, "--vectors", "(1,0)", "--core", "6x6"], False),
    (["lines", "--poly", DOUBLE_DIFFERENCE], False),
    (["lines", "--poly", TRIPLE_DIFFERENCE], False),
    (["lines", "--poly", "X^(2,2) + 1"], False),
    (["lines", "--poly", "y + x - 1"], False),
    (["lines", "--poly", "X^(3,0) - X^(2,1) - X^(1,2) + X^(0,3)"], False),
    (["nivat-scan", "--config", CHECKERBOARD, "--M", "2..3", "--N", "2..2",
      "--sample", "20"], False),
    (["nivat-scan", "--config", BINARY_IRRATIONAL, "--M", "2..4", "--N", "2..4",
      "--sample", "50"], False),
    (["nivat-scan", "--config", README_BOARD, "--M", "2..4", "--N", "2..4",
      "--sample", "30"], False),
    (["bounds", "--poly", "X^(2,2) + 1", "--M", "5", "--N", "5"], False),
    (["bounds", "--poly", TRIPLE_DIFFERENCE, "--M", "6", "--N", "5"], False),
    (["bounds", "--v1", "(1,0)", "--v2", "(0,1)", "--M", "4", "--N", "5"], False),
    (["tile-verify", "--tile", TROMINO, "--lattice", "(3,0);(1,1)"], False),
    (["tile-verify", "--tile", "tile { (0,0) (1,0) }", "--lattice", "(1,0);(0,1)"], False),
    (["tile-search", "--tile", TROMINO, "--max-index", "3"], False),
    (["tile-search", "--tile", "tile { (0) (1) (3) }", "--max-index", "9"], False),
    (["tile-search", "--tile", U_PENTOMINO, "--max-index", "30"], True),
    (["examples"], True),
    # input errors
    (["bogus"], False),
    (["complexity"], False),
    (["complexity", "--config", "periodic lattice{(2,0)} values{", "--shape", "2x2"], False),
    (["complexity", "--config", "nonexistent.cfg", "--shape", "2x2"], False),
    (["complexity", "--config", "periodic lattice{(2,0) (1,1)} values{(0,0):0}",
      "--shape", "2x2"], False),
    (["complexity", "--config", "mechanical weights(1,1) alpha sqrt(4)", "--shape", "2x2",
      "--sample", "5x5"], False),
    (["lines", "--poly", "X^(1,"], False),
    (["bounds", "--M", "4", "--N", "5"], False),
    (["bounds", "--v1", "(1,0)", "--v2", "(2,0)", "--M", "3", "--N", "3"], False),
    (["nivat-scan", "--config", CHECKERBOARD, "--M", "0..2", "--N", "2", "--sample", "5"], False),
    (["tile-search", "--tile", "tile { (0,0) (1,0) }", "--max-index", "1"], False),
    (["verify", "--config", BINARY_IRRATIONAL, "--poly", "X^(1,0)*X^(0,1)",
      "--window", "10x10"], False),
]


def cli_key(argv) -> str:
    return json.dumps(argv)


def load_cli_pins() -> dict:
    with open(CLI_PINS, encoding="utf-8") as fh:
        return json.load(fh)


def fmt_vec(v) -> str:
    return "(" + ",".join(str(x) for x in v) + ")"


def seeded_cli_cases(rng, n_each):
    """(argv, expected exit code, expected stdout) from oracles."""
    cases = []
    prims = [(a, b) for a in range(-4, 5) for b in range(-4, 5) if math.gcd(a, b) == 1]
    for _ in range(n_each):
        while True:
            v1, v2 = rng.sample(prims, 2)
            if v1[0] * v2[1] - v1[1] * v2[0]:
                break
        M, N = rng.randint(1, 12), rng.randint(1, 12)
        cases.append((["bounds", "--v1", fmt_vec(v1), "--v2", fmt_vec(v2),
                       "--M", str(M), "--N", str(N)],
                      0, f"bound={O.two_direction_bound(v1, v2, M, N)}\n"))
        cases.append((["bounds", "--v1", fmt_vec(v1), "--v2", fmt_vec((-v1[0], -v1[1])),
                       "--M", str(M), "--N", str(N)], 2, ""))
    for _ in range(n_each):
        basis, table = random_board(rng, 4)
        ref = O.Board(basis, table)
        desc = board_descriptor(basis, table)
        w, h = rng.randint(1, 4), rng.randint(1, 4)
        count = len({tuple(ref(x + i, y + j) for i in range(w) for j in range(h))
                     for x, y in ref.residues()})
        cases.append((["complexity", "--config", desc, "--shape", f"{w}x{h}"],
                      0, f"count={count} exact=true\n"))
        p = basis[0][0]
        cases.append((["verify", "--config", desc, "--poly", f"X^({p},0) - 1",
                       "--window", f"{w + 4}x{h + 4}"],
                      0, "annihilates=true status=exact\n"))
    # exponents on a ramp, so the slowest tenth of the calls is a spread of
    # `lines` costs rather than a cliff between two unrelated commands
    for i in range(n_each):
        k = 200 * (i + 1) + rng.randint(0, 9)
        cases.append((["lines", "--poly", f"X^({k},0) - 1"], 0,
                      f"monomial=(0,0)\nfactor 0: direction=(1,0) poly=X^({k},0) - 1\n"
                      "remainder=1\ndirections=(1,0)\n"))
    return cases


def cli_call(nk, argv):
    """nivatk.cli.run in process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = nk.cli.run(list(argv))
    return code, out.getvalue(), err.getvalue()


def build_cli(nk, seed, size):
    rng = random.Random(f"cli/{seed}")
    pins = load_cli_pins()
    catalog = [(argv, *pins[cli_key(argv)]) for argv, heavy in CLI_CATALOG
               if size == "full" or not heavy]
    cases = catalog + seeded_cli_cases(rng, 12 if size == "full" else 2)
    rng.shuffle(cases)
    jobs = []
    for i, (argv, code, stdout) in enumerate(cases):
        def check(res, ck, code=code, stdout=stdout):
            ck.eq(res[:2], (code, stdout), "exit code and stdout")
            if code == 2:
                ck.true(res[2] != "", "an input error explains itself on stderr")

        jobs.append(Job(f"{i:03d}/{argv[0]}", lambda argv=argv: cli_call(nk, argv), check,
                        lambda res: res[:2]))
    return jobs


BUILDERS = {
    "periodic-fullscan": build_periodic_fullscan,
    "irrational-sample": build_irrational_sample,
    "algebra": build_algebra,
    "cli": build_cli,
}


def build(name, nk, seed, size):
    return BUILDERS[name](nk, seed, size)
