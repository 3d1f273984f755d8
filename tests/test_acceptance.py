"""End-to-end acceptance suite.

Each test prints one PASS line with the measured value; a failed assert
turns it into a FAIL in the report.  Runtime limits are asserted where the
criterion states one.
"""

import math
import random
import time
from fractions import Fraction

from nivatk.annihilator import find_annihilator, search_difference_annihilator
from nivatk.configurations import Periodic, Sum, pattern_complexity
from nivatk.decomposition import decompose
from nivatk.lattice import (
    Lattice,
    Window,
    canonical_sign,
    unimodular_complement,
    vec_add,
    vec_scale,
)
from nivatk.laurent import (
    LaurentPolynomial as LP,
    annihilates,
    apply,
    line_factorization,
    periodicity_test,
)
from nivatk.nivat import bound_two_directions, corollary_report, nivat_scan
from nivatk.tiling import (
    ClusterTile,
    prime_periodicity_check,
    search_periodic_cotiler,
    tile_polynomial,
    verify_cotiler,
)

from draws import binary_irrational, random_poly, sturmian_rows, two_lines_3d


def test_criterion_01_two_line_cube_complexity():
    t0 = time.monotonic()
    res = pattern_complexity(two_lines_3d(), Window.box((0, 0, 0), (2, 2, 2)),
                             Window.box((-12, -12, -12), (9, 9, 9)))
    dt = time.monotonic() - t0
    assert res.count == 19  # 2*n^2 + 1 at n = 3, exactly
    assert dt < 10.0
    print(f"criterion 01: PASS count=19 ({dt:.2f}s)")


def test_criterion_02_difference_search_two_steps():
    t0 = time.monotonic()
    steps = search_difference_annihilator(
        two_lines_3d(), 2, 1, Window.box((-6, -6, -6), (6, 6, 6)))
    dt = time.monotonic() - t0
    assert steps is not None
    assert set(steps) == {(1, 0, 0), (0, 1, 0)}
    assert dt < 30.0
    print(f"criterion 02: PASS steps={sorted(steps)} ({dt:.2f}s)")


def test_criterion_03_triple_difference_annihilates_binary_values():
    t0 = time.monotonic()
    c = binary_irrational()
    f = (LP.difference((1, 0)) * LP.difference((0, 1))
         * LP.difference((1, -1)))
    window = Window.box((0, 0), (199, 199))
    pat = apply(f, c, window)
    assert all(v == 0 for v in pat.values.values())
    assert annihilates(f, c, window)
    values = {c.value(u) for u in window}
    assert values <= {0, 1}
    dt = time.monotonic() - t0
    assert dt < 10.0
    print(f"criterion 03: PASS zero on 200x200, values={sorted(values)} ({dt:.2f}s)")


def test_criterion_04_tromino_prime_pipeline():
    t0 = time.monotonic()
    tile = ClusterTile([(0, 0), (0, 1), (1, 0)])
    cot = search_periodic_cotiler(tile, 3)
    assert cot is not None
    assert verify_cotiler(tile, cot).status == "Valid"
    periods = prime_periodicity_check(tile, cot)
    expected = sorted({
        canonical_sign(vec_scale(3, (v[0] - u[0], v[1] - u[1])))
        for u in tile.cells for v in tile.cells if u != v})
    assert periods == expected
    config = cot.configuration()
    for w in periods:
        assert periodicity_test(config, w).status == "periodic"
    fp = tile_polynomial(tile).substitute_power(3)
    pat = apply(fp, config, Window.box((0, 0), (59, 59)))
    assert all(v % 3 == 0 for v in pat.values.values())
    dt = time.monotonic() - t0
    assert dt < 5.0
    print(f"criterion 04: PASS periods={periods} congruence mod 3 ({dt:.2f}s)")


def test_criterion_05_annihilator_certificates_on_random_periodic():
    rng = random.Random(101)
    accepted = 0
    sample = Window.box((0, 0), (11, 11))
    verify = Window.box((0, 0), (14, 14))
    while accepted < 50:
        p = rng.randint(1, 5)
        r = rng.randint(1, 5)
        q = rng.randint(0, r - 1) if r > 1 else 0
        lat = Lattice([(p, 0), (q, r)])
        values = {cell: rng.randint(-3, 3) for cell in lat.residues()}
        c = Periodic(lat, values)
        w = rng.randint(1, 3)
        h = rng.randint(1, 3)
        shape = Window.box((0, 0), (w - 1, h - 1))
        if len(shape) > 9:
            continue
        if pattern_complexity(c, shape).count > len(shape):
            continue
        accepted += 1
        rep = find_annihilator(c, shape, sample, verify)
        assert rep is not None
        assert not rep.f.is_zero
        res = annihilates(rep.f, c, Window.box((-9, -9), (20, 20)))
        assert res.status == "exact"
        gc = apply(rep.g, c, Window.box((-5, -5), (16, 16)))
        assert gc.constant_value() == rep.constant
    print("criterion 05: PASS 50/50 certificates re-verified")


def test_criterion_06_decomposition_roundtrip_suite():
    t0 = time.monotonic()
    rng = random.Random(202)
    pool = [(1, 0), (0, 1), (1, 1), (1, -1), (2, 1), (1, 2)]
    core = Window.box((0, 0), (29, 29))
    for _ in range(100):
        vecs = rng.sample(pool, rng.randint(1, 3))
        parts = []
        for v in vecs:
            u = vec_scale(rng.randint(1, 3), unimodular_complement(v))
            lat = Lattice([v, u])
            parts.append((1, Periodic(lat, {cell: rng.randint(-3, 3)
                                             for cell in lat.residues()})))
        c = Sum(parts)
        dec = decompose(c, vecs, core)
        assert dec.residual_check
        total = dec.component_sum()
        for cell in core:
            assert total.values[cell] == c.value(cell)
        for comp, v in zip(dec.components, dec.vectors):
            for cell in core:
                t = vec_add(cell, v)
                if t in core:
                    assert comp.values[t] == comp.values[cell]
    dt = time.monotonic() - t0
    assert dt < 60.0
    print(f"criterion 06: PASS 100/100 decompositions ({dt:.2f}s)")


def test_criterion_07_power_substitution_congruence():
    rng = random.Random(303)
    primes = (2, 3, 5, 7, 11, 13)
    for _ in range(200):
        f = random_poly(rng, 2, terms=6, coeff=9)
        if f.is_zero:
            continue
        for p in primes:
            fp = f
            for _ in range(p - 1):
                fp = fp * f
            assert fp.coefficients_mod(p) == f.substitute_power(p).coefficients_mod(p)
    print("criterion 07: PASS 200 polynomials x 6 primes")


def _random_line_polynomial(rng, v):
    deg = rng.randint(1, 3)
    coeffs = [rng.randint(1, 5)]
    coeffs += [rng.randint(-4, 4) for _ in range(deg - 1)]
    coeffs += [rng.choice([1, 2, 3, -1, -2])]
    f = LP.zero(2)
    for k, a in enumerate(coeffs):
        if a:
            f = f + LP.monomial(vec_scale(k, v), a)
    return f


# hand-checked to be irreducible and not supported on any single line
_LINE_FREE = (
    {(0, 0): 1, (1, 0): 1, (0, 1): 1},
    {(0, 0): 1, (1, 0): 1, (0, 2): 1},
    {(0, 0): 1, (1, 0): 1, (1, 1): 1},
    {(0, 0): 3, (1, 0): 2, (0, 1): 1},
    {(0, 0): 1, (1, 0): 2, (0, 1): 3, (2, 0): 5},
)


def test_criterion_08_line_factorization_recovers_planted_directions():
    rng = random.Random(404)
    dirs_pool = sorted({
        canonical_sign((a, b))
        for a in range(-3, 4) for b in range(-3, 4)
        if (a, b) != (0, 0) and math.gcd(a, b) == 1})
    for _ in range(100):
        planted = sorted(rng.sample(dirs_pool, rng.randint(1, 3)))
        f = LP(2, {e: Fraction(c) for e, c in rng.choice(_LINE_FREE).items()})
        f = f.shift((rng.randint(-2, 2), rng.randint(-2, 2)))
        for v in planted:
            f = f * _random_line_polynomial(rng, v)
        lf = line_factorization(f)
        assert sorted(lf.directions) == planted
        assert (lf.product() - f).is_zero
    print("criterion 08: PASS 100/100 direction sets recovered")


def test_criterion_09_nivat_scan_exceeds_everywhere():
    t0 = time.monotonic()
    rows = nivat_scan(binary_irrational(), range(2, 9), range(2, 9),
                      Window.box((0, 0), (499, 499)))
    dt = time.monotonic() - t0
    assert len(rows) == 49
    assert all(r.verdict == "ExceedsMN" for r in rows)
    assert all(r.lower_bound_count > r.M * r.N for r in rows)
    assert dt < 120.0
    print(f"criterion 09: PASS 49/49 ExceedsMN ({dt:.2f}s)")


def _sturmian_floor_word(i: int) -> int:
    # floor(k*sqrt(2)) = isqrt(2*k^2) for k >= 0; pure-integer reference
    return math.isqrt(2 * (i + 1) * (i + 1)) - math.isqrt(2 * i * i)


def test_criterion_10_sturmian_boundary():
    c = sturmian_rows()
    anchors = Window.box((0, 1), (9999, 1))
    for n in range(1, 16):
        shape = Window.box((0, 0), (n - 1, 0))
        res = pattern_complexity(c, shape, anchors)
        oracle = len({tuple(_sturmian_floor_word(i + k) for k in range(n))
                      for i in range(10000)})
        assert oracle == n + 1
        assert res.count == n + 1
        assert find_annihilator(c, shape, anchors, anchors) is None
    print("criterion 10: PASS complexity n+1 and no annihilator for n=1..15")


def test_criterion_11_bound_calculators():
    for M in range(1, 11):
        for N in range(1, 11):
            assert bound_two_directions((1, 0), (0, 1), M, N) == M * N
    f = LP(2, {(2, 2): Fraction(1), (0, 0): Fraction(1)})
    rep = corollary_report(f, None, 5, 5)
    assert dict(rep.bounds)["cor-a"] == 9
    g = (LP.difference((1, 0)) * LP.difference((0, 1))
         * LP.difference((1, -1)))
    rep3 = corollary_report(g, line_factorization(g), 5, 5)
    assert dict(rep3.bounds)["cor-a"] == 9
    assert dict(rep3.bounds)["cor-c"] == 18
    print("criterion 11: PASS block bounds match closed forms")
