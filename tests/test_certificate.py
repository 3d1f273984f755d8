"""The coset certificate against cell by cell evaluation.

laurent.coset_certificate proves f * c = 0 on all of Z^d from period
lattices, reading no cell of c; apply and annihilates take it where
c.exact_domain() is None.  Seeded descriptors of all six variants, nested
Sum and ValueMap included, in d = 1..3, meet difference products along
the periods() bases of their atoms (so the certificate fires), products
that miss one atom, the same with a stray monomial added, and random
difference products.  Statuses, witnesses and values must be those the
same calls give with the certificate switched off.
"""

import random
import tracemalloc

import pytest

import nivatk.laurent
from nivatk.configurations import Sum
from nivatk.lattice import Window
from nivatk.laurent import LaurentPolynomial, annihilates, apply, coset_certificate

from draws import binary_irrational, cases, random_box, random_config, random_step


def atoms(c):
    if isinstance(c, Sum):
        for _, t in c.terms:
            yield from atoms(t)
    else:
        yield c


def polynomials(rng, c):
    """Difference products along the atoms' periods, and some that are not."""
    d = c.dim
    steps = [rng.choice(lat.basis()) for lat in (a.periods() for a in atoms(c)) if lat is not None]
    along = LaurentPolynomial.difference_product(d, steps)
    yield along
    yield along.shift(random_step(rng, d))
    if steps:
        # one atom left out: certified only when another step kills it too
        yield LaurentPolynomial.difference_product(d, steps[1:] + [random_step(rng, d)])
        # a monomial on a coset of its own: its coefficient must be counted
        yield LaurentPolynomial.monomial(random_step(rng, d), rng.choice((-2, 1))) + along
    yield LaurentPolynomial.difference_product(d, [random_step(rng, d) for _ in range(2)])


def certificate_cases():
    rng = random.Random("certificate")
    for d, variant in cases(216):
        c = random_config(rng, d, variant)
        for f in polynomials(rng, c):
            yield c, f, Window.box(*random_box(rng, d))
            yield c, f, Window.from_points([tuple(rng.randint(-8, 8) for _ in range(d)) for _ in range(6)])


def answers():
    out = []
    for c, f, window in certificate_cases():
        res = annihilates(f, c, window)
        out.append((res.status, res.witness, apply(f, c, window).cells))
    return out


def test_certificate_matches_evaluation(monkeypatch):
    fired = {}
    for c, f, window in certificate_cases():
        if c.exact_domain() is None and coset_certificate(f, c):
            fired[c.dim] = fired.get(c.dim, 0) + 1
    got = answers()
    monkeypatch.setattr(nivatk.laurent, "coset_certificate", lambda f, c: False)
    want = answers()
    assert len(got) == len(want)
    for case, a, b in zip(certificate_cases(), got, want):
        assert a == b, case
    statuses = {status for status, _, _ in want}
    assert statuses == {"exact", "window", "no"}
    # the certificate really fires, in every dimension
    assert min(fired.get(d, 0) for d in (1, 2, 3)) >= 10, fired


def test_certificate_on_the_irrational_board():
    c = binary_irrational()
    f = LaurentPolynomial.difference_product(2, [(1, 0), (0, 1), (1, -1)])
    assert coset_certificate(f, c)
    assert not coset_certificate(LaurentPolynomial.difference_product(2, [(1, 0), (0, 1)]), c)
    window = Window.box((0, 0), (199, 199))
    assert annihilates(f, c, window).status == "window"
    assert not any(apply(f, c, window).cells)


@pytest.mark.parametrize("d", (1, 2, 3))
def test_certificate_is_skipped_where_an_exact_domain_exists(d, monkeypatch):
    rng = random.Random(f"certificate/exact/{d}")
    calls = []
    monkeypatch.setattr(nivatk.laurent, "coset_certificate",
                        lambda f, c: calls.append(c) or coset_certificate(f, c))
    for _ in range(5):
        c = random_config(rng, d, "periodic")
        f = LaurentPolynomial.difference(rng.choice(c.lattice.basis()))
        assert annihilates(f, c, Window.box(*random_box(rng, d))).status == "exact"
        apply(f, c, Window.box(*random_box(rng, d)))
    assert calls == []


def test_annihilates_tries_the_certificate_once(monkeypatch):
    c = binary_irrational()
    calls = []
    monkeypatch.setattr(nivatk.laurent, "coset_certificate",
                        lambda f, d: calls.append(d) or coset_certificate(f, d))
    res = annihilates(LaurentPolynomial.difference((1, 0)), c, Window.box((0, 0), (9, 9)))
    assert res.status == "no"
    assert sum(d is c for d in calls) == 1


def test_annihilates_allocates_nothing_window_sized_under_the_certificate():
    # 4 million cells: zeros laid out for them would take over 30 MB
    c = binary_irrational()
    f = LaurentPolynomial.difference_product(2, [(1, 0), (0, 1), (1, -1)])
    tracemalloc.start()
    try:
        res = annihilates(f, c, Window.box((0, 0), (1999, 1999)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.status == "window"
    assert peak < 1_000_000
