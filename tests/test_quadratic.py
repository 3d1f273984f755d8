import math
import random
from fractions import Fraction

import pytest

from nivatk.configurations import Mechanical
from nivatk.quadratic import QuadraticReal, is_prime, is_squarefree, squarefree_part


def test_squarefree_part_splits_square_factor():
    # returns (k, m) with n = k^2 * m and m squarefree
    assert squarefree_part(12) == (2, 3)
    assert squarefree_part(50) == (5, 2)
    assert squarefree_part(1) == (1, 1)
    assert squarefree_part(0) == (1, 0)
    with pytest.raises(ValueError):
        squarefree_part(-8)


def test_is_squarefree():
    assert is_squarefree(1)
    assert is_squarefree(2)
    assert is_squarefree(30)
    assert not is_squarefree(4)
    assert not is_squarefree(18)


def test_is_prime_small_values():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29}
    for n in range(-3, 31):
        assert is_prime(n) == (n in primes)


def test_rational_embedding():
    x = QuadraticReal.from_fraction(Fraction(3, 7))
    assert (x.a, x.b, x.n, x.q) == (3, 0, 0, 7)
    assert x.floor_multiples([1]) == [0]
    assert QuadraticReal.from_fraction(Fraction(-3, 7)).floor_multiples([1]) == [-1]
    # sqrt(4) folds into the rational part; equality holds between QuadraticReals only
    assert QuadraticReal(0, 1, 4) == QuadraticReal.from_fraction(2) == QuadraticReal(2)
    assert QuadraticReal(2) != 2
    # a negative denominator moves its sign to the numerator
    assert QuadraticReal(1, 1, 2, -3) == QuadraticReal(-1, -1, 2, 3)


def test_floor_matches_float_reference_away_from_ties():
    # integer floors of a*sqrt(n)/q; float math is a safe oracle at this scale
    rng = random.Random(5)
    for _ in range(300):
        n = rng.choice([2, 3, 5, 7])
        a = rng.randint(-50, 50)
        b = rng.randint(-50, 50)
        q = rng.randint(1, 9)
        x = QuadraticReal(a, b, n, q)
        approx = (a + b * math.sqrt(n)) / q
        assert x.floor_multiples([1]) == [math.floor(approx)]
        assert Mechanical((1,), x).value((1,)) == math.floor(approx)


def test_known_floors():
    r2 = QuadraticReal.sqrt(2)
    assert r2.floor_multiples([-1, 2, 10]) == [-2, 2, 14]
    assert [Mechanical((1,), r2).value((m,)) for m in (-1, 2, 10)] == [-2, 2, 14]
