"""Exact floors of multiples of numbers of the form (a + b*sqrt(n)) / q.

A QuadraticReal is an exact, hashable value with no arithmetic: the one
thing read from it is floor(m * x) for integers m, computed with integer
square roots only and never through floating point, so mechanical
configurations built on it are bit exact at any magnitude.
"""

from __future__ import annotations

import bisect
import itertools
import math
import operator
from fractions import Fraction


def squarefree_part(n: int):
    """Split n >= 0 as s*s*m with m squarefree; returns (s, m)."""
    if n < 0:
        raise ValueError("radicand must be nonnegative")
    s, m = 1, 1
    d = 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        s *= d ** (e // 2)
        if e % 2:
            m *= d
        d += 1 if d == 2 else 2
    return s, m * n


def is_squarefree(n: int) -> bool:
    return n >= 0 and squarefree_part(n)[0] == 1


def is_prime(n: int) -> bool:
    """Trial-division primality; inputs here are desk-scale."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def _floor_sqrt_multiple(b: int, n: int) -> int:
    """floor(b * sqrt(n)) for integer b of either sign."""
    t = b * b * n
    s = math.isqrt(t)
    if b >= 0:
        return s
    return -s if s * s == t else -s - 1


class QuadraticReal:
    """(a + b*sqrt(n)) / q with integer a, b, q > 0 and squarefree n.

    Canonical form: gcd(a, b, q) = 1, q > 0, and b = 0 if and only if
    n = 0 (pure rationals carry b = n = 0; sqrt(0) adds nothing).  Square
    factors of the radicand are folded into b on construction.
    """

    __slots__ = ("a", "b", "n", "q")

    def __init__(self, a, b=0, n=0, q=1):
        a, b, n, q = map(operator.index, (a, b, n, q))
        if q == 0:
            raise ZeroDivisionError("denominator q must be nonzero")
        if n < 0:
            raise ValueError("radicand must be nonnegative")
        s, m = squarefree_part(n)
        b, n = b * s, m
        if n == 1:
            a += b
        if n <= 1 or b == 0:
            b, n = 0, 0
        if q < 0:
            a, b, q = -a, -b, -q
        g = math.gcd(math.gcd(abs(a), abs(b)), q)
        if g > 1:
            a, b, q = a // g, b // g, q // g
        self.a, self.b, self.n, self.q = a, b, n, q

    @classmethod
    def from_fraction(cls, x):
        if not isinstance(x, (int, Fraction)):
            raise TypeError(f"{x!r} is not an int or a Fraction")
        x = Fraction(x)
        return cls(x.numerator, 0, 0, x.denominator)

    @classmethod
    def sqrt(cls, n: int):
        return cls(0, 1, n, 1)

    def floor_multiples(self, ms) -> list:
        """[floor(m * self) for m in ms] for an ascending sequence of ints ms.

        b != 0 only with squarefree n > 1, so m*b*sqrt(n) is irrational for
        every m != 0 and, where m*b < 0, floors to ~isqrt((m*b)^2 * n).
        Those m form a prefix of ms (b > 0) or a suffix (b < 0).  m*a + m*b*sqrt(n)
        lies in [m*a + t, m*a + t + 1) for t = floor(m*b*sqrt(n)), and floor(x / q)
        is constant on that interval, so (m*a + t) // q is exact.
        """
        a, b, q = self.a, self.b, self.q
        tops = map(a.__mul__, ms)
        if b:
            bbn = b * b * self.n
            roots = list(map(math.isqrt, map(bbn.__mul__, map(operator.mul, ms, ms))))
            neg = slice(bisect.bisect_left(ms, 0)) if b > 0 else slice(bisect.bisect(ms, 0), None)
            roots[neg] = map(operator.invert, roots[neg])
            if not a and q == 1:
                return roots
            tops = map(operator.add, tops, roots)
        return list(map(operator.floordiv, tops, itertools.repeat(q)))

    def __eq__(self, other):
        if not isinstance(other, QuadraticReal):
            return NotImplemented
        return (self.a, self.b, self.n, self.q) == (other.a, other.b, other.n, other.q)

    def __hash__(self):
        return hash((self.a, self.b, self.n, self.q))

    def __repr__(self):
        if self.b == 0:
            return f"QuadraticReal({self.a}/{self.q})"
        return f"QuadraticReal(({self.a}+{self.b}*sqrt({self.n}))/{self.q})"
