"""Exact arithmetic for numbers of the form (a + b*sqrt(n)) / q.

The point of this class is that floors and comparisons never go through
floating point.  floor((a + b*sqrt(n))/q) is computed with integer square
roots only, so mechanical configurations built on top of it are bit exact
at any magnitude.
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
        a, b, n, q = int(a), int(b), int(n), int(q)
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
        x = Fraction(x)
        return cls(x.numerator, 0, 0, x.denominator)

    @classmethod
    def sqrt(cls, n: int):
        return cls(0, 1, n, 1)

    @property
    def is_rational(self) -> bool:
        return self.b == 0

    def as_fraction(self) -> Fraction:
        if not self.is_rational:
            raise ValueError(f"{self} is irrational")
        return Fraction(self.a, self.q)

    def _compatible(self, other: "QuadraticReal"):
        if self.n and other.n and self.n != other.n:
            raise ValueError(f"mixed radicands {self.n} and {other.n}")
        return self.n or other.n

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        n = self._compatible(other)
        return QuadraticReal(
            self.a * other.q + other.a * self.q,
            self.b * other.q + other.b * self.q,
            n,
            self.q * other.q,
        )

    __radd__ = __add__

    def __neg__(self):
        return QuadraticReal(-self.a, -self.b, self.n, self.q)

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return _coerce(other) - self

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        n = self._compatible(other)
        return QuadraticReal(
            self.a * other.a + self.b * other.b * n,
            self.a * other.b + self.b * other.a,
            n,
            self.q * other.q,
        )

    __rmul__ = __mul__

    def floor(self) -> int:
        """Exact floor via integer square roots.

        a + b*sqrt(n) lies in [a + t, a + t + 1) for t = floor(b*sqrt(n)),
        and floor(x / q) is constant on such a unit interval, so Python's
        floor division on the integer endpoint is the exact answer.
        """
        return (self.a + _floor_sqrt_multiple(self.b, self.n)) // self.q

    def floor_multiples(self, ms) -> list:
        """[floor(m * self) for m in ms], the batch form of floor(), for an ascending sequence ms.

        b != 0 only with squarefree n > 1, so m*b*sqrt(n) is irrational for
        every m != 0 and, where m*b < 0, floors to ~isqrt((m*b)^2 * n).
        Those m form a prefix of ms (b > 0) or a suffix (b < 0).
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

    def sign(self) -> int:
        a, b = self.a, self.b
        if b == 0:
            return (a > 0) - (a < 0)
        if a >= 0 and b > 0:
            return 1
        if a <= 0 and b < 0:
            return -1
        lhs, rhs = a * a, b * b * self.n
        if lhs == rhs:
            return 0
        # signs of a and b differ here, so the larger square wins for a
        bigger_is_a = lhs > rhs
        return (1 if a > 0 else -1) if bigger_is_a else (1 if b > 0 else -1)

    def compare(self, other) -> int:
        return (self - _coerce(other)).sign()

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return (self.a, self.b, self.n, self.q) == (other.a, other.b, other.n, other.q)

    def __hash__(self):
        return hash((self.a, self.b, self.n, self.q))

    def __lt__(self, other):
        return self.compare(other) < 0

    def __le__(self, other):
        return self.compare(other) <= 0

    def __gt__(self, other):
        return self.compare(other) > 0

    def __ge__(self, other):
        return self.compare(other) >= 0

    def __repr__(self):
        if self.is_rational:
            return f"QuadraticReal({self.a}/{self.q})"
        return f"QuadraticReal(({self.a}+{self.b}*sqrt({self.n}))/{self.q})"


def _coerce(x):
    if isinstance(x, QuadraticReal):
        return x
    if isinstance(x, int):
        return QuadraticReal(x)
    if isinstance(x, Fraction):
        return QuadraticReal(x.numerator, 0, 0, x.denominator)
    return NotImplemented
