"""Reference answers that share no code with nivatk.

Every function here works on plain integers, tuples and dicts.  The checks
in workloads.py compare nivatk's answers with these, so a defect in a
nivatk layer cannot hide behind the same defect in its oracle.
"""

from __future__ import annotations

import math
from fractions import Fraction


class CheckFailed(Exception):
    """A job's answer disagrees with its oracle."""


class _Wrong:
    """An expected value that equals nothing: the injected wrong answer."""

    def __eq__(self, other):
        return False

    def __ne__(self, other):
        return True

    def __repr__(self):
        return "<injected wrong expectation>"


class Checker:
    """The single comparison point of the check layer.

    `corrupt` names one job whose first expectation is replaced by a value
    that equals nothing; the benchmark's own tests use it to prove that a
    wrong answer is counted as a failure.
    """

    def __init__(self, corrupt: str | None = None):
        self.corrupt = corrupt
        self.job = None

    def eq(self, got, want, what: str):
        if self.corrupt is not None and self.job == self.corrupt:
            self.corrupt = None
            want = _Wrong()
        if not (got == want):
            raise CheckFailed(f"{what}: got {_short(got)}, want {_short(want)}")

    def true(self, cond, what: str):
        self.eq(bool(cond), True, what)


def _short(x, limit=160):
    s = repr(x)
    return s if len(s) <= limit else s[:limit] + "..."


# --- exact floors of m*sqrt(n) ------------------------------------------------


def floor_sqrt_mul(m: int, n: int) -> int:
    """floor(m * sqrt(n)) for a non-square n > 0, by integer square roots."""
    if m >= 0:
        return math.isqrt(n * m * m)
    return -math.isqrt(n * m * m) - 1


def binary_irrational(x: int, y: int) -> int:
    """floor((x+y)r) - floor(x r) - floor(y r) with r = sqrt(2)."""
    return (floor_sqrt_mul(x + y, 2) - floor_sqrt_mul(x, 2)
            - floor_sqrt_mul(y, 2))


def sturmian(x: int, y: int) -> int:
    """floor((x+y)r) - floor(x r) with r = sqrt(2)."""
    return floor_sqrt_mul(x + y, 2) - floor_sqrt_mul(x, 2)


# --- periodic boards -----------------------------------------------------------


def hermite_2d(v, u):
    """(a, b, d) with rows (a, 0), (b, d) spanning the lattice of v and u."""
    det = abs(v[0] * u[1] - v[1] * u[0])
    if det == 0:
        raise ValueError("dependent basis")
    d, s, t = _ext_gcd(v[1], u[1])
    a = det // d
    b = (s * v[0] + t * u[0]) % a
    return a, b, d


def _ext_gcd(x, y):
    if y == 0:
        return (abs(x), 1 if x >= 0 else -1, 0)
    g, s, t = _ext_gcd(y, x % y)
    return g, t, s - (x // y) * t


class Board:
    """A lattice-periodic 2-D configuration given by its values on the box
    [0, a) x [0, d), which holds one cell of every residue class."""

    def __init__(self, basis, table: dict):
        self.a, self.b, self.d = hermite_2d(*basis)
        box = {(x, y) for x in range(self.a) for y in range(self.d)}
        if set(table) != box:
            raise ValueError("table does not cover the residue box")
        self.table = dict(table)

    def __call__(self, x: int, y: int) -> int:
        k = y // self.d
        x -= k * self.b
        y -= k * self.d
        return self.table[(x % self.a, y)]

    def residues(self):
        return sorted(self.table)


class BoardSum:
    """Integer combination of boards."""

    def __init__(self, parts):
        self.parts = list(parts)

    def __call__(self, x: int, y: int) -> int:
        return sum(k * b(x, y) for k, b in self.parts)


def convolve_at(terms: dict, value, u):
    """(f*c)(u) = sum over e of f_e * c(u - e), for 2-D cells."""
    return sum(a * value(u[0] - e[0], u[1] - e[1]) for e, a in terms.items())


def block_key(value, x: int, y: int, M: int, N: int):
    return tuple(tuple(value(x + i, y + j) for j in range(N)) for i in range(M))


def distinct_blocks(value, anchors, M: int, N: int) -> int:
    return len({block_key(value, x, y, M, N) for x, y in anchors})


def line_rep(anchor, step):
    """Representative of the line anchor + Z*step whose first coordinate
    with a nonzero step entry lies in [0, that entry)."""
    i0 = next(k for k, s in enumerate(step) if s != 0)
    t = anchor[i0] // step[i0]
    return tuple(a - t * s for a, s in zip(anchor, step))


def canonical_sign(v):
    for x in v:
        if x != 0:
            return tuple(v) if x > 0 else tuple(-a for a in v)
    return tuple(v)


def line_census(value, shape, step, anchors):
    """{line representative: set of shape patterns on that line}."""
    groups: dict = {}
    for x, y in anchors:
        key = tuple(value(x + ux, y + uy) for ux, uy in shape)
        groups.setdefault(line_rep((x, y), step), set()).add(key)
    return groups


def greedy_disjoint(groups: dict) -> int:
    used: set = set()
    kept = 0
    for rep in sorted(groups):
        if groups[rep] & used:
            continue
        used |= groups[rep]
        kept += 1
    return kept


# --- polynomials as {exponent: coefficient} dicts ------------------------------


def poly_mul(p: dict, q: dict) -> dict:
    out: dict = {}
    for e1, a1 in p.items():
        for e2, a2 in q.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, 0) + a1 * a2
    return {e: a for e, a in out.items() if a != 0}


def poly_norm(p: dict) -> dict:
    return {tuple(e): Fraction(a) for e, a in p.items() if a != 0}


def frobenius_mod(p: dict, prime: int) -> dict:
    """Coefficients of f(X^p) mod p, which equal those of f^p mod p."""
    out = {}
    for e, a in p.items():
        a = Fraction(a)
        r = a.numerator % prime
        if a.denominator != 1:
            raise ValueError("integer coefficients expected")
        if r:
            out[tuple(prime * x for x in e)] = r
    return out


def rank(rows) -> int:
    """Rank over the rationals, by plain Gaussian elimination."""
    mat = [[Fraction(x) for x in r] for r in rows]
    rk = 0
    ncols = len(mat[0]) if mat else 0
    for col in range(ncols):
        piv = next((i for i in range(rk, len(mat)) if mat[i][col] != 0), None)
        if piv is None:
            continue
        mat[rk], mat[piv] = mat[piv], mat[rk]
        for i in range(rk + 1, len(mat)):
            if mat[i][col] != 0:
                k = mat[i][col] / mat[rk][col]
                mat[i] = [a - k * b for a, b in zip(mat[i], mat[rk])]
        rk += 1
    return rk


def two_direction_bound(v1, v2, M: int, N: int) -> Fraction:
    m1, n1 = abs(v1[0]), abs(v1[1])
    m2, n2 = abs(v2[0]), abs(v2[1])
    return Fraction((M * n1 + m1 * N) * (M * n2 + m2 * N), m1 * n2 + m2 * n1)
