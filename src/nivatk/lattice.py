"""Integer vectors, lattices and finite windows of cells.

All arithmetic is exact over Python integers.  Vectors are plain tuples of
ints; a Lattice is the integer span of finitely many independent vectors,
kept in a canonical triangular basis so membership tests and residue
reduction are deterministic.
"""

from __future__ import annotations

import itertools
import math
import operator

from .errors import (
    DimensionMismatchError,
    EmptyShapeError,
    NonPrimitiveError,
    RankDeficientError,
    ZeroVectorError,
)


def vec_add(u, v):
    return tuple(map(operator.add, u, v))


def vec_sub(u, v):
    return tuple(map(operator.sub, u, v))


def vec_neg(v):
    return tuple(map(operator.neg, v))


def vec_scale(k, v):
    return tuple([k * a for a in v])


def vec_dot(u, v):
    return sum(map(operator.mul, u, v))


def is_zero_vector(v) -> bool:
    return all(a == 0 for a in v)


def check_same_dim(u, v):
    if len(u) != len(v):
        raise DimensionMismatchError(f"dimension {len(u)} vs {len(v)}")


def canonical_sign(v):
    """Flip v so its first nonzero coordinate is positive.

    The zero vector is returned unchanged.
    """
    for a in v:
        if a != 0:
            return v if a > 0 else vec_neg(v)
    return v


def primitive_vector(v):
    """Divide out the coordinate gcd.  Raises on the zero vector."""
    g = math.gcd(*v)
    if g == 0:
        raise ZeroVectorError("zero vector has no primitive form")
    return tuple(a // g for a in v)


def unimodular_complement(v):
    """Return w such that (v, w) is a basis of Z^2, i.e. |det(v, w)| = 1.

    v must be a primitive nonzero 2d vector.  Among all valid mates the one
    with minimal |w1| + |w2| is chosen, ties broken toward nonnegative first
    coordinate and then lexicographically.
    """
    if len(v) != 2:
        raise DimensionMismatchError("unimodular complement is defined for d = 2")
    if is_zero_vector(v):
        raise ZeroVectorError("no complement for the zero vector")
    a, b = v
    g, s, t = _extended_gcd(a, b)
    if g != 1:
        raise NonPrimitiveError(f"{v} has coordinate gcd {g}")
    # a*s + b*t = 1, so w0 = (-t, s) satisfies det(v, w0) = a*s - b*(-t) = 1.
    # The full solution set is w0 + k*v; scan the k minimizing the key.
    x0, y0 = -t, s
    # |x0 + k*a| + |y0 + k*b| is convex in k; the integer minimizer sits next
    # to a breakpoint of either absolute value.
    candidates = {-1, 0, 1}
    for num, den in ((x0, a), (y0, b)):
        if den != 0:
            k = (-num) // den
            candidates.update((k - 1, k, k + 1, k + 2))
    best = None
    for k in sorted(candidates):
        w = (x0 + k * a, y0 + k * b)
        key = (abs(w[0]) + abs(w[1]), 0 if w[0] >= 0 else 1, w)
        if best is None or key < best[0]:
            best = (key, w)
    return best[1]


def _extended_gcd(a, b):
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def _triangular_basis(generators, dim):
    """Bring integer row vectors to a canonical triangular basis.

    Coordinates are processed from last to first; the pivot row for
    coordinate c has zeros at every coordinate after c and a positive entry
    at c.  Entries of later pivot rows below an earlier pivot are reduced
    into [0, pivot).  Returns a dict coordinate -> pivot row, last first.
    """
    rows = [tuple(g) for g in generators if not is_zero_vector(g)]
    pivots = {}
    for c in range(dim - 1, -1, -1):
        work = [r for r in rows if r[c] != 0]
        rows = [r for r in rows if r[c] == 0]
        if not work:
            continue
        while len(work) > 1:
            work.sort(key=lambda r: abs(r[c]))
            lead = work[0]
            rest = []
            for r in work[1:]:
                q = r[c] // lead[c]
                r2 = vec_sub(r, vec_scale(q, lead))
                if r2[c] != 0:
                    rest.append(r2)
                elif not is_zero_vector(r2):
                    rows.append(r2)
            work = [lead] + rest
        p = work[0]
        if p[c] < 0:
            p = vec_neg(p)
        pivots[c] = p
    # Reduce entries sitting under an earlier pivot coordinate.  Working
    # downward per row keeps already reduced higher coordinates intact,
    # since the row for pivot c only touches coordinates <= c.
    coords = sorted(pivots)
    for j, c2 in enumerate(coords):
        r = pivots[c2]
        for c in reversed(coords[:j]):
            base = pivots[c]
            q = r[c] // base[c]
            r = vec_sub(r, vec_scale(q, base))
        pivots[c2] = r
    return pivots


def kernel_lattice(rows, d: int):
    """The lattice of first d coordinates of the integer combinations of rows that are 0 past d.

    Its canonical basis is the triangular basis rows of rows with pivot below
    d, taken as they are (the Hermite normal form argument of Cohen, A Course
    in Computational Algebraic Number Theory, 2.4); None when that is {0}.
    """
    pivots = _triangular_basis(rows, len(rows[0]))
    lattice = object.__new__(Lattice)
    lattice.dim, lattice._pivots = d, {c: row[:d] for c, row in pivots.items() if c < d}
    lattice.generators = lattice.basis()
    return lattice if lattice._pivots else None


class Lattice:
    """Integer span of independent generator vectors, rank r <= d."""

    __slots__ = ("dim", "generators", "_pivots")

    def __init__(self, generators):
        generators = [tuple(map(operator.index, g)) for g in generators]
        if not generators:
            raise ZeroVectorError("a lattice needs at least one generator")
        dims = {len(g) for g in generators}
        if len(dims) != 1:
            raise DimensionMismatchError("generators of mixed dimension")
        self.dim = dims.pop()
        for g in generators:
            if is_zero_vector(g):
                raise ZeroVectorError("zero generator")
        self.generators = tuple(generators)
        self._pivots = _triangular_basis(generators, self.dim)
        if len(self._pivots) != len(generators):
            raise RankDeficientError(
                f"generators {generators} are linearly dependent"
            )

    @property
    def rank(self) -> int:
        return len(self._pivots)

    @property
    def is_full_rank(self) -> bool:
        return self.rank == self.dim

    def basis(self):
        """Canonical triangular basis rows, ordered by pivot coordinate."""
        return tuple(self._pivots[c] for c in sorted(self._pivots))

    def index(self) -> int:
        """Number of residue classes; product of the pivot entries."""
        if not self.is_full_rank:
            raise RankDeficientError("index requires a full rank lattice")
        n = 1
        for c, row in self._pivots.items():
            n *= row[c]
        return n

    def contains(self, v) -> bool:
        return is_zero_vector(self.reduce(v))

    def reduce(self, v):
        """Canonical representative of v + L, at any rank: each pivot coordinate,
        from the last down, lands in [0, pivot), and the others are left to vary."""
        if len(v) != self.dim:
            raise DimensionMismatchError(f"vector {v} vs dimension {self.dim}")
        for c, row in self._pivots.items():
            v = vec_sub(v, vec_scale(v[c] // row[c], row))
        return v

    def intersect(self, other: "Lattice") -> "Lattice | None":
        """The lattice of vectors lying in both, by an integer kernel.

        The rows (g | g) for the generators g of self and (0 | h) for those
        of other span the pairs (x, x + y) with x in self and y in other;
        those with x + y = 0 have the intersection as first halves
        (kernel_lattice), None when the intersection is {0}.
        """
        if other.dim != self.dim:
            raise DimensionMismatchError(f"lattices of dimension {self.dim} and {other.dim}")
        d = self.dim
        rows = [g + g for g in self.generators] + [(0,) * d + h for h in other.generators]
        return kernel_lattice(rows, d)

    def residue_box(self) -> "Window":
        """The integer box under the pivot entries: one canonical cell per residue class."""
        if not self.is_full_rank:
            raise RankDeficientError("residues require a full rank lattice")
        return Window.box((0,) * self.dim, [self._pivots[c][c] - 1 for c in range(self.dim)])

    def residues(self):
        """Canonical residue cells, the residue box's cells in window order."""
        return tuple(self.residue_box())

    def __eq__(self, other):
        if not isinstance(other, Lattice):
            return NotImplemented
        return self.dim == other.dim and self._pivots == other._pivots

    def __hash__(self):
        return hash((self.dim, tuple(sorted(self._pivots.items()))))

    def __repr__(self):
        rows = ";".join(str(r) for r in self.basis())
        return f"Lattice<{rows}>"


class Window:
    """A finite set of cells, either a coordinate box or an explicit set.

    Boxes are inclusive on both ends.  Iteration order is lexicographic in
    every case, which downstream code relies on for determinism.
    """

    __slots__ = ("dim", "lo", "hi", "_points", "_ptset")

    def __init__(self, lo=None, hi=None, points=None):
        if points is not None:
            pts = sorted({tuple(map(operator.index, p)) for p in points})
            if not pts:
                raise EmptyShapeError("empty explicit window")
            dims = {len(p) for p in pts}
            if len(dims) != 1:
                raise DimensionMismatchError("cells of mixed dimension")
            self.dim = dims.pop()
            self._points = tuple(pts)
            self._ptset = frozenset(pts)
            self.lo = tuple(map(min, zip(*pts)))
            self.hi = tuple(map(max, zip(*pts)))
        else:
            lo = tuple(map(operator.index, lo))
            hi = tuple(map(operator.index, hi))
            if len(lo) != len(hi):
                raise DimensionMismatchError("box corners of mixed dimension")
            if any(map(operator.gt, lo, hi)):
                raise EmptyShapeError(f"empty box {lo}..{hi}")
            self.dim = len(lo)
            self.lo, self.hi = lo, hi
            self._points = None
            self._ptset = None

    @classmethod
    def box(cls, lo, hi):
        return cls(lo=lo, hi=hi)

    @classmethod
    def from_points(cls, points):
        return cls(points=points)

    @property
    def is_box(self) -> bool:
        return self._points is None

    def __len__(self):
        if self._points is not None:
            return len(self._points)
        n = 1
        for a, b in zip(self.lo, self.hi):
            n *= b - a + 1
        return n

    def __iter__(self):
        if self._points is not None:
            return iter(self._points)
        return itertools.product(*(range(a, b + 1) for a, b in zip(self.lo, self.hi)))

    def __contains__(self, p):
        if len(p) != self.dim:
            return False
        p = tuple(p)
        if self._points is not None:
            return p in self._ptset
        return all(a <= x <= b for x, a, b in zip(p, self.lo, self.hi))

    def shift(self, v):
        check_same_dim(self.lo, v)
        if self._points is not None:
            return Window(points=[vec_add(p, v) for p in self._points])
        return Window(lo=vec_add(self.lo, v), hi=vec_add(self.hi, v))

    def intersect(self, other: "Window"):
        """Intersection window, or None when empty."""
        if self.dim != other.dim:
            raise DimensionMismatchError("windows of mixed dimension")
        if self.is_box and other.is_box:
            lo = tuple(map(max, self.lo, other.lo))
            hi = tuple(map(min, self.hi, other.hi))
            if any(map(operator.gt, lo, hi)):
                return None
            return Window(lo=lo, hi=hi)
        pts = [p for p in self if p in other]
        if not pts:
            return None
        return Window(points=pts)

    def bounds(self):
        return self.lo, self.hi

    def __eq__(self, other):
        if not isinstance(other, Window):
            return NotImplemented
        if self.is_box and other.is_box:
            return (self.lo, self.hi) == (other.lo, other.hi)
        return tuple(self) == tuple(other)

    def __hash__(self):
        # equal windows hold the same cells, whether stored as box or points
        return hash((self.lo, self.hi, len(self)))

    def __repr__(self):
        if self.is_box:
            return f"Window{self.lo}..{self.hi}"
        return f"Window{{{len(self._points)} cells}}"
