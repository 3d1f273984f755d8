"""Symbolic descriptions of integer valued configurations on Z^d.

A configuration assigns an integer to every cell of Z^d.  The descriptor
variants here stay evaluable at arbitrary cells without enumeration, which
is what makes exact pattern statistics possible: lattice periodic tables,
indicator functions of lattice cosets, mechanical (Beatty difference)
configurations built on exact quadratic irrationals, finite supports,
integer combinations and letter-to-letter recodings.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    DimensionMismatchError,
    EmptySampleError,
    EmptyShapeError,
    ZeroVectorError,
)
from .lattice import Lattice, Window, vec_add, vec_dot, is_zero_vector
from .quadratic import QuadraticReal, _floor_sqrt_multiple


class Configuration:
    """Base for all descriptor variants."""

    dim: int

    def value(self, v) -> int:
        raise NotImplementedError

    @property
    def is_finitary(self):
        """True / False when decidable from the descriptor, else None."""
        return None

    def _check(self, v):
        if len(v) != self.dim:
            raise DimensionMismatchError(f"cell {v} vs dimension {self.dim}")


class Periodic(Configuration):
    """Values given on the residues of a full rank lattice."""

    __slots__ = ("dim", "lattice", "values")

    def __init__(self, lattice: Lattice, values: dict):
        if not lattice.is_full_rank:
            raise ValueError("periodic descriptor needs a full rank lattice")
        self.dim = lattice.dim
        self.lattice = lattice
        table = {}
        for cell, val in values.items():
            r = lattice.reduce(tuple(cell))
            if r in table and table[r] != int(val):
                raise ValueError(f"conflicting values for residue {r}")
            table[r] = int(val)
        missing = [r for r in lattice.residues() if r not in table]
        if missing:
            raise ValueError(f"missing values for residues {missing}")
        self.values = table

    def value(self, v) -> int:
        self._check(v)
        return self.values[self.lattice.reduce(v)]

    @property
    def is_finitary(self):
        return True


class CosetIndicator(Configuration):
    """value on the coset offset + L for a rank r <= d sublattice, 0 off it."""

    __slots__ = ("dim", "offset", "generators", "value_on", "_sub")

    def __init__(self, offset, generators, value: int = 1):
        self.offset = tuple(int(a) for a in offset)
        self.dim = len(self.offset)
        self._sub = Lattice(generators)
        if self._sub.dim != self.dim:
            raise DimensionMismatchError("offset and generators disagree")
        self.generators = self._sub.generators
        self.value_on = int(value)

    def value(self, v) -> int:
        self._check(v)
        diff = tuple(a - b for a, b in zip(v, self.offset))
        return self.value_on if self._sub.contains(diff) else 0

    @property
    def is_finitary(self):
        return True


class Mechanical(Configuration):
    """c_v = floor(<weights, v> * alpha) with alpha an exact quadratic real."""

    __slots__ = ("dim", "weights", "alpha")

    def __init__(self, weights, alpha: QuadraticReal):
        self.weights = tuple(int(a) for a in weights)
        self.dim = len(self.weights)
        if not isinstance(alpha, QuadraticReal):
            alpha = QuadraticReal.from_fraction(Fraction(alpha))
        self.alpha = alpha

    def value(self, v) -> int:
        self._check(v)
        m = vec_dot(self.weights, v)
        a = self.alpha
        # floor((m*a.a + m*a.b*sqrt(n)) / a.q) without building intermediates
        return (m * a.a + _floor_sqrt_multiple(m * a.b, a.n)) // a.q

    @property
    def is_finitary(self):
        if all(w == 0 for w in self.weights) or (self.alpha.a == 0 and self.alpha.b == 0):
            return True
        return False


class FiniteSupport(Configuration):
    """Zero outside a finite association of cells."""

    __slots__ = ("dim", "assoc")

    def __init__(self, assoc: dict, dim=None):
        table = {tuple(int(a) for a in cell): int(val) for cell, val in assoc.items()}
        table = {cell: val for cell, val in table.items() if val != 0}
        if table:
            dims = {len(cell) for cell in table}
            if len(dims) != 1:
                raise DimensionMismatchError("cells of mixed dimension")
            d = dims.pop()
            if dim is not None and dim != d:
                raise DimensionMismatchError("explicit dim disagrees with cells")
            dim = d
        if dim is None:
            raise ValueError("empty support needs an explicit dim")
        self.dim = dim
        self.assoc = table

    def value(self, v) -> int:
        self._check(v)
        return self.assoc.get(tuple(v), 0)

    @property
    def is_finitary(self):
        return True


class Sum(Configuration):
    """Integer linear combination of descriptors."""

    __slots__ = ("dim", "terms")

    def __init__(self, terms):
        terms = [(int(k), c) for k, c in terms]
        if not terms:
            raise ValueError("empty sum")
        dims = {c.dim for _, c in terms}
        if len(dims) != 1:
            raise DimensionMismatchError("summands of mixed dimension")
        self.dim = dims.pop()
        self.terms = tuple(terms)

    def value(self, v) -> int:
        self._check(v)
        return sum(k * c.value(v) for k, c in self.terms)

    @property
    def is_finitary(self):
        # not decided statically
        return None


class ValueMap(Configuration):
    """Recode the letters of an inner configuration through a finite map."""

    __slots__ = ("dim", "inner", "mapping", "default")

    def __init__(self, inner: Configuration, mapping: dict, default: int):
        self.inner = inner
        self.dim = inner.dim
        self.mapping = {int(k): int(v) for k, v in mapping.items()}
        self.default = int(default)

    def value(self, v) -> int:
        return self.mapping.get(self.inner.value(v), self.default)

    @property
    def is_finitary(self):
        # not decided statically
        return None


def merge_letters(c: Configuration, mapping: dict, default: int) -> ValueMap:
    """Letter merging wrapper; never increases pattern counts."""
    return ValueMap(c, mapping, default)


# --- patterns ---------------------------------------------------------------


class Pattern:
    """Values on a finite window of absolute cells."""

    __slots__ = ("shape", "values")

    def __init__(self, shape: Window, values: dict):
        self.shape = shape
        self.values = {tuple(p): values[p] for p in shape}

    def key(self):
        """Value sequence in window iteration order; translates compare equal."""
        return tuple(self.values[p] for p in self.shape)

    def is_zero(self) -> bool:
        return all(v == 0 for v in self.values.values())

    def constant_value(self):
        """The single value taken, or None when not constant."""
        vals = set(self.values.values())
        return vals.pop() if len(vals) == 1 else None

    def max_abs(self):
        return max(abs(v) for v in self.values.values())

    def __eq__(self, other):
        if not isinstance(other, Pattern):
            return NotImplemented
        return self.shape == other.shape and self.values == other.values

    def __repr__(self):
        return f"Pattern({self.shape}, {len(self.values)} cells)"


def extract_pattern(c: Configuration, anchor, shape: Window) -> Pattern:
    """Pattern of c on anchor + shape."""
    anchor = tuple(anchor)
    if len(anchor) != c.dim or shape.dim != c.dim:
        raise DimensionMismatchError("anchor/shape vs configuration dimension")
    window = shape.shift(anchor)
    return Pattern(window, {p: c.value(p) for p in window})


class ValueTable:
    """Values of a configuration on a box, row-major, one value() per cell.

    The last coordinate varies fastest, so the flat index of a cell p is
    sum((p[i] - lo[i]) * strides[i]) and a translate by u moves every index
    by the same amount.  That makes the pattern at any anchor a fixed set
    of slices of one tuple.
    """

    __slots__ = ("lo", "hi", "values", "strides")

    def __init__(self, c: Configuration, lo, hi):
        ranges = [range(a, b + 1) for a, b in zip(lo, hi)]
        self.lo, self.hi = tuple(lo), tuple(hi)
        self.values = tuple(map(c.value, itertools.product(*ranges)))
        strides = [1]
        for r in reversed(ranges[1:]):
            strides.append(strides[-1] * len(r))
        self.strides = tuple(reversed(strides))

    @classmethod
    def covering(cls, c: Configuration, shape: Window, anchors: Window):
        """The table on the smallest box holding anchor + shape for all anchors."""
        (alo, ahi), (slo, shi) = anchors.bounds(), shape.bounds()
        return cls(c, vec_add(alo, slo), vec_add(ahi, shi))

    def keys(self, shape: Window, anchors: Window):
        """Yield one hashable pattern key per anchor, lazily, in anchor order.

        A key is a tuple of table slices, one per run of shape cells that
        are consecutive both in shape order and in the table; flattened it
        is the sequence of values in shape order.  Every anchor + shape
        must lie inside the table's box.
        """
        runs = []
        for u in shape:
            off = vec_dot(u, self.strides)
            if runs and runs[-1][1] == off:
                runs[-1][1] = off + 1
            else:
                runs.append([off, off + 1])
        if anchors.is_box:
            alo, ahi = anchors.bounds()
            bases = map(sum, itertools.product(*(
                range((a - l) * s, (b - l) * s + 1, s)
                for a, b, l, s in zip(alo, ahi, self.lo, self.strides))))
        else:
            origin = vec_dot(self.lo, self.strides)
            bases = (vec_dot(a, self.strides) - origin for a in anchors)
        values = self.values
        for b in bases:
            yield tuple([values[b + start:b + stop] for start, stop in runs])


def count_distinct(keys, limit: int | None = None) -> int:
    """Number of distinct keys, stopping as soon as it exceeds limit."""
    seen = set()
    for key in keys:
        seen.add(key)
        if limit is not None and len(seen) > limit:
            break
    return len(seen)


@dataclass
class ComplexityResult:
    count: int
    exact: bool
    sample_window: Window


def pattern_complexity(
    c: Configuration,
    shape: Window,
    sample: Window | None = None,
    stop_after: int | None = None,
) -> ComplexityResult:
    """Number of distinct patterns of the given shape.

    For a Periodic descriptor the anchor set is internally replaced by one
    fundamental domain, which covers every translate, so the count is exact.
    Otherwise anchors range over the sample window and the count is a
    certified lower bound.  stop_after aborts the scan once the count
    exceeds that many patterns (the result is then marked inexact).
    """
    if shape.dim != c.dim:
        raise DimensionMismatchError("shape vs configuration dimension")
    if len(shape) == 0:
        raise EmptyShapeError("empty shape")

    if isinstance(c, Periodic) and stop_after is None:
        anchors = Window.from_points(c.lattice.residues())
        exact = True
    else:
        if sample is None or len(sample) == 0:
            raise EmptySampleError("a sample window is required here")
        anchors = sample
        exact = False

    table = ValueTable.covering(c, shape, anchors)
    count = count_distinct(table.keys(shape, anchors), stop_after)
    return ComplexityResult(count, exact, anchors)


# --- periodicity ------------------------------------------------------------


@dataclass
class PeriodicityResult:
    status: str  # "periodic" | "not-periodic" | "unknown"
    witness: tuple | None = None


def periodicity_test(c: Configuration, v, sample: Window | None = None) -> PeriodicityResult:
    """Is v a translation period of c?

    Exact for Periodic descriptors: v in the lattice is immediately a
    period, and otherwise comparing one fundamental domain against its
    translate decides the question for the whole plane.  Other descriptors
    are scanned over the sample and can only refute or stay unknown.
    """
    v = tuple(int(a) for a in v)
    if len(v) != c.dim:
        raise DimensionMismatchError("vector vs configuration dimension")
    if is_zero_vector(v):
        raise ZeroVectorError("the zero vector is not a period candidate")

    if isinstance(c, Periodic):
        if c.lattice.contains(v):
            return PeriodicityResult("periodic")
        for r in c.lattice.residues():
            if c.value(r) != c.value(vec_add(r, v)):
                return PeriodicityResult("not-periodic", witness=r)
        return PeriodicityResult("periodic")

    if sample is None or len(sample) == 0:
        raise EmptySampleError("non-periodic descriptors need a sample window")
    for u in sample:
        if c.value(u) != c.value(vec_add(u, v)):
            return PeriodicityResult("not-periodic", witness=u)
    return PeriodicityResult("unknown")
