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
import math
import operator
from dataclasses import dataclass
from typing import NamedTuple

from .errors import (
    DimensionMismatchError,
    EmptySampleError,
    EmptyShapeError,
)
from .lattice import Lattice, Window, kernel_lattice, vec_add, vec_dot, vec_scale
from .quadratic import QuadraticReal, _floor_sqrt_multiple


class Support(NamedTuple):
    """Cosets offset + span(basis) off whose union a configuration is its background.

    Each coset is an (offset, basis) pair, basis a Lattice's triangular
    basis rows, empty for a single cell.
    """

    cosets: tuple
    background: int


class Configuration:
    """Base for all descriptor variants."""

    dim: int

    def value(self, v) -> int:
        """The value at one cell; the reference every block is tested against."""
        raise NotImplementedError

    def block(self, lo, hi) -> list:
        """Values on the inclusive box lo..hi, row-major, last coordinate fastest.

        This is the order of Window iteration and of a box Pattern.  The default
        calls value() once per cell; the variants override it with whole-box
        fills that give the same list.
        """
        return list(map(self.value, itertools.product(*_box(self, lo, hi))))

    def periods(self) -> Lattice | None:
        """A lattice of periods p, c(v + p) = c(v) for every v, of any rank, or None.

        Each variant certifies its lattice by construction.  None claims
        nothing: the configuration may still be periodic.
        """
        return None

    def support(self) -> Support | None:
        """Finitely many cosets of rank < d with c constant off their union, or None.

        Each variant certifies its cosets by construction, as periods()
        does its lattice.  None claims nothing.
        """
        return None

    def exact_domain(self) -> Window | None:
        """Cells whose values settle every translation invariant question, or None.

        Pattern counts, annihilation and period checks read this window and
        are labelled exact; without it they certify only the caller's
        window or sample.  A Sum, ValueMap or CosetIndicator with a full
        rank periods() is settled by its residue box just the same, but
        they keep None so that their printed answers keep their labels.
        """
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
            r, val = lattice.reduce(tuple(map(operator.index, cell))), operator.index(val)
            if r in table and table[r] != val:
                raise ValueError(f"conflicting values for residue {r}")
            table[r] = val
        missing = [r for r in lattice.residues() if r not in table]
        if missing:
            raise ValueError(f"missing values for residues {missing}")
        self.values = table

    def value(self, v) -> int:
        self._check(v)
        return self.values[self.lattice.reduce(v)]

    def periods(self) -> Lattice:
        return self.lattice

    def exact_domain(self) -> Window:
        """The lattice's residue box: lattice.residues(), in the same order."""
        return self.lattice.residue_box()

    def block(self, lo, hi) -> list:
        """Tile a corner: index * e_i lies in the lattice for every axis i.

        value() fills the corner of side min(index, extent) per axis; every
        row of the box repeats a corner row, and row t picks the corner row
        of t mod index.
        """
        period = self.lattice.index()
        ranges = _box(self, lo, hi)
        sides = [range(min(period, len(r))) for r in ranges]
        corner = super().block(lo, [a + len(s) - 1 for a, s in zip(lo, sides)])
        n, width = len(ranges[-1]), len(sides[-1])
        rows = [(corner[i:i + width] * -(-n // width))[:n] for i in range(0, len(corner), width)]
        picks = map(sum, itertools.product(*(
            [(t % period) * k for t in range(len(r))]
            for r, k in zip(ranges[:-1], _strides(sides[:-1])))))
        return list(itertools.chain.from_iterable(map(rows.__getitem__, picks)))


class CosetIndicator(Configuration):
    """value on the coset offset + L for a rank r <= d sublattice, 0 off it."""

    __slots__ = ("dim", "offset", "generators", "value_on", "_sub")

    def __init__(self, offset, generators, value: int = 1):
        self.offset = tuple(map(operator.index, offset))
        self.dim = len(self.offset)
        self._sub = Lattice(generators)
        if self._sub.dim != self.dim:
            raise DimensionMismatchError("offset and generators disagree")
        self.generators = self._sub.generators
        self.value_on = operator.index(value)

    def value(self, v) -> int:
        self._check(v)
        diff = tuple(a - b for a, b in zip(v, self.offset))
        return self.value_on if self._sub.contains(diff) else 0

    def periods(self) -> Lattice:
        return self._sub

    def support(self) -> Support | None:
        """The coset itself when L has rank < d; periods() covers full rank."""
        if self._sub.is_full_rank:
            return None
        return Support(((self.offset, self._sub.basis()),), 0)

    def block(self, lo, hi) -> list:
        ranges = _box(self, lo, hi)
        cells = _coset_cells(self.offset, self._sub.basis(), lo, hi)
        return _placed(ranges, ((u, self.value_on) for u in cells))


class Mechanical(Configuration):
    """c_v = floor(<weights, v> * alpha) with alpha an exact quadratic real."""

    __slots__ = ("dim", "weights", "alpha")

    def __init__(self, weights, alpha: QuadraticReal):
        self.weights = tuple(map(operator.index, weights))
        self.dim = len(self.weights)
        if not self.weights:
            raise DimensionMismatchError("a mechanical configuration needs at least one weight")
        self.alpha = alpha if isinstance(alpha, QuadraticReal) else QuadraticReal.from_fraction(alpha)

    def value(self, v) -> int:
        self._check(v)
        m = vec_dot(self.weights, v)
        a = self.alpha
        # floor((m*a.a + m*a.b*sqrt(n)) / a.q) without building intermediates
        return (m * a.a + _floor_sqrt_multiple(m * a.b, a.n)) // a.q

    def periods(self) -> Lattice | None:
        """Z^d when <w, v> * alpha is 0 everywhere, else w-perp; None in d = 1, where that is {0}."""
        if not any(self.weights) or self.alpha.a == self.alpha.b == 0:
            return _whole_space(self.dim)
        return kernel_lattice([tuple(int(i == j) for j in range(self.dim)) + (w,)
                               for i, w in enumerate(self.weights)], self.dim)

    def block(self, lo, hi) -> list:
        """Exact floors of <w, v> * alpha read by row slices: the one-atom case of _mechanical_blocks."""
        return next(_mechanical_blocks(self.alpha, [self.weights], _box(self, lo, hi)))


class FiniteSupport(Configuration):
    """Zero outside a finite association of cells."""

    __slots__ = ("dim", "assoc")

    def __init__(self, assoc: dict, dim=None):
        table = {tuple(map(operator.index, cell)): operator.index(val) for cell, val in assoc.items()}
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
        if dim < 1:
            raise DimensionMismatchError(f"dimension {dim} is below 1")
        self.dim = dim
        self.assoc = table

    def value(self, v) -> int:
        self._check(v)
        return self.assoc.get(tuple(v), 0)

    def periods(self) -> Lattice | None:
        return None if self.assoc else _whole_space(self.dim)

    def support(self) -> Support:
        return Support(tuple((cell, ()) for cell in self.assoc), 0)

    def block(self, lo, hi) -> list:
        """Cell by cell when the box holds fewer cells than the support, else _placed: min(box, support)."""
        ranges = _box(self, lo, hi)
        if math.prod(map(len, ranges)) < len(self.assoc):
            return list(map(self.assoc.get, itertools.product(*ranges), itertools.repeat(0)))
        return _placed(ranges, self.assoc.items())


class Sum(Configuration):
    """Integer linear combination of descriptors."""

    __slots__ = ("dim", "terms")

    def __init__(self, terms):
        terms = [(operator.index(k), c) for k, c in terms]
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

    def periods(self) -> Lattice | None:
        """The intersection of the terms' lattices, None if any term has none or it is {0}."""
        out = None
        for _, c in self.terms:
            lat = c.periods()
            out = lat if out is None or lat is None else out.intersect(lat)
            if out is None:
                return None
        return out

    def support(self) -> Support | None:
        """The union of the terms' cosets, None if any term has none."""
        supports = [(k, c.support()) for k, c in self.terms]
        if any(s is None for _, s in supports):
            return None
        return Support(tuple(itertools.chain.from_iterable(s.cosets for _, s in supports)),
                       sum(k * s.background for k, s in supports))

    def block(self, lo, hi) -> list:
        """The terms' blocks combined; Mechanical terms of one alpha share floors (_mechanical_blocks)."""
        ranges = _box(self, lo, hi)
        atoms = {}
        for k, c in self.terms:
            if isinstance(c, Mechanical):
                atoms.setdefault(c.alpha, []).append((k, c.weights))
        return combine(itertools.chain(
            ((k, c.block(lo, hi)) for k, c in self.terms if not isinstance(c, Mechanical)),
            *(zip([k for k, _ in group], _mechanical_blocks(alpha, [w for _, w in group], ranges))
              for alpha, group in atoms.items())))


class ValueMap(Configuration):
    """Recode the letters of an inner configuration through a finite map.

    Merging letters never increases pattern counts: equal inner patterns
    recode to equal patterns.
    """

    __slots__ = ("dim", "inner", "mapping", "default")

    def __init__(self, inner: Configuration, mapping: dict, default: int):
        self.inner = inner
        self.dim = inner.dim
        self.mapping = {operator.index(k): operator.index(v) for k, v in mapping.items()}
        self.default = operator.index(default)

    def value(self, v) -> int:
        return self.mapping.get(self.inner.value(v), self.default)

    def periods(self) -> Lattice | None:
        return self.inner.periods()

    def support(self) -> Support | None:
        inner = self.inner.support()
        if inner is None:
            return None
        return Support(inner.cosets, self.mapping.get(inner.background, self.default))

    def block(self, lo, hi) -> list:
        inner = self.inner.block(lo, hi)
        recode = {x: self.mapping.get(x, self.default) for x in set(inner)}
        return list(map(recode.__getitem__, inner))


def combine(terms) -> list:
    """Elementwise sum of k * values over (k, values) pairs; 1 and -1 add or subtract unscaled."""
    out = None
    for k, values in terms:
        if k not in (1, -1):
            values, k = map(k.__mul__, values), 1
        if out is None:
            out = list(values if k == 1 else map(operator.neg, values))
        else:
            out = list(map(operator.add if k == 1 else operator.sub, out, values))
    return out


def _mechanical_blocks(alpha: QuadraticReal, weightings, ranges):
    """Yield the block of Mechanical(w, alpha) on the box of ranges for each w in weightings.

    Along a row of the box (last coordinate varying) m = <w, v> is an
    arithmetic run, so every row is a slice of a table of exact floors over
    the span of m, stepped by the gcd of the weights on axes of extent more
    than 1.  Atoms whose span holds no more values than the box has cells
    share one table over the union of their spans, stepped by the gcd of
    their steps and of the differences of their starts, unless it is longer
    than their spans together.  An atom whose span holds more, as for
    weights like (10**6, 1), floors only the values of m that occur.
    """
    cells = math.prod(map(len, ranges))
    rows, spans = [], []
    for weights in weightings:
        const = sum(w * r.start for w, r in zip(weights, ranges) if len(r) == 1)
        *outer, (w, last) = [(w, r) for w, r in zip(weights, ranges) if len(r) > 1] or [(0, range(1))]
        starts = [const + w * last.start]
        for wi, r in outer:
            steps = [wi * x for x in r]
            starts = [s + k for s in starts for k in steps]
        reach = w * (len(last) - 1)
        rows.append((starts, w, len(last)))
        spans.append(range(min(starts) + min(reach, 0), max(starts) + max(reach, 0) + 1,
                           math.gcd(w, *(wi for wi, _ in outer)) or 1))
    dense = [i for i, span in enumerate(spans) if len(span) <= cells]
    if len(dense) > 1:
        start = min(spans[i].start for i in dense)
        union = range(start, max(spans[i][-1] for i in dense) + 1, math.gcd(
            *(spans[i].step for i in dense), *(spans[i].start - start for i in dense)))
        if len(union) <= sum(len(spans[i]) for i in dense):
            for i in dense:
                spans[i] = union
    floors = {span: alpha.floor_multiples(span) for span in {spans[i] for i in dense}}
    for (starts, w, n), span in zip(rows, spans):
        if span in floors:
            table, k = floors[span], w // span.step
            yield list(itertools.chain.from_iterable(
                [table[j]] * n if not k else table[j:j + k * n if j + k * n >= 0 else None:k]
                for j in ((s - span.start) // span.step for s in starts)))
        else:
            runs = [range(s, s + w * n, w) if w else [s] * n for s in starts]
            ms = sorted(set(itertools.chain.from_iterable(runs)))
            floor = dict(zip(ms, alpha.floor_multiples(ms)))
            yield list(map(floor.__getitem__, itertools.chain.from_iterable(runs)))


def _whole_space(dim: int) -> Lattice:
    """Z^dim, the periods of a constant configuration."""
    return Lattice([tuple(int(i == j) for j in range(dim)) for i in range(dim)])


def _box(c: Configuration, lo, hi):
    """Coordinate ranges of the inclusive box lo..hi, checked against c."""
    if len(lo) != c.dim or len(hi) != c.dim:
        raise DimensionMismatchError(f"box {lo}..{hi} vs dimension {c.dim}")
    if any(a > b for a, b in zip(lo, hi)):
        raise EmptyShapeError(f"empty box {lo}..{hi}")
    return [range(a, b + 1) for a, b in zip(lo, hi)]


def _strides(ranges):
    """Row-major strides of a box, last coordinate fastest."""
    strides = [1]
    for r in reversed(ranges[1:]):
        strides.append(strides[-1] * len(r))
    return tuple(reversed(strides))


def _coset_cells(offset, basis, lo, hi) -> list:
    """The cells of offset + span(basis) with every pivot coordinate in lo..hi.

    basis is a Lattice's triangular basis: a row with pivot c is zero past
    c, so once the rows of higher pivots are chosen, coordinate c pins the
    multiple of row c to a range.  A coordinate without a pivot can still
    fall outside the box; the callers drop those cells.
    """
    cells = [tuple(offset)]
    for row in reversed(basis):
        c = max(i for i, x in enumerate(row) if x)
        p = row[c]
        cells = [vec_add(u, vec_scale(k, row)) for u in cells
                 for k in range(-((u[c] - lo[c]) // p), (hi[c] - u[c]) // p + 1)]
    return cells


def _placed(ranges, cells) -> list:
    """Zeros on the box of the ranges, with the given (cell, value) pairs that fall inside."""
    strides = _strides(ranges)
    out = [0] * (strides[0] * len(ranges[0]))
    for cell, val in cells:
        if all(x in r for x, r in zip(cell, ranges)):
            out[sum((x - r.start) * k for x, r, k in zip(cell, ranges, strides))] = val
    return out


# --- patterns ---------------------------------------------------------------


class Pattern:
    """Values on a finite window of cells, one tuple in window order.

    On a box window the last coordinate varies fastest, so the flat index
    of a cell p is sum((p[i] - lo[i]) * strides[i]) and a translate by u
    moves every index by the same amount.  That makes the pattern at any
    anchor a fixed set of slices of `cells`.  `values` is a cell -> value
    view in window order, built on first access.
    """

    __slots__ = ("shape", "cells", "strides", "_values")

    def __init__(self, shape: Window, values):
        if isinstance(values, dict):
            raise TypeError("pattern values are a sequence in window order, not a mapping")
        self.shape = shape
        self.cells = tuple(values)
        if len(self.cells) != len(shape):
            raise ValueError(f"{len(self.cells)} values for a window of {len(shape)} cells")
        self.strides = None
        if shape.is_box:
            self.strides = _strides([range(a, b + 1) for a, b in zip(shape.lo, shape.hi)])
        self._values = None

    @property
    def values(self) -> dict:
        if self._values is None:
            self._values = dict(zip(self.shape, self.cells))
        return self._values

    def is_zero(self) -> bool:
        return not any(self.cells)

    def constant_value(self):
        """The single value taken, or None when not constant."""
        vals = set(self.cells)
        return vals.pop() if len(vals) == 1 else None

    def on(self, window: Window) -> list:
        """The values on a window inside this one, in that window's order."""
        if self.strides is None or not window.is_box:
            return list(map(self.values.__getitem__, window))
        starts, n = self.rows(window)
        return list(itertools.chain.from_iterable(self.cells[b:b + n] for b in starts))

    def rows(self, window: Window):
        """Flat indices in a box pattern of a box window's cells: row starts and length (_rows)."""
        return _rows(window, self.strides, -vec_dot(self.shape.lo, self.strides))

    def keys(self, shape: Window, anchors: Window):
        """Yield one hashable pattern key per anchor, lazily, in anchor order.

        A key is a tuple of slices of a box pattern, one per run of shape
        cells that are consecutive both in shape order and in the box;
        flattened it is the sequence of values in shape order.  Every
        anchor + shape must lie inside the box.
        """
        if anchors.is_box:
            return _slice_keys(self.cells, self.strides, shape, *self.rows(anchors))
        origin = vec_dot(self.shape.lo, self.strides)
        return _slice_keys(self.cells, self.strides, shape,
                           (vec_dot(p, self.strides) - origin for p in anchors), 1)

    def __eq__(self, other):
        if not isinstance(other, Pattern):
            return NotImplemented
        return self.shape == other.shape and self.cells == other.cells

    def __repr__(self):
        return f"Pattern({self.shape}, {len(self.cells)} cells)"


def extract_pattern(c: Configuration, anchor, shape: Window) -> Pattern:
    """Pattern of c on anchor + shape."""
    anchor = tuple(anchor)
    if len(anchor) != c.dim or shape.dim != c.dim:
        raise DimensionMismatchError("anchor/shape vs configuration dimension")
    window = shape.shift(anchor)
    return Pattern(window, window_values(c, window))


def window_values(c: Configuration, window: Window) -> list:
    """Values of c on the window's cells, in window order.

    A box is one block.  An explicit window is one block per run of cells
    consecutive along the last axis, so the cost follows its cells, not
    its bounding box.
    """
    if window.is_box:
        return c.block(window.lo, window.hi)
    # along a run, the last coordinate less the cell's position stays the same
    runs = itertools.groupby(enumerate(window), lambda e: (e[1][:-1], e[1][-1] - e[0]))
    return list(itertools.chain.from_iterable(
        c.block(g[0][1], g[-1][1]) for g in (list(g) for _, g in runs)))


def _rows(box: Window, strides, shift: int = 0):
    """Flat indices shift + <p, strides> of the box's cells: row starts, in order, and row length.

    strides are row-major, the last 1.  A trailing axis whose indices fill
    the stride of the axis before it continues that axis without a gap, so
    it folds into it: a box spanning every axis but the first is one row.
    """
    *outer, last = (range(a * s, (b + 1) * s, s) for a, b, s in zip(box.lo, box.hi, strides))
    while outer and len(last) == outer[-1].step:
        prev = outer.pop()
        last = range(prev.start + last.start, prev[-1] + last.stop)
    return map(sum, itertools.product(*outer, [last.start + shift])), len(last)


def _slice_keys(cells: tuple, strides, shape: Window, starts, n: int):
    """Keys at the anchors whose base indices are rows of n consecutive ints from starts.

    A key holds one slice per run of shape cells consecutive in shape order
    and in the layout.  When rows are longer than every run, zipping one
    slice along the row per run cell gives the run's part of every key of
    the row, with no Python code per anchor; shorter rows, which that would
    cut into more slices, are read anchor by anchor.
    """
    if shape.is_box:
        offsets, width = _rows(shape, strides)
        runs = [range(b, b + width) for b in offsets]
    else:  # an offset less its position is fixed along a run
        groups = itertools.groupby(enumerate(map(vec_dot, shape, itertools.repeat(strides))),
                                   lambda p: p[1] - p[0])
        runs = [range(g[0][1], g[-1][1] + 1) for g in (list(g) for _, g in groups)]
    if n > max(map(len, runs)):
        return itertools.chain.from_iterable(
            zip(*[zip(*[cells[b + o:b + o + n] for o in r]) for r in runs]) for b in starts)
    bases = starts if n == 1 else itertools.chain.from_iterable(range(b, b + n) for b in starts)
    return (tuple([cells[b + r.start:b + r.stop] for r in runs]) for b in bases)


def covering_pattern(c: Configuration, shape: Window, anchors: Window):
    """A box Pattern table of c and anchors at in it: table.keys(s, at) are the
    keys at the anchors, in anchor order, for every shape s inside the
    bounding box of shape (the cover).

    The table is c on one box over all anchors, at the anchors themselves,
    unless that box holds more cells than the anchors' blocks together, as
    for an explicit anchor window spread far apart.  Then the blocks of c on
    anchor + cover are stacked in anchor order along the first axis, h rows
    each (the cover's extent there), into one box read at (j * h, 0, ..., 0).
    """
    (alo, ahi), (slo, shi) = anchors.bounds(), shape.bounds()
    lo, hi = vec_add(alo, slo), vec_add(ahi, shi)
    box, h = Window.box(lo, hi), shi[0] - slo[0] + 1
    if len(box) <= len(anchors) * len(Window.box(slo, shi)):
        return Pattern(box, c.block(lo, hi)), anchors
    stacked = Window.box(slo, (slo[0] + h * len(anchors) - 1,) + shi[1:])
    blocks = (c.block(vec_add(a, slo), vec_add(a, shi)) for a in anchors)
    return (Pattern(stacked, itertools.chain.from_iterable(blocks)),
            Window.from_points((j * h,) + (0,) * (len(slo) - 1) for j in range(len(anchors))))


def residue_representatives(c: Configuration, anchors: Window) -> Window:
    """Anchors meeting the same residue classes of c.periods() as anchors.

    Anchors in one class see the same pattern, so keying it gives the same
    keys, counts and early exits.  Of a box, they are a box: the lattice's
    residue_box() moved to the anchors' corner, when it fits, holds each
    class once, as basis row i is zero past axis i.  Otherwise their corner
    of side index() meets every class they do, as index() * e_i is a
    period.  Of explicit anchors, they are each class's first anchor.  The
    anchors come back unchanged when that is all of them, or when
    periods() is not of full rank.
    """
    lattice = c.periods()
    if lattice is None or not lattice.is_full_rank:
        return anchors
    if not anchors.is_box:
        firsts = {}
        for a in anchors:
            firsts.setdefault(lattice.reduce(a), a)
        return anchors if len(firsts) == len(anchors) else Window.from_points(firsts.values())
    lo, hi = anchors.bounds()
    box = lattice.residue_box().shift(lo)
    if all(map(operator.le, box.hi, hi)):
        return box
    return Window.box(lo, [min(b, a + lattice.index() - 1) for a, b in zip(lo, hi)])


def support_anchors(c: Configuration, shape: Window, sample: Window) -> Window:
    """Of the sample's residue_representatives, those whose shape can meet
    c.support()'s cosets, plus the first other one.

    Off the cosets c is its background, so every other anchor sees the
    background pattern that the first one already shows: keying these
    gives the same set of keys, and with it the same counts and early
    exits.  They are enumerated, never scanned for: each coset cell u in
    the anchors' bounding box grown by the shape's gives the anchors u - s,
    s in the shape's bounding box, that lie in the anchors' bounding box.
    Without a certified support, or when that keys every anchor, the
    representatives come back unchanged: a box for a box sample.
    """
    anchors = residue_representatives(c, sample)
    support = c.support()
    if support is None:
        return anchors
    (lo, hi), (slo, shi) = anchors.bounds(), shape.bounds()
    near = set()
    for offset, basis in support.cosets:
        for u in _coset_cells(offset, basis, vec_add(lo, slo), vec_add(hi, shi)):
            near.update(itertools.product(*(
                range(max(a, x - t), min(b, x - s) + 1)
                for x, a, b, s, t in zip(u, lo, hi, slo, shi))))
    if not anchors.is_box:
        near = {a for a in near if a in anchors}
    far = next((a for a in anchors if a not in near), None)
    if far is not None:
        near.add(far)
    return anchors if len(near) == len(anchors) else Window.from_points(near)


def count_distinct(keys, limit: int) -> int:
    """Number of distinct keys, stopping as soon as it exceeds limit."""
    seen = set()
    for key in keys:
        seen.add(key)
        if len(seen) > limit:
            break
    return len(seen)


@dataclass
class ComplexityResult:
    count: int
    exact: bool
    sample_window: Window


def pattern_complexity(c: Configuration, shape: Window,
                       sample: Window | None = None) -> ComplexityResult:
    """Number of distinct patterns of the given shape.

    Where c.exact_domain() is a window it replaces the anchors: it covers
    every translate, so the count is exact.  Otherwise anchors range over
    the sample window, cut to anchors meeting its residue classes of a
    full rank c.periods() and to those near c.support() (support_anchors),
    and the count is a certified lower bound.
    """
    if shape.dim != c.dim or (sample is not None and sample.dim != c.dim):
        raise DimensionMismatchError("shape/sample vs configuration dimension")

    domain = c.exact_domain()
    if domain is None and sample is None:
        raise EmptySampleError("a sample window is required here")
    keyed = support_anchors(c, shape, sample) if domain is None else domain

    table, at = covering_pattern(c, shape, keyed)
    count = len(set(table.keys(shape, at)))
    return ComplexityResult(count, domain is not None, sample if domain is None else domain)
