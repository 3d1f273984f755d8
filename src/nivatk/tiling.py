"""Cluster tiles, exact co-tiler verification, and periodic co-tiler search.

A tile D tiles the grid with a co-tiler set C when every cell is d + c for
exactly one pair (d, c).  For fully periodic C, one fundamental domain
decides the question exactly, which makes both verification and bounded
search finite and deterministic: the search is an exact cover of each
candidate lattice's residues by tile translates.
"""

from __future__ import annotations

import itertools
import operator
from collections import Counter
from dataclasses import dataclass

from .configurations import Periodic
from .errors import (
    DimensionMismatchError,
    EmptyShapeError,
    NotPrimeError,
    RankDeficientError,
    VerificationFailedError,
)
from .lattice import Lattice, Window, canonical_sign, vec_add, vec_scale, vec_sub
from .laurent import LaurentPolynomial, apply, periodicity_test
from .quadratic import is_prime


class ClusterTile:
    """Finite cell set, stored in its canonical translate (min corner 0)."""

    __slots__ = ("dim", "cells")

    def __init__(self, cells):
        cells = [tuple(map(operator.index, p)) for p in cells]
        if not cells:
            raise EmptyShapeError("a tile needs at least one cell")
        dims = {len(p) for p in cells}
        if len(dims) != 1:
            raise DimensionMismatchError("tile cells of mixed dimension")
        self.dim = dims.pop()
        if self.dim > 3:
            raise DimensionMismatchError("tiles are supported up to dimension 3")
        lo = tuple(min(p[k] for p in cells) for k in range(self.dim))
        shifted = sorted(vec_sub(p, lo) for p in cells)
        if len(set(shifted)) != len(shifted):
            raise ValueError("duplicate tile cells")
        self.cells = tuple(shifted)

    def __len__(self):
        return len(self.cells)

    def __eq__(self, other):
        if not isinstance(other, ClusterTile):
            return NotImplemented
        return self.cells == other.cells

    def __hash__(self):
        return hash(self.cells)

    def __repr__(self):
        inner = " ".join(str(p).replace(" ", "") for p in self.cells)
        return f"ClusterTile[{inner}]"


class PeriodicCoTiler:
    """Union of finitely many cosets of a full-rank lattice."""

    __slots__ = ("lattice", "residues")

    def __init__(self, lattice: Lattice, residues):
        if not lattice.is_full_rank:
            raise RankDeficientError("co-tiler lattice must have full rank")
        reduced = [lattice.reduce(tuple(map(operator.index, r))) for r in residues]
        if len(set(reduced)) != len(reduced):
            raise ValueError("residues repeat modulo the lattice")
        if not reduced:
            raise ValueError("a co-tiler needs at least one residue")
        self.lattice = lattice
        self.residues = tuple(sorted(reduced))

    def configuration(self) -> Periodic:
        """Indicator of the co-tiler set as a Periodic of index-many values."""
        inside = set(self.residues)
        values = {r: (1 if r in inside else 0) for r in self.lattice.residues()}
        return Periodic(self.lattice, values)

    def __eq__(self, other):
        if not isinstance(other, PeriodicCoTiler):
            return NotImplemented
        return self.lattice == other.lattice and self.residues == other.residues

    def __repr__(self):
        return f"PeriodicCoTiler({self.lattice!r}, residues={self.residues})"


def tile_polynomial(tile: ClusterTile) -> LaurentPolynomial:
    """Characteristic polynomial sum of X^v over the tile cells."""
    return LaurentPolynomial(tile.dim, {p: 1 for p in tile.cells})


@dataclass
class TilingResult:
    status: str  # "Valid" | "Overlap" | "Gap"
    witness: tuple | None = None

    def __bool__(self):
        return self.status == "Valid"


def _translate_counts(tile: ClusterTile, cotiler: PeriodicCoTiler, k: int) -> Counter:
    """(f_D(X^k) * 1_C)(u) per class u of C's lattice: how many translates r + k*d
    land in it, since each d meets one r at most (residues are distinct mod L)."""
    if tile.dim != cotiler.lattice.dim:
        raise DimensionMismatchError("tile vs co-tiler dimension")
    reduce = cotiler.lattice.reduce
    return Counter(reduce(vec_add(r, vec_scale(k, d))) for r in cotiler.residues for d in tile.cells)


def verify_cotiler(tile: ClusterTile, cotiler: PeriodicCoTiler) -> TilingResult:
    """Exact check of D + C = Z^d on one fundamental domain.

    D tiles with C exactly when f_D * 1_C = 1, a count of the |D|*|R|
    translates r + d per class of C's lattice.  The first residue box cell
    whose count is not 1 is reported as an Overlap (above 1) or a Gap (0).
    """
    counts = _translate_counts(tile, cotiler, 1)
    for cell in cotiler.lattice.residue_box():
        if counts[cell] != 1:
            return TilingResult("Overlap" if counts[cell] > 1 else "Gap", cell)
    return TilingResult("Valid")


def _hnf_bases(dim: int, index: int):
    """All canonical triangular bases of full-rank sublattices of the index.

    Row for coordinate c carries the positive pivot at position c, zeros
    after it, and entries before it reduced modulo the earlier pivots, so
    each sublattice appears exactly once.
    """
    def diagonals(n, k):
        if k == 1:
            yield (n,)
            return
        for a in range(1, n + 1):
            if n % a == 0:
                for rest in diagonals(n // a, k - 1):
                    yield (a,) + rest

    for diag in diagonals(index, dim):
        free_axes = [range(diag[k]) for k in range(dim)]
        rows_choices = []
        for c in range(dim):
            prefix_space = itertools.product(*free_axes[:c])
            rows_choices.append([
                tuple(pre) + (diag[c],) + (0,) * (dim - c - 1)
                for pre in prefix_space
            ])
        for rows in itertools.product(*rows_choices):
            yield rows


def _reach(start, free) -> set:
    """The cells of `free` joined to `start` by unit steps along an axis."""
    seen = {start}
    stack = [start]
    while stack:
        x, y = stack.pop()
        for q in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)):
            if q in free and q not in seen:
                seen.add(q)
                stack.append(q)
    return seen


def _is_polyomino(tile: ClusterTile) -> bool:
    """True when the tile is 2-D, edge-connected and has no holes.

    A hole is an empty cell that no path of edge-adjacent empty cells joins
    to the outside, which includes a cell closed off where the tile touches
    itself only at a corner.
    """
    if tile.dim != 2:
        return False
    cells = set(tile.cells)
    if len(_reach(tile.cells[0], cells)) != len(cells):
        return False
    # connected, so the bounding box is at most |tile| x |tile|: the hole
    # test floods the empty cells of that box padded by one
    w = max(x for x, _ in cells) + 1
    h = max(y for _, y in cells) + 1
    empty = {(x, y) for x in range(-1, w + 1) for y in range(-1, h + 1)} - cells
    return len(_reach((-1, -1), empty)) == len(empty)


def search_periodic_cotiler(tile: ClusterTile, max_index: int) -> PeriodicCoTiler | None:
    """Exhaustive search for a fully periodic co-tiler up to a lattice index.

    Candidate lattices are enumerated by increasing index (multiples of the
    tile size) and lexicographic basis.  For each, an exact cover on
    bitmasks over the indices of lat.residues() picks residues: at the
    lowest uncovered residue t it tries r = t - d for d in tile.cells, in
    that order and without repeats, and takes the translate r + tile only
    when its |tile| residues are distinct and none is covered yet.  Such
    translates are disjoint, so a full cover has index // |tile| of them.
    The first hit in that order is re-verified and returned; None
    certifies that no full-rank periodic co-tiler with index <= max_index
    exists.

    For a polyomino (2-D, edge-connected, without holes) None certifies
    more: no co-tiler exists at any index.  A polyomino that tiles the
    plane by translation also has a lattice tiling (Wijshoff & van Leeuwen
    1984; Beauquier & Nivat 1991), which is a co-tiler of index |tile| with
    one residue, and the first index tries every such lattice.  So the
    search stops after index |tile|, and the first hit is unchanged.
    """
    size = len(tile)
    if max_index < size:
        raise ValueError("max_index must be at least the tile size")

    last = size if _is_polyomino(tile) else max_index
    for index in range(size, last + 1, size):
        for basis in sorted(_hnf_bases(tile.dim, index)):
            lat = Lattice(basis)
            cells = list(lat.residues())
            bit = {cell: 1 << k for k, cell in enumerate(cells)}

            def solve(covered):
                if covered == (1 << index) - 1:
                    return []
                target = cells[(~covered & (covered + 1)).bit_length() - 1]
                for r in dict.fromkeys(lat.reduce(vec_sub(target, d)) for d in tile.cells):
                    hit = 0
                    for d in tile.cells:
                        hit |= bit[lat.reduce(vec_add(d, r))]
                    if hit.bit_count() == size and not hit & covered:
                        rest = solve(covered | hit)
                        if rest is not None:
                            return [r, *rest]
                return None

            chosen = solve(0)
            if chosen is not None:
                found = PeriodicCoTiler(lat, chosen)
                check = verify_cotiler(tile, found)
                if not check:
                    raise VerificationFailedError(
                        f"search result fails re-verification: {check.status} at {check.witness}")
                return found
    return None


def prime_periodicity_check(tile: ClusterTile, cotiler, window: Window | None = None):
    """Verified period vectors p*(v - u) of a co-tiler of a prime-size tile.

    For a PeriodicCoTiler C = L + R, w is a period when the r + w reduce to R,
    and the congruence counts the translates r + p*d per class of L (at the
    window's classes, if one is given).  A plain configuration is checked on
    the window instead (refutations drop the vector from the list).  The
    mod-p congruence of the power-substituted tile polynomial against the
    co-tiler indicator is run as a cross-check and a failure raises, since it
    contradicts the co-tiling hypothesis.
    """
    p = len(tile)
    if not is_prime(p):
        raise NotPrimeError(f"tile size {p} is not prime")

    candidates = sorted({
        canonical_sign(vec_scale(p, vec_sub(v, u)))
        for u in tile.cells for v in tile.cells if u != v
    })

    if isinstance(cotiler, PeriodicCoTiler):
        counts = _translate_counts(tile, cotiler, p)
        reduce, residues = cotiler.lattice.reduce, set(cotiler.residues)
        verified = [w for w in candidates if {reduce(vec_add(r, w)) for r in residues} == residues]
        products = counts.values() if window is None else (counts[reduce(u)] for u in window)
    else:
        if window is None:
            raise ValueError("a window is required for non-lattice co-tiler inputs")
        verified = [w for w in candidates if periodicity_test(cotiler, w, window).status != "not-periodic"]
        products = apply(tile_polynomial(tile).substitute_power(p), cotiler, window).cells
    if any(v % p != 0 for v in products):
        raise VerificationFailedError(
            "power-substituted tile polynomial breaks the mod-p congruence")
    return verified
