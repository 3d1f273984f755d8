"""Difference and integration operators plus windowed periodic decomposition.

A configuration annihilated by a product of difference factors
(X^v1 - 1)...(X^vm - 1) splits, on any finite core window, into a sum of
m components where component i repeats with step vi.  `decompose` finds
the canonical such split by exact rational elimination.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction

from .configurations import Configuration, Pattern, window_values
from .errors import (
    DimensionMismatchError,
    EmptyResultError,
    InfeasibleError,
    VerificationFailedError,
    WindowTooSmallError,
    ZeroVectorError,
)
from .lattice import Window, check_same_dim, is_zero_vector, vec_dot, vec_neg, vec_sub
from .laurent import LaurentPolynomial, annihilates
from .linalg import solve_sparse


def difference(p: Pattern, v) -> Pattern:
    """Apply the step-v difference u -> p[u-v] - p[u].

    The result lives on shape intersected with shape shifted by v, the cells
    where both endpoints are known.
    """
    v = tuple(v)
    check_same_dim(p.shape.lo, v)
    if is_zero_vector(v):
        raise ZeroVectorError("difference step must be nonzero")
    dom = p.shape.intersect(p.shape.shift(v))
    if dom is None:
        raise EmptyResultError("difference domain is empty")
    return Pattern(dom, map(operator.sub, p.on(dom.shift(vec_neg(v))), p.on(dom)))


def _line_order(cells, v):
    """The cells (or their flat indices in a box), given in lexicographic
    order, in an order where u - v comes before u."""
    return cells if v > (0,) * len(v) else reversed(cells)


def integrate(d: Pattern, v) -> Pattern:
    """Inverse of `difference` up to integration constants, on a box.

    Each line in direction v through the box gets value 0 at its entry cell,
    then o[u] = o[u-v] - d[u] walking forward.  difference(integrate(d, v), v)
    reproduces d wherever the difference is defined.
    """
    v = tuple(v)
    check_same_dim(d.shape.lo, v)
    if is_zero_vector(v):
        raise ZeroVectorError("integration step must be nonzero")
    if not d.shape.is_box:
        raise ValueError("integrate needs a box domain")
    out = [0] * len(d.cells)
    dom = d.shape.intersect(d.shape.shift(v))
    if dom is not None:
        # u - v sits k places before u in the flat list
        k = vec_dot(v, d.strides)
        for i in _line_order(list(d.indices(dom)), v):
            out[i] = out[i - k] - d.cells[i]
    return Pattern(d.shape, out)


def _repeats(p: Pattern, v) -> bool:
    """Does p repeat with step v wherever both ends lie in its window?"""
    try:
        return difference(p, v).is_zero()
    except EmptyResultError:
        return True


@dataclass
class WindowDecomposition:
    vectors: tuple
    components: tuple
    core: Window
    residual_check: bool
    integral: bool

    def component_sum(self) -> Pattern:
        return Pattern(self.core, map(sum, zip(*(p.cells for p in self.components))))


def _halo_box(core: Window, vectors) -> Window:
    lo = list(core.lo)
    hi = list(core.hi)
    for v in vectors:
        for k, x in enumerate(v):
            if x < 0:
                lo[k] += x
            else:
                hi[k] += x
    return Window.box(tuple(lo), tuple(hi))


def decompose(c: Configuration, vectors, core: Window, halo: Window | None = None) -> WindowDecomposition:
    """Split c on the core into one vi-periodic component per direction.

    Requires that the product of the difference factors annihilates c on the
    halo (checked; the default halo is the core grown by each step's extent).
    Unknowns are each component's values on the entry cells of its lines
    through the core, ordered by component then cell; the system is solved
    exactly with free unknowns pinned to zero, so the output is canonical.
    """
    vs = []
    for v in vectors:
        v = tuple(int(x) for x in v)
        check_same_dim(core.lo, v)
        if is_zero_vector(v):
            raise ZeroVectorError("period direction must be nonzero")
        vs.append(v)
    if not vs:
        raise ValueError("at least one period direction required")
    if core.dim != c.dim:
        raise DimensionMismatchError("core dimension vs configuration")

    needed = _halo_box(core, vs)
    if halo is None:
        halo = needed
    else:
        if not all(p in halo for p in needed):
            raise WindowTooSmallError("halo must cover the core grown by every step extent")

    product = LaurentPolynomial.one(c.dim)
    for v in vs:
        product = product * LaurentPolynomial.difference(v)
    ver = annihilates(product, c, halo)
    if not ver:
        raise VerificationFailedError(
            f"difference product does not annihilate on the halo (cell {ver.witness})")

    core_cells = list(core)
    cols = []  # per direction: the column of each core cell's line entry, in core order
    ncols = 0
    for v in vs:
        entry = {}
        for u in _line_order(core_cells, v):
            entry[u] = entry.get(vec_sub(u, v), u)
        col_of = {r: ncols + k for k, r in enumerate(sorted(set(entry.values())))}
        ncols += len(col_of)
        cols.append([col_of[entry[u]] for u in core_cells])

    rows = [dict.fromkeys(cs, 1) for cs in zip(*cols)]
    rhs = window_values(c, core)
    solution, bad = solve_sparse(rows, rhs, ncols)
    if solution is None:
        raise InfeasibleError(
            "no windowed decomposition for these directions",
            equations=[(core_cells[i], rhs[i]) for i in bad])

    components = [Pattern(core, map(solution.__getitem__, col)) for col in cols]
    ok = (list(map(sum, zip(*(p.cells for p in components)))) == rhs
          and all(_repeats(p, v) for p, v in zip(components, vs)))
    integral = all(
        Fraction(x).denominator == 1 for p in components for x in p.cells)
    return WindowDecomposition(
        vectors=tuple(vs),
        components=tuple(components),
        core=core,
        residual_check=ok,
        integral=integral,
    )
