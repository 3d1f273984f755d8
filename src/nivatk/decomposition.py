"""Difference and integration operators plus windowed periodic decomposition.

A configuration annihilated by a product of difference factors
(X^v1 - 1)...(X^vm - 1) splits, on any finite core window, into a sum of
m components where component i repeats with step vi.  `decompose` finds
the canonical such split exactly: a spanning-forest walk for one or two
directions, and for more a difference-stencil reduction to the third and
later directions, solved by fraction-free elimination, then a walk.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

from .configurations import Configuration, Pattern, window_values
from .errors import (
    DimensionMismatchError,
    EmptyResultError,
    InfeasibleError,
    VerificationFailedError,
    WindowTooSmallError,
    ZeroVectorError,
)
from .lattice import Window, check_same_dim, is_zero_vector, vec_add, vec_dot, vec_neg
from .laurent import LaurentPolynomial, annihilates
from .linalg import solve_sparse


def difference(p: Pattern, v) -> Pattern:
    """Apply the step-v difference u -> p[u-v] - p[u].

    The result lives on shape intersected with shape shifted by v, the cells
    where both endpoints are known.
    """
    v, dom = _overlap(p, v)
    return Pattern(dom, map(operator.sub, p.on(dom.shift(vec_neg(v))), p.on(dom)))


def _overlap(p: Pattern, v):
    """The checked step, and the cells u of p's window with u - v in it too."""
    v = tuple(v)
    check_same_dim(p.shape.lo, v)
    if is_zero_vector(v):
        raise ZeroVectorError("difference step must be nonzero")
    dom = p.shape.intersect(p.shape.shift(v))
    if dom is None:
        raise EmptyResultError("difference domain is empty")
    return v, dom


def _line_order(cells, v):
    """The cells (or their flat indices in a box, or items keyed by them),
    given in lexicographic order, in an order where u - v comes before u."""
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
        k, (starts, n) = vec_dot(v, d.strides), d.rows(dom)
        for i in _line_order([j for b in starts for j in range(b, b + n)], v):
            out[i] = out[i - k] - d.cells[i]
    return Pattern(d.shape, out)


def difference_vanishes(p: Pattern, v) -> bool:
    """Is difference(p, v) zero?  Raises as `difference` does.

    On a box, u - v sits k = <v, strides> places before u, so each row of
    the overlap is compared with the slice k places back, up to the first
    mismatch, and no difference is built.
    """
    v, dom = _overlap(p, v)
    if p.strides is None:
        return difference(p, v).is_zero()
    cells, k = p.cells, vec_dot(v, p.strides)
    starts, n = p.rows(dom)
    return all(cells[b - k:b - k + n] == cells[b:b + n] for b in starts)


def _repeats(p: Pattern, v) -> bool:
    """Does p repeat with step v wherever both ends lie in its window?"""
    try:
        return difference_vanishes(p, v)
    except EmptyResultError:
        return True


@dataclass
class WindowDecomposition:
    """The canonical split of a configuration on a core window.

    components[i] is a Pattern on the core that repeats with step
    vectors[i]; its values are ints, or Fractions where not integral.
    residual_check says that the components sum to the configuration on
    the core and each repeats along its step; integral that every value is
    an integer.
    """

    vectors: tuple
    components: tuple
    core: Window
    residual_check: bool
    integral: bool

    def component_sum(self) -> Pattern:
        return Pattern(self.core, map(sum, zip(*(p.cells for p in self.components))))


def _stencil_solve(core, vs, cols, ncols, rhs):
    """The canonical solution for three or more directions, or None.

    (X^v1 - 1)(X^v2 - 1) applied at each cell u whose u + v1, u + v2 and
    u + v1 + v2 lie in the core cancels the unknowns of directions 1 and
    2, leaving one row over the other directions' unknowns.  The stencils
    lie in the left kernel of the first two directions' columns, so the
    reduced system's pivot columns are among the full system's, and a
    consistent back-solve of directions 1 and 2 on what is left of the
    right hand side is the canonical solution.  None when either step is
    inconsistent: the stencils need not span that kernel (a core with
    gaps, parallel v1 and v2), and the full system decides.
    """
    v1, v2 = vs[0], vs[1]
    off = max(cols[1]) + 1
    rest = [[k - off for k in col] for col in cols[2:]]
    index = {u: i for i, u in enumerate(core)}
    # a shifted window iterates in the same order, so these are the
    # indices of u + v1, u + v2 and u + v1 + v2, None outside the core
    shifted = [map(index.get, core.shift(v)) for v in (v1, v2, vec_add(v1, v2))]
    # distinct (row as frozen items, right hand side) pairs: a box core
    # repeats each row many times, and a repeat changes no solution
    system = {}
    for i, j1, j2, j12 in zip(range(len(index)), *shifted):
        if j1 is None or j2 is None or j12 is None:
            continue
        row = {}
        for col in rest:
            for k, s in ((col[i], 1), (col[j1], -1), (col[j2], -1), (col[j12], 1)):
                row[k] = row.get(k, 0) + s
        key = frozenset((k, s) for k, s in row.items() if s)
        system[key, rhs[i] - rhs[j1] - rhs[j2] + rhs[j12]] = None
    x3, _ = solve_sparse([dict(key) for key, _ in system], [b for _, b in system], ncols - off)
    if x3 is None:
        return None
    known = map(sum, zip(*([x3[k] for k in col] for col in rest)))
    x12, _ = solve_sparse([{a: 1, b: 1} for a, b in zip(cols[0], cols[1])],
                          list(map(operator.sub, rhs, known)), off)
    return None if x12 is None else x12 + x3


def decompose(c: Configuration, vectors, core: Window, halo: Window | None = None) -> WindowDecomposition:
    """Split c on the core into one vi-periodic component per direction.

    Requires that the product of the difference factors annihilates c on the
    halo (checked; by default the core plus the product's exponent box).
    Unknowns are each component's values on the entry cells of its lines
    through the core, ordered by component then cell.  The output is the
    solution with free unknowns pinned to zero, which depends only on the
    system's pivot columns, so it is canonical however it is found: by
    `solve_sparse`'s graph walk for one or two directions, by
    `_stencil_solve` for more, and by elimination on the whole system when
    that reduction finds no solution.  Raises InfeasibleError, with the
    rows that elimination leaves as 0 = nonzero, when there is none.
    """
    vs = []
    for v in vectors:
        v = tuple(map(operator.index, v))
        check_same_dim(core.lo, v)
        if is_zero_vector(v):
            raise ZeroVectorError("period direction must be nonzero")
        vs.append(v)
    if not vs:
        raise ValueError("at least one period direction required")
    if core.dim != c.dim:
        raise DimensionMismatchError("core dimension vs configuration")

    product = LaurentPolynomial.difference_product(c.dim, vs)
    # the lowest terms in coordinate k are +-X^(sum of v with v_k < 0) times
    # the nonzero product of the factors with v_k = 0, so the exponent box
    # is sum min(0, v_k) .. sum max(0, v_k): the core grown by every step
    needed = Window.box(vec_add(core.lo, product.min_exponent()),
                        vec_add(core.hi, product.max_exponent()))
    if halo is None:
        halo = needed
    elif not all(p in halo for p in needed):
        raise WindowTooSmallError("halo must cover the core grown by every step extent")

    ver = annihilates(product, c, halo)
    if not ver:
        raise VerificationFailedError(
            f"difference product does not annihilate on the halo (cell {ver.witness})")

    core_cells = list(core)
    cols = []  # per direction: the column of each core cell's line entry, in core order
    ncols = 0
    for v in vs:
        entry = {}
        # pairs (u, u - v), u - v read from the shifted window in step
        for u, w in _line_order(list(zip(core_cells, core.shift(vec_neg(v)))), v):
            entry[u] = entry.get(w, u)
        col_of = {r: ncols + k for k, r in enumerate(sorted(set(entry.values())))}
        ncols += len(col_of)
        cols.append([col_of[entry[u]] for u in core_cells])

    rhs = window_values(c, core)
    solution = _stencil_solve(core, vs, cols, ncols, rhs) if len(vs) > 2 else None
    if solution is None:
        solution, bad = solve_sparse([dict.fromkeys(cs, 1) for cs in zip(*cols)], rhs, ncols)
        if solution is None:
            raise InfeasibleError(
                "no windowed decomposition for these directions",
                equations=[(core_cells[i], rhs[i]) for i in bad])

    components = [Pattern(core, map(solution.__getitem__, col)) for col in cols]
    ok = (list(map(sum, zip(*(p.cells for p in components)))) == rhs
          and all(_repeats(p, v) for p, v in zip(components, vs)))
    integral = all(x.denominator == 1 for x in solution)
    return WindowDecomposition(
        vectors=tuple(vs),
        components=tuple(components),
        core=core,
        residual_check=ok,
        integral=integral,
    )
