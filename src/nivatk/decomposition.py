"""Difference and integration operators plus windowed periodic decomposition.

A configuration annihilated by a product of difference factors
(X^v1 - 1)...(X^vm - 1) splits, on any finite core window, into a sum of
m components where component i repeats with step vi.  `decompose` finds
the canonical such split by exact rational elimination.
"""

from __future__ import annotations

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
from .lattice import Window, check_same_dim, is_zero_vector, vec_add, vec_sub
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
    vals = {u: p.values[vec_sub(u, v)] - p.values[u] for u in dom}
    return Pattern(dom, vals)


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
    out = {}
    for start in d.shape:
        if vec_sub(start, v) in d.shape:
            continue
        out[start] = 0
        prev, cur = start, vec_add(start, v)
        while cur in d.shape:
            out[cur] = out[prev] - d.values[cur]
            prev, cur = cur, vec_add(cur, v)
    return Pattern(d.shape, out)


@dataclass
class WindowDecomposition:
    vectors: tuple
    components: tuple
    core: Window
    residual_check: bool
    integral: bool

    def component_sum(self) -> Pattern:
        vals = {u: sum(p.values[u] for p in self.components) for u in self.core}
        return Pattern(self.core, vals)


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

    m = len(vs)
    core_cells = list(core)
    rep_cache = [dict() for _ in range(m)]

    def rep(i, u):
        cached = rep_cache[i].get(u)
        if cached is not None:
            return cached
        chain = [u]
        w = vec_sub(u, vs[i])
        while w in core:
            cached = rep_cache[i].get(w)
            if cached is not None:
                break
            chain.append(w)
            w = vec_sub(w, vs[i])
        else:
            cached = chain[-1]
        for cell in chain:
            rep_cache[i][cell] = cached
        return cached

    col_of = {}
    for i in range(m):
        for r in sorted({rep(i, u) for u in core_cells}):
            col_of[(i, r)] = len(col_of)

    rows = [{col_of[(i, rep(i, u))]: 1 for i in range(m)} for u in core_cells]
    rhs = window_values(c, core)
    solution, bad = solve_sparse(rows, rhs, len(col_of))
    if solution is None:
        raise InfeasibleError(
            "no windowed decomposition for these directions",
            equations=[(core_cells[i], rhs[i]) for i in bad])

    components = []
    for i in range(m):
        vals = {u: solution[col_of[(i, rep(i, u))]] for u in core_cells}
        components.append(Pattern(core, vals))

    ok = True
    for u, want in zip(core_cells, rhs):
        if sum(p.values[u] for p in components) != want:
            ok = False
            break
    if ok:
        for i, p in enumerate(components):
            for u in core_cells:
                w = vec_add(u, vs[i])
                if w in core and p.values[w] != p.values[u]:
                    ok = False
                    break
            if not ok:
                break

    integral = all(
        Fraction(x).denominator == 1 for p in components for x in p.values.values())
    return WindowDecomposition(
        vectors=tuple(vs),
        components=tuple(components),
        core=core,
        residual_check=ok,
        integral=integral,
    )
