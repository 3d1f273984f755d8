"""Exact integer linear algebra for the solver layers.

One engine with two entry points.  `_echelon` brings sparse integer rows
to row echelon form fraction-free: integer row combinations, each row's
content stripped by its gcd.  `_kernel_vector` back-substitutes one
integer kernel vector from that form over a common denominator.
`kernel_vector` serves the annihilator systems with the first coprime
kernel vector of `nullspace_basis`, which has one per free column and is
the tests' reference; `solve_sparse` serves the decomposition systems,
with -b riding along as one more integer column, so a solution is the
kernel vector of (A | -b) that is 1 at that column.  Pivot columns are
scanned strictly left to right, so the pivot column set, and with it the
canonical free-variables-zero solution and kernel basis, does not depend
on which row serves as pivot.

A system whose rows read x[u] + x[w] = b, x[u] = b or 0 = b is a graph
on the columns.  For two families of lines the graph is bipartite and its
incidence matrix totally unimodular (Heller & Tompkins), so no
elimination is needed: `solve_sparse` first walks a spanning forest
(`_solve_graph`) and eliminates only when that walk finds no solution.
Solution values are ints where integral and Fractions where not.
"""

from __future__ import annotations

import math
from fractions import Fraction


def integer_primitive(vec):
    """Scale a rational vector to coprime integers (sign preserved)."""
    vec = list(vec)
    den = math.lcm(*(x.denominator for x in vec))
    ints = [x.numerator * (den // x.denominator) for x in vec]
    g = math.gcd(*ints)
    return [n // g for n in ints] if g > 1 else ints


def nullspace_basis(rows):
    """Kernel basis in coprime integers, one vector per free column.

    Ordered by free column index; vector k is positive at its free column,
    zero at the other free columns and, divided by that entry, equals the
    reduced echelon parameterization.
    """
    return list(_kernel_vectors(rows))


def kernel_vector(rows):
    """The first vector of nullspace_basis(rows), None when the kernel is
    trivial; only that one is back-substituted."""
    return next(_kernel_vectors(rows), None)


def _kernel_vectors(rows):
    """nullspace_basis(rows) one vector at a time, after one `_echelon`."""
    if not rows:
        return
    ncols = len(rows[0])
    work = [{c: v for c, v in enumerate(integer_primitive(row)) if v} for row in rows]
    pivot_of_col, _ = _echelon(work, ncols)
    for fc in range(ncols):
        if fc not in pivot_of_col:
            y, _ = _kernel_vector(work, pivot_of_col, fc)
            g = math.gcd(*y.values())
            yield [y.get(c, 0) // g for c in range(ncols)]


def solve_sparse(rows, rhs, ncols):
    """Solve a sparse integer system, free variables pinned to zero.

    rows: list of {column: int coefficient}; rhs: rational right hand
    sides.  Returns (solution, inconsistent) where solution is a list of
    ints and Fractions (an int wherever the value is integral) or None,
    and inconsistent lists, ascending, the row indices that reduced to
    0 = nonzero under `_solve_echelon`'s pivot rule.
    """
    solution = _solve_graph(rows, rhs, ncols)
    if solution is not None:
        return solution, []
    return _solve_echelon(rows, rhs, ncols)


def _solve_graph(rows, rhs, ncols):
    """The canonical solution of a system whose rows all have coefficients
    1 and at most two entries, or None when there is none to find this way
    (another row shape, an odd cycle, an inconsistent row).

    Two-entry rows are edges between columns.  The pivot columns are the
    columns of each connected component but its highest one when the
    component is bipartite and has no one-entry row: there the signed sum
    of the columns is the one dependency.  So each component is walked
    from its highest column set to 0 and x[w] = b - x[u] is propagated
    along a spanning tree; a one-entry row x[r] = b then moves r's side of
    the tree by d = b - x[r] and the other side by -d, which keeps every
    tree edge.  If the result satisfies every row, it sets every non-pivot
    column to 0 and is the answer.
    """
    nbrs = [[] for _ in range(ncols)]
    ends = {}
    for row, b in zip(rows, rhs):
        coeffs = tuple(row.values())
        if coeffs == (1, 1):
            u, w = row
            nbrs[u].append((w, b))
            nbrs[w].append((u, b))
        elif coeffs == (1,):
            (u,) = row
            ends[u] = b
        elif coeffs or b:
            return None
    x = [None] * ncols
    odd = [False] * ncols
    for top in range(ncols - 1, -1, -1):
        if x[top] is not None:
            continue
        x[top] = 0
        comp = [top]
        for u in comp:  # breadth first: comp grows while it is walked
            for w, b in nbrs[u]:
                if x[w] is None:
                    x[w] = b - x[u]
                    odd[w] = not odd[u]
                    comp.append(w)
        root = next((u for u in comp if u in ends), None)
        if root is not None:
            d = ends[root] - x[root]
            for u in comp:
                x[u] += d if odd[u] == odd[root] else -d
    for row, b in zip(rows, rhs):
        if sum(map(x.__getitem__, row)) != b:
            return None
    return [v.numerator if v.denominator == 1 else v for v in x]


def _solve_echelon(rows, rhs, ncols):
    """`solve_sparse` by fraction-free elimination, for any integer rows.

    A row with right hand side p/q is scaled by q and gets -p at column
    ncols.  Same contract as `solve_sparse`; it is also the reference the
    graph walk is tested against.
    """
    work = []
    for row, b in zip(rows, rhs):
        den = b.denominator
        work.append({c: v * den for c, v in row.items()})
        if b:
            work[-1][ncols] = -b.numerator
    pivot_of_col, rest = _echelon(work, ncols)
    inconsistent = [i for i in rest if work[i]]
    if inconsistent:
        return None, inconsistent
    y, den = _kernel_vector(work, pivot_of_col, ncols)
    return [_exact(y.get(c, 0), den) for c in range(ncols)], []


def _exact(n, den):
    """n / den as an int when it is one, else as a Fraction."""
    q, r = divmod(n, den)
    return Fraction(n, den) if r else q


def _echelon(work, ncols):
    """Fraction-free row echelon form of the rows in `work`, in place.

    work: list of {column: int} rows.  Columns 0..ncols-1 are scanned left
    to right; entries at column ncols ride along and never pivot.  Each
    column's pivot is the remaining row with the fewest entries below
    ncols, lowest index on ties; every other remaining row with an entry
    there becomes a*row - c*pivot with its content stripped.  Returns
    ({pivot column: row index}, ascending indices of the non-pivot rows),
    which then hold entries at column ncols only.
    """
    col_rows = {}
    for i, row in enumerate(work):
        for c in row:
            col_rows.setdefault(c, set()).add(i)
    active = set(range(len(work)))
    pivot_of_col = {}

    for col in range(ncols):
        cand = [i for i in col_rows.get(col, ()) if i in active]
        if not cand:
            continue
        piv = min(cand, key=lambda i: (len(work[i]) - (ncols in work[i]), i))
        active.discard(piv)
        pivot_of_col[col] = piv
        prow, pval = work[piv], work[piv][col]
        for i in cand:
            if i == piv:
                continue
            row = work[i]
            g = math.gcd(pval, row[col])
            if pval < 0:
                g = -g
            a, c = pval // g, row[col] // g
            # row <- a*row - c*prow, eliminating col; a > 0
            if a != 1:
                for k in row:
                    row[k] *= a
            # every entry of prow is registered in col_rows
            for pc, pv in prow.items():
                d = c * pv
                rv = row.get(pc)
                if rv is None:
                    row[pc] = -d
                    col_rows[pc].add(i)
                elif rv == d:
                    del row[pc]
                    col_rows[pc].discard(i)
                else:
                    row[pc] = rv - d
            g = math.gcd(*row.values())
            if g > 1:
                for k in row:
                    row[k] //= g
    return pivot_of_col, sorted(active)


def _kernel_vector(work, pivot_of_col, seed):
    """Integer kernel vector of the echelon rows, by back-substitution.

    Returns (y, den): y maps columns to nonzero ints with y[seed] = den > 0,
    every free column other than seed is zero, and y / den is the kernel
    vector that is 1 at seed.  Each pivot unknown costs one exact division;
    when it does not divide, y and den are scaled up to keep y integral.
    """
    y = {seed: 1}
    den = 1
    for col in sorted(pivot_of_col, reverse=True):
        row = work[pivot_of_col[col]]
        s = -sum(v * y[c] for c, v in row.items() if c in y)
        p = row[col]
        q, r = divmod(s, p)
        if r:
            g = math.gcd(s, p)
            m = abs(p) // g
            y = {c: v * m for c, v in y.items()}
            den *= m
            q = s // g if p > 0 else -s // g
        if q:
            y[col] = q
    return y, den
