"""Block-complexity lower bounds, empirical scanning, and periodicity classes.

The bound calculators are exact rational formula evaluations keyed by the
extents (m, n) of an annihilator's support box and the block size (M, N).
The scanner counts distinct M x N blocks over a sample with early exit,
reporting per-block verdicts against the M*N threshold; a sampled count is
always a certified lower bound, never an upper one.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from fractions import Fraction

from .configurations import (
    Configuration,
    Periodic,
    _strides,
    count_distinct,
    covering_pattern,
    support_anchors,
    window_values,
)
from .errors import (
    BlockTooSmallError,
    DegenerateDirectionError,
    DimensionMismatchError,
    NonPrimitiveError,
    ParallelDirectionsError,
    ZeroAreaError,
)
from .lattice import (
    Window,
    canonical_sign,
    checked_step,
    is_zero_vector,
    primitive_vector,
    vec_dot,
    vec_scale,
    vec_sub,
)
from .laurent import LaurentPolynomial, LineFactorization, periodicity_test


def bound_disjoint_lines(m: int, n: int, M: int, N: int) -> int:
    """Lower bound M*n + m*N + m*n on the number of disjoint block lines."""
    if m < 0 or n < 0 or M < 0 or N < 0:
        raise ValueError("extents must be nonnegative")
    if m == 0 and n == 0:
        raise DegenerateDirectionError("direction extents are both zero")
    return M * n + m * N + m * n


def bound_line_size(m: int, n: int, M: int, N: int, S: int) -> Fraction:
    """Strict lower bound (M*n + m*N)/S on patterns per block line."""
    if m < 0 or n < 0 or M < 0 or N < 0:
        raise ValueError("extents must be nonnegative")
    if S == 0:
        raise ZeroAreaError("direction pair spans no area")
    if S < 0:
        raise ValueError("S must be positive")
    return Fraction(M * n + m * N, S)


def bound_two_directions(v1, v2, M: int, N: int) -> Fraction:
    """Two-direction block count bound from the box extents of v1 and v2.

    With (m_i, n_i) the extents of v_i, the value is
    (M*n1 + m1*N)(M*n2 + m2*N) / (m1*n2 + m2*n1); it reads as a strict
    lower bound on the complexity of the (M+m1+m2) x (N+n1+n2) block.
    Symmetric in the two directions.
    """
    v1, v2 = checked_step(v1, 2, "direction"), checked_step(v2, 2, "direction")
    if M < 0 or N < 0:
        raise ValueError("block extents must be nonnegative")
    for v in (v1, v2):
        if primitive_vector(v) not in (v, vec_scale(-1, v)):
            raise NonPrimitiveError(f"{v} is not primitive")
    if v1[0] * v2[1] - v1[1] * v2[0] == 0:
        raise ParallelDirectionsError(f"{v1} and {v2} are parallel")
    m1, n1 = abs(v1[0]), abs(v1[1])
    m2, n2 = abs(v2[0]), abs(v2[1])
    return _two_direction_value(m1, n1, m2, n2, M, N)


def _two_direction_value(m1, n1, m2, n2, M, N) -> Fraction:
    """(M*n1 + m1*N)(M*n2 + m2*N) / (m1*n2 + m2*n1), unchecked."""
    return Fraction((M * n1 + m1 * N) * (M * n2 + m2 * N), m1 * n2 + m2 * n1)


@dataclass
class BoundReport:
    M: int
    N: int
    bbox_f: tuple
    bounds: list
    directions: tuple
    alpha: Fraction | None = None
    best: tuple | None = None
    conditional: tuple = ()
    pair_bounds: tuple = ()


def corollary_report(f: LaurentPolynomial, lf: LineFactorization | None,
                     M: int, N: int) -> BoundReport:
    """Collect the applicable block-complexity bounds for an M x N block.

    cor-a, value (M-m)(N-n), always applies once the block fits the
    annihilator's support box (m, n).  cor-b-pair applies per pair of line
    factor directions that are both off-axis, re-indexed to the same block
    size.  cor-c, value 2(M-m)(N-n), applies when at least three line
    directions are present; it is conditional on the direction count
    agreeing with the true one-periodic direction count, which this module
    never claims to know exactly.
    """
    if f.dim != 2:
        raise DimensionMismatchError("bound reports are two-dimensional")
    m, n = f.bbox()
    if M < m or N < n:
        raise BlockTooSmallError(
            f"{M}x{N} block cannot contain the (m,n)=({m},{n}) support box")

    base = Fraction((M - m) * (N - n))
    bounds = [("cor-a", base)]
    conditional = []
    dirs = tuple(lf.directions) if lf is not None else ()

    pair_bounds = []
    for v1, v2 in itertools.combinations(dirs, 2):
        if v1[0] == 0 or v1[1] == 0 or v2[0] == 0 or v2[1] == 0:
            continue
        m1, n1 = abs(v1[0]), abs(v1[1])
        m2, n2 = abs(v2[0]), abs(v2[1])
        val = _two_direction_value(m1, n1, m2, n2, M - m1 - m2, N - n1 - n2)
        bounds.append(("cor-b-pair", val))
        pair_bounds.append(((v1, v2), val))

    alpha = None
    if pair_bounds and base > 0:
        alpha = max(val for _, val in pair_bounds) / base

    if lf is not None and len(lf.factors) >= 3:
        bounds.append(("cor-c", 2 * base))
        conditional.append("cor-c")

    best = max(bounds, key=lambda b: b[1])
    return BoundReport(
        M=M, N=N, bbox_f=(m, n), bounds=bounds, directions=dirs,
        alpha=alpha, best=best, conditional=tuple(conditional),
        pair_bounds=tuple(pair_bounds))


@dataclass
class ScanRow:
    M: int
    N: int
    lower_bound_count: int
    threshold: int
    verdict: str  # "ExceedsMN" | "Inconclusive"


def nivat_scan(c: Configuration, M_range, N_range, sample: Window) -> list:
    """Sampled block-count audit over a grid of block sizes.

    For every (M, N) the count of distinct M x N blocks anchored in the
    sample is accumulated until it exceeds M*N (verdict ExceedsMN) or the
    sample is exhausted (verdict Inconclusive, count = full sampled value).
    Inconclusive never asserts the threshold is met globally.  The keyed
    anchors are support_anchors' (anchors meeting the sample's residue
    classes of a full rank c.periods(), a box of a box sample, and of those
    only the ones whose largest block meets c.support() and one that does
    not), which leaves every count unchanged.  A box of them is counted
    one block size at a time over a square of it, at its corner, refilled
    at twice the side while a size has seen at most M*N blocks
    (_strip_counts), so an early exit reads cells by its answer, not by
    the sample's width.
    Other anchors share one box pattern covering the largest block at
    each, or those blocks stacked when spread (covering_pattern).  Rows
    come in M-major order.
    """
    Ms = list(map(operator.index, M_range))
    Ns = list(map(operator.index, N_range))
    if not Ms or not Ns:
        raise ValueError("scan ranges must be nonempty")
    if min(Ms) < 1 or min(Ns) < 1:
        raise ValueError("block extents must be positive")
    if c.dim != 2 or sample.dim != 2:
        raise DimensionMismatchError("scan works on two-dimensional data")

    largest = Window.box((0, 0), (max(Ms) - 1, max(Ns) - 1))
    anchors = support_anchors(c, largest, sample)
    if anchors.is_box:
        counts = _strip_counts(c, Ms, Ns, anchors)
    else:
        table, at = covering_pattern(c, largest, anchors)
        counts = {(M, N): count_distinct(table.keys(Window.box((0, 0), (M - 1, N - 1)), at),
                                         M * N) for M in Ms for N in Ns}
    return [ScanRow(M, N, counts[M, N], M * N,
                    "ExceedsMN" if counts[M, N] > M * N else "Inconclusive") for M in Ms for N in Ns]


def _strip_counts(c: Configuration, Ms, Ns, anchors: Window) -> dict:
    """count_distinct of the M x N blocks at every anchor of a box, per (M, N).

    A row segment of length n > 1 is named by the id of the pair (name of
    its first n - 1 cells, its last value), one table per n (Karp, Miller
    and Rosenberg, STOC 1972); an M x N block is the column of M names of
    length N at its anchor.  The sizes are counted N by N in increasing
    order, each on a key set of its own, over the rows' values and their
    names of length N only.  The anchors are filled, with the halo of the
    largest block, in a square at the box's corner, the first max(Ms) x
    max(Ns) cut to the box.  A size keys the square row by row; while it
    has at most M*N keys and the square is not the whole box, the square
    doubles along both axes, cut to the box, and is refilled in one block
    and named from length 1 on the same tables, so that equal segments keep
    equal names, and keyed again whole into the same key set.  The count is
    min(len(keys), M*N + 1), which no order of the anchors, and no anchor
    keyed twice, changes: an early exit fills only the square it reads.
    """
    (x0, y0), (x1, y1) = anchors.bounds()
    height, width, tall, wide = x1 - x0 + 1, y1 - y0 + 1, max(Ms), max(Ns)
    tables, ids = [{} for _ in range(wide)], itertools.count()

    def filled(h, w):
        """The rows of values under an h x w square of anchors and its halo."""
        span = w + wide - 1
        cells = c.block((x0, y0), (x0 + h + tall - 2, y0 + span - 1))
        return [cells[j:j + span] for j in range(0, len(cells), span)]

    def named(rows, names, k, n):
        """The rows' names of length n, from their names of length k."""
        for k in range(k, n):
            names = [list(map(tables[k].setdefault, zip(prev, row[k:]), ids))
                     for prev, row in zip(names, rows)]
        return names

    h, w = min(tall, height), min(wide, width)  # the filled square of anchors
    rows = names = filled(h, w)  # at n = 1 a row is its own names
    n, counts = 1, {}
    for N in sorted(set(Ns)):
        names, n = named(rows, names, n, N), N
        for M in set(Ms):
            keys = set()
            while True:
                for i in range(h):
                    keys.update(itertools.islice(zip(*names[i:i + M]), w))
                    if len(keys) > M * N:
                        break
                if len(keys) > M * N or (h, w) == (height, width):
                    break
                h, w = min(2 * h, height), min(2 * w, width)
                rows = filled(h, w)
                names = named(rows, rows, 1, N)
            counts[M, N] = min(len(keys), M * N + 1)
    return counts


def scan_csv(rows) -> str:
    """CSV rendering of scan rows: M,N,count,threshold,verdict."""
    out = ["M,N,count,threshold,verdict"]
    for r in rows:
        out.append(f"{r.M},{r.N},{r.lower_bound_count},{r.threshold},{r.verdict}")
    return "\n".join(out) + "\n"


def _line_groups(c: Configuration, shape: Window, v, sample: Window) -> dict:
    """Pattern keys of the sample anchors, grouped by line w + Zv.

    Anchor a lies on the line of w = a - (a[i] // step[i]) * step, with i
    the first axis where step is nonzero.  Each anchor gets a label in
    sample order, and each line's labels are named once: with a full rank
    c.periods() of index at most the sample's size, a Periodic fill of
    class numbers, each class keyed once at its cell of the lattice's
    residue_box(); otherwise its position, named by its own key.  A box
    sample meets a line in one run, one strided slice of the labels; an
    explicit sample groups its labels anchor by anchor.
    """
    if shape.dim != c.dim or sample.dim != c.dim:
        raise DimensionMismatchError("shape/sample vs configuration")
    step = canonical_sign(checked_step(v, c.dim, "census direction"))
    i = next(k for k, x in enumerate(step) if x)
    lattice = c.periods()
    if lattice is None or not lattice.is_full_rank or lattice.index() > len(sample):
        anchors, labels = sample, range(len(sample))
    else:
        anchors = lattice.residue_box()
        labels = window_values(Periodic(lattice, {r: k for k, r in enumerate(anchors)}), sample)
    table, at = covering_pattern(c, shape, anchors)
    names = list(table.keys(shape, at))
    points, groups = sample, {}
    if sample.is_box:
        # a line enters the box at the anchor a with a - step outside it: a
        # cell outside box & (box + step), listed by its first axis k outside
        lo, hi = sample.bounds()
        ranges = [range(a, b + 1) for a, b in zip(lo, hi)]
        inner = [range(max(a, a + x), min(b, b + x) + 1) for a, b, x in zip(lo, hi, step)]
        points = list(itertools.chain.from_iterable(itertools.product(
            *inner[:k], [y for y in ranges[k] if y not in inner[k]], *ranges[k + 1:])
            for k in range(c.dim)))
    cols = list(zip(*points))
    ts = list(map(operator.floordiv, cols[i], itertools.repeat(step[i])))
    reps = zip(*(map(operator.sub, col, map(operator.mul, ts, itertools.repeat(x)))
                 for col, x in zip(cols, step)))
    if sample.is_box:
        strides = _strides(ranges)
        fstep = vec_dot(step, strides)
        starts = map(vec_dot, map(vec_sub, points, itertools.repeat(lo)), itertools.repeat(strides))
        # moves after the first anchor: the fewest any axis allows before leaving the box
        ends = (b if x > 0 else a for a, b, x in zip(lo, hi, step))
        moves = map(min, zip(*(map(operator.floordiv, map(operator.sub, itertools.repeat(e), col),
                                   itertools.repeat(x)) for e, col, x in zip(ends, cols, step) if x)))
        # sample order is lexicographic, so fstep > 0 once a line has two anchors
        for rep, start, n in zip(reps, starts, moves):
            groups[rep] = set(labels[start:start + (n + 1) * fstep:fstep]) if n else {labels[start]}
    else:
        for rep, label in set(zip(reps, labels)):
            groups.setdefault(rep, set()).add(label)
    return {rep: set(map(names.__getitem__, ks)) for rep, ks in groups.items()}


def line_pattern_census(c: Configuration, shape: Window, v, sample: Window):
    """Distinct shape-pattern counts per anchor line in direction v.

    Anchors of the sample are grouped into lines w + Zv; each line reports
    how many distinct patterns it shows.  Returned sorted by the line's
    canonical representative.
    """
    groups = _line_groups(c, shape, v, sample)
    return sorted((rep, len(keys)) for rep, keys in groups.items())


def disjoint_pattern_line_count(c: Configuration, shape: Window, v, sample: Window) -> int:
    """Greedy count of lines with pairwise disjoint pattern sets.

    Lines are visited in canonical order and kept only when their pattern
    set avoids everything already kept, so the result is a deterministic
    lower bound; it is exact whenever distinct lines have identical or
    disjoint pattern sets, the situation the censused bounds address.
    """
    groups = _line_groups(c, shape, v, sample)
    used: set = set()
    kept = 0
    for rep in sorted(groups):
        patterns = groups[rep]
        if patterns & used:
            continue
        used |= patterns
        kept += 1
    return kept


@dataclass
class PeriodicityClassReport:
    label: str  # DoublyPeriodicCandidate | OnePeriodicCandidate | NonPeriodicCandidate | Unknown
    certain: bool
    direction_count: int | None
    verified_periods: tuple = ()


_LABELS = ("DoublyPeriodicCandidate", "OnePeriodicCandidate", "NonPeriodicCandidate")


def periodicity_class(search_result=None, lf: LineFactorization | None = None,
                      config: Configuration | None = None, periods=(),
                      sample: Window | None = None) -> PeriodicityClassReport:
    """Classify periodicity from direction counts and exact period tests.

    The direction count of an annihilator(s) upper-bounds the number of
    one-periodic directions, so 0 maps to a doubly periodic candidate, 1 to
    one-periodic, 2+ to non-periodic.  Candidate labels only firm up when
    supplied period vectors re-verify exactly against the configuration:
    one exact period upgrades to a certain OnePeriodic call (overriding the
    proxy), two independent ones to a certain DoublyPeriodic call.
    """
    dirs = None
    if search_result is not None:
        dirs = {canonical_sign(primitive_vector(tuple(v))) for v in search_result}
    if lf is not None:
        lf_dirs = set(lf.directions)
        dirs = lf_dirs if dirs is None else dirs & lf_dirs

    confirmed = []
    if periods:
        if config is None:
            raise ValueError("period vectors need the configuration to verify against")
        for v in periods:
            v = tuple(map(operator.index, v))
            if periodicity_test(config, v, sample).status == "periodic":
                confirmed.append(v)

    count = None if dirs is None else len(dirs)
    if confirmed:
        # exact periods read as a direction count of 0 when independent, else 1
        k = 0 if _rank_at_least_2(confirmed) else 1
    elif count is None:
        return PeriodicityClassReport("Unknown", False, None)
    else:
        k = count
    return PeriodicityClassReport(_LABELS[min(k, 2)], bool(confirmed), count, tuple(confirmed))


def _rank_at_least_2(vectors) -> bool:
    dirs = {canonical_sign(primitive_vector(v)) for v in vectors if not is_zero_vector(v)}
    return len(dirs) >= 2
