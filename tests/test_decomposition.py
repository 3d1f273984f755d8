import itertools
import random

import pytest

from nivatk import decomposition
from nivatk.configurations import FiniteSupport, Pattern, Periodic, Sum, extract_pattern
from nivatk.decomposition import decompose, difference, integrate
from nivatk.errors import (
    DimensionMismatchError,
    EmptyResultError,
    InfeasibleError,
    VerificationFailedError,
    WindowTooSmallError,
    ZeroVectorError,
)
from nivatk.lattice import Lattice, Window, vec_add, vec_sub
from nivatk.linalg import _solve_echelon

from draws import (
    CORES,
    STEP_POOLS,
    binary_irrational,
    checkerboard,
    periodic_part,
    periodic_sums,
    rand_steps,
    two_lines_3d,
)


def ramp_pattern():
    w = Window.box((0,), (9,))
    return Pattern(w, [p[0] for p in w])


def test_difference_of_ramp_is_constant():
    d = difference(ramp_pattern(), (1,))
    assert d.shape.bounds() == ((1,), (9,))
    assert d.constant_value() == -1


def test_difference_empty_overlap():
    p = Pattern(Window.box((0,), (0,)), [3])
    with pytest.raises(EmptyResultError):
        difference(p, (1,))
    with pytest.raises(ZeroVectorError):
        difference(p, (0,))


def test_difference_kills_periodic_direction():
    c = checkerboard()
    pat = extract_pattern(c, (0, 0), Window.box((0, 0), (5, 5)))
    d = difference(pat, (1, 1))
    assert d.is_zero()


def test_integrate_constant_gives_ramp():
    w = Window.box((0,), (9,))
    d = Pattern(w, [1] * len(w))
    o = integrate(d, (1,))
    assert [o.values[(k,)] for k in range(10)] == [0] + [-k for k in range(1, 10)]


def test_integrate_inverts_difference_on_interior():
    rng = random.Random(2)
    w = Window.box((0, 0), (6, 6))
    p = Pattern(w, [rng.randint(-5, 5) for u in w])
    v = (1, 0)
    d = difference(p, v)
    o = integrate(Pattern(w, [d.values.get(u, 0) for u in w]), v)
    # integration recovers p up to a v-periodic offset; differencing again
    # reproduces d on its domain
    dd = difference(o, v)
    for u in d.shape:
        assert dd.values[u] == d.values[u]


def test_integrate_requires_box():
    p = Pattern(Window.from_points([(0,), (2,)]), [1, 2])
    with pytest.raises(ValueError):
        integrate(p, (1,))


def stripes():
    # c(i,j) = (i % 2) + (j % 2)
    return Periodic(
        Lattice([(2, 0), (0, 2)]),
        {(0, 0): 0, (1, 0): 1, (0, 1): 1, (1, 1): 2},
    )


def test_decompose_stripes_two_components():
    c = stripes()
    core = Window.box((0, 0), (11, 11))
    dec = decompose(c, [(0, 1), (1, 0)], core)
    assert dec.residual_check
    assert dec.integral
    assert len(dec.components) == 2
    comp0, comp1 = dec.components
    # canonical solver output: the (0,1)-periodic part carries the i-stripes
    # shifted up by one, the (1,0)-periodic part compensates
    assert [comp0.values[(i, 0)] for i in range(4)] == [1, 2, 1, 2]
    assert [comp1.values[(0, j)] for j in range(4)] == [-1, 0, -1, 0]
    for (i, j) in core:
        assert comp0.values[(i, j)] == comp0.values[(i, 0)]
        assert comp1.values[(i, j)] == comp1.values[(0, j)]
        assert comp0.values[(i, j)] + comp1.values[(i, j)] == c.value((i, j))


def test_decompose_single_vector_reproduces_configuration():
    c = checkerboard()
    core = Window.box((0, 0), (7, 7))
    dec = decompose(c, [(1, 1)], core)
    assert len(dec.components) == 1
    assert dec.integral
    for u in core:
        assert dec.components[0].values[u] == c.value(u)


def test_decompose_component_sum_matches_window():
    c = stripes()
    core = Window.box((-3, -3), (3, 3))
    dec = decompose(c, [(0, 1), (1, 0)], core)
    total = dec.component_sum()
    for u in core:
        assert total.values[u] == c.value(u)


def test_decompose_rejects_non_annihilating_steps():
    with pytest.raises(VerificationFailedError):
        decompose(checkerboard(), [(1, 0)], Window.box((0, 0), (5, 5)))


def test_decompose_rejects_degenerate_vectors():
    c = checkerboard()
    core = Window.box((0, 0), (5, 5))
    with pytest.raises(ZeroVectorError):
        decompose(c, [(0, 0)], core)
    with pytest.raises(DimensionMismatchError):
        decompose(c, [(1, 0, 0)], core)


def test_decompose_explicit_halo_must_cover():
    c = checkerboard()
    core = Window.box((0, 0), (5, 5))
    with pytest.raises(WindowTooSmallError):
        decompose(c, [(1, 1)], core, halo=Window.box((0, 0), (2, 2)))


def old_halo_box(core, vectors):
    """The core grown by each step's extent, coordinate by coordinate."""
    lo, hi = list(core.lo), list(core.hi)
    for v in vectors:
        for k, x in enumerate(v):
            if x < 0:
                lo[k] += x
            else:
                hi[k] += x
    return Window.box(tuple(lo), tuple(hi))


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_default_halo_is_the_core_grown_by_every_step(dim, monkeypatch):
    rng = random.Random(60 + dim)
    c = Periodic(Lattice([tuple(int(i == j) for j in range(dim)) for i in range(dim)]),
                 {(0,) * dim: 7})
    seen = []
    real = decomposition.annihilates
    monkeypatch.setattr(decomposition, "annihilates",
                        lambda f, c, w: seen.append(w) or real(f, c, w))
    for _ in range(12):
        vs = rand_steps(rng, dim, rng.randint(1, 4))
        lo = tuple(rng.randint(-3, 3) for _ in range(dim))
        core = Window.box(lo, tuple(x + rng.randint(0, 2) for x in lo))
        want = old_halo_box(core, vs)
        seen.clear()
        dec = decompose(c, vs, core)
        assert seen == [want]
        assert decompose(c, vs, core, halo=want) == dec
        # one cell short on either side of any axis the halo spans
        for k in (k for k in range(dim) if want.lo[k] < want.hi[k]):
            for side, step in ((0, 1), (1, -1)):
                short = [list(want.lo), list(want.hi)]
                short[side][k] += step
                with pytest.raises(WindowTooSmallError):
                    decompose(c, vs, core, halo=Window.box(*map(tuple, short)))


def test_decompose_three_directions_on_irrational_sum():
    c = binary_irrational()
    core = Window.box((0, 0), (19, 19))
    dec = decompose(c, [(1, 0), (0, 1), (1, -1)], core)
    assert dec.residual_check
    assert dec.integral
    assert len(dec.components) == 3


def test_decompose_component_growth_is_unbounded():
    # window decompositions exist at every size, but the component values
    # must grow: no decomposition into bounded periodic parts exists
    c = binary_irrational()
    growth = []
    for hi in (9, 19, 29):
        dec = decompose(c, [(1, 0), (0, 1), (1, -1)],
                        Window.box((0, 0), (hi, hi)))
        growth.append(max(max(map(abs, comp.cells)) for comp in dec.components))
    assert growth == [7, 15, 34]
    assert growth[0] < growth[1] < growth[2]


def test_decompose_3d_two_lines():
    c = two_lines_3d()
    core = Window.box((-4, -4, -4), (4, 4, 4))
    dec = decompose(c, [(1, 0, 0), (0, 1, 0)], core)
    assert dec.residual_check
    assert dec.integral
    nonzero = [sum(1 for v in comp.values.values() if v != 0)
               for comp in dec.components]
    assert nonzero == [9, 9]  # one full line of the core each


def test_decompose_random_periodic_sums():
    rng = random.Random(31)
    core = Window.box((0, 0), (11, 11))
    for _ in range(10):
        vecs = rng.sample([(1, 0), (0, 1), (1, 1), (1, -1)], rng.randint(1, 3))
        parts = []
        for v in vecs:
            w = (-v[1], v[0])
            lat = Lattice([v, (2 * w[0], 2 * w[1])]) if v[0] * w[1] - v[1] * w[0] else None
            assert lat is not None
            vals = {r: rng.randint(-3, 3) for r in lat.residues()}
            parts.append((1, Periodic(lat, vals)))
        c = Sum(parts)
        dec = decompose(c, vecs, core)
        assert dec.residual_check
        assert dec.integral
        total = dec.component_sum()
        for u in core:
            assert total.values[u] == c.value(u)
        for comp, v in zip(dec.components, dec.vectors):
            for u in core:
                t = vec_add(u, v)
                if t in core:
                    assert comp.values[t] == comp.values[u]


def walk_back_decomposition(c, vectors, core):
    """Reference: name each unknown by walking its cell's line back, one
    cell at a time, while it stays in the core; solve the whole system by
    elimination.

    Returns the component value maps, or the InfeasibleError equations.
    """
    cells = list(core)

    def entry(u, v):
        while vec_sub(u, v) in core:
            u = vec_sub(u, v)
        return u

    col_of = {}
    for i, v in enumerate(vectors):
        for r in sorted({entry(u, v) for u in cells}):
            col_of[(i, r)] = len(col_of)
    rows = [{col_of[(i, entry(u, v))]: 1 for i, v in enumerate(vectors)} for u in cells]
    rhs = [c.value(u) for u in cells]
    solution, bad = _solve_echelon(rows, rhs, len(col_of))
    if solution is None:
        return [(cells[i], rhs[i]) for i in bad]
    return [{u: solution[col_of[(i, entry(u, v))]] for u in cells}
            for i, v in enumerate(vectors)]


def test_decompose_explicit_core_with_gaps_matches_walk_back():
    # a line that leaves an explicit core and re-enters it gets a second
    # unknown; a lexicographically negative step is walked the other way
    c = binary_irrational()
    rng = random.Random(37)
    box = list(Window.box((0, 0), (7, 7)))
    cores = [Window.from_points([u for u in box if u not in {(2, 2), (3, 5), (5, 1)}])]
    cores += [Window.from_points(rng.sample(box, 40)) for _ in range(6)]
    for vectors in ([(1, 0), (0, 1), (-1, 1)], [(0, -1), (1, 0), (1, -1)]):
        for core in cores:
            want = walk_back_decomposition(c, vectors, core)
            try:
                dec = decompose(c, vectors, core)
            except InfeasibleError as exc:
                assert exc.equations == want
                continue
            assert [comp.values for comp in dec.components] == want
            assert dec.residual_check


def record_stencil_solves(monkeypatch):
    """Patch decomposition._stencil_solve to log each of its results."""
    results = []
    stencil = decomposition._stencil_solve

    def recorded(*args):
        results.append(stencil(*args))
        return results[-1]

    monkeypatch.setattr(decomposition, "_stencil_solve", recorded)
    return results


def parallel(u, v):
    return all(a * d == b * c for (a, b), (c, d) in itertools.combinations(zip(u, v), 2))


@pytest.mark.parametrize("dim", [2, 3])
def test_decompose_matches_the_full_system_oracle(dim, monkeypatch):
    results = record_stencil_solves(monkeypatch)
    for c, vecs, core in periodic_sums(random.Random(53 + dim), dim):
        want = walk_back_decomposition(c, vecs, core)
        dec = decompose(c, vecs, core)
        assert [comp.values for comp in dec.components] == want
        assert dec.residual_check
        assert dec.integral == all(x.denominator == 1 for comp in want for x in comp.values())
        if len(vecs) > 2 and not parallel(vecs[0], vecs[1]):
            # on a box the stencils of two independent steps answer alone
            assert results[-1] is not None


@pytest.mark.parametrize("vecs", [
    [(0, 1), (0, 1)],
    [(1, -1), (-1, 1)],
    [(1, 1), (1, 1), (0, 1)],
    [(1, 0), (-1, 0), (0, -1), (1, 1)],
    [(0, 1, 0), (0, -1, 0), (1, 0, 1)],
    [(1, 0), (-1, 0), (0, 1)],
    [(2, -1), (-2, 1), (1, 1), (0, 1)],
    [(1, 1, 0), (-1, -1, 0), (0, 0, 1)],
])
def test_decompose_repeated_and_opposite_steps(vecs):
    rng = random.Random(59)
    c = Sum([(1, periodic_part(rng, v)) for v in vecs])
    core = CORES[len(vecs[0])]
    dec = decompose(c, vecs, core)
    assert [comp.values for comp in dec.components] == walk_back_decomposition(c, vecs, core)


def test_decompose_falls_back_when_the_stencil_back_solve_fails(monkeypatch):
    # on a core with gaps the stencils need not span the kernel of the
    # first two directions' rows; the full system then answers
    c = binary_irrational()
    results = record_stencil_solves(monkeypatch)
    rng = random.Random(37)
    box = list(Window.box((0, 0), (7, 7)))
    vectors = [(1, 0), (0, 1), (-1, 1)]
    core = Window.from_points(rng.sample(box, 58))
    dec = decompose(c, vectors, core)
    assert results == [None]
    assert [comp.values for comp in dec.components] == walk_back_decomposition(c, vectors, core)
    assert dec.residual_check


@pytest.mark.parametrize("dim", [2, 3])
def test_decompose_infeasible_equations_match_the_oracle(dim, monkeypatch):
    # every annihilated configuration decomposes on its core, so the check
    # is switched off to hand the solver right hand sides it cannot meet
    monkeypatch.setattr(decomposition, "annihilates", lambda f, c, window: True)
    rng = random.Random(61 + dim)
    core = CORES[dim]
    cells = list(core)
    for m in (1, 2, 3, 4):
        for _ in range(3):
            vecs = rand_steps(rng, dim, m, STEP_POOLS[dim])
            c = FiniteSupport({u: rng.randint(1, 3) for u in rng.sample(cells, 5)}, dim)
            want = walk_back_decomposition(c, vecs, core)
            assert isinstance(want, list) and isinstance(want[0], tuple)
            with pytest.raises(InfeasibleError) as exc:
                decompose(c, vecs, core)
            assert exc.value.equations == want
