import math
import random
from fractions import Fraction

from nivatk.linalg import (
    _echelon,
    _solve_graph,
    integer_primitive,
    kernel_vector,
    nullspace_basis,
    solve_sparse,
)

from draws import random_matrix
from fast_paths import inconsistent_rows, dense_solution, random_graph_system, rref


def test_rref_identity_block():
    mat, pivots = rref([[2, 0, 4], [0, 3, 6]])
    assert pivots == [0, 1]
    assert mat == [[Fraction(1), Fraction(0), Fraction(2)],
                   [Fraction(0), Fraction(1), Fraction(2)]]


def test_rref_dependent_rows_drop():
    mat, pivots = rref([[1, 2], [2, 4], [3, 6]])
    assert pivots == [0]
    assert mat[0] == [Fraction(1), Fraction(2)]


def test_nullspace_of_augmented_pattern_rows():
    # rows (1, p(u1+a), p(u2+a)): two distinct augmented patterns
    rows = [[1, 0, 1, 1, 0], [1, 1, 0, 0, 1]]
    basis = nullspace_basis(rows)
    assert len(basis) == 3
    assert basis[0] == [-1, 1, 1, 0, 0]
    for vec in basis:
        for row in rows:
            assert sum(a * b for a, b in zip(row, vec)) == 0


def test_nullspace_full_rank_is_empty():
    assert nullspace_basis([[1, 0], [0, 1]]) == []
    assert nullspace_basis([]) == []
    assert kernel_vector([[1, 0], [0, 1]]) is None
    assert kernel_vector([]) is None


def _dense_kernel(rows):
    """Kernel basis from the dense reduced echelon form, each vector scaled
    to coprime integers."""
    mat, pivots = rref(rows)
    ncols = len(rows[0])
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            vec[pc] = -mat[i][fc]
        basis.append(integer_primitive(vec))
    return basis


def test_nullspace_matches_dense_rref_kernel():
    rng = random.Random(41)
    for _ in range(300):
        rows = random_matrix(rng)
        basis = nullspace_basis(rows)
        assert basis == _dense_kernel(rows)
        for vec in basis:
            assert all(type(x) is int for x in vec)
            assert math.gcd(*vec) == 1
            for row in rows:
                assert sum(a * b for a, b in zip(row, vec)) == 0


def test_integer_primitive():
    assert integer_primitive([Fraction(2, 3), Fraction(-4, 3), 0]) == [1, -2, 0]
    assert integer_primitive([Fraction(6), Fraction(9)]) == [2, 3]
    assert integer_primitive([-4, 6]) == [-2, 3]
    assert integer_primitive([0, 0]) == [0, 0]


def test_solve_sparse_simple_system():
    rows = [{0: 1, 1: 1}, {1: 2}]
    sol, bad = solve_sparse(rows, [3, 4], 2)
    assert bad == []
    assert sol == [1, 2]
    _assert_exact_types(sol)


def test_solve_sparse_reports_inconsistency():
    sol, bad = solve_sparse([{0: 1}, {0: 1}], [1, 2], 1)
    assert sol is None
    assert bad == [1]


def test_solve_sparse_free_variables_default_to_zero():
    sol, bad = solve_sparse([{0: 1, 2: 1}], [5], 3)
    assert bad == []
    assert sol == [Fraction(5), Fraction(0), Fraction(0)]


def test_solve_sparse_fraction_rhs_is_scaled_not_truncated():
    sol, bad = solve_sparse([{0: 2, 1: 1}, {1: 3}], [Fraction(1, 2), Fraction(-2, 3)], 2)
    assert bad == []
    assert sol == [Fraction(13, 36), Fraction(-2, 9)]


def _assert_exact_types(sol):
    """An integral value is an int, any other a Fraction."""
    for x in sol:
        assert type(x) is (int if x.denominator == 1 else Fraction)


def test_solve_sparse_inconsistent_rows_match_pivot_rule():
    # many rows over few columns: most systems are inconsistent, and which
    # rows are reported depends on the pivot row each column takes
    rng = random.Random(31)
    seen = 0
    for _ in range(300):
        ncols = rng.randint(1, 3)
        rows = [{j: rng.randint(-2, 2) for j in range(ncols) if rng.random() < 0.6}
                for _ in range(rng.randint(2, 12))]
        rows = [{j: v for j, v in row.items() if v} for row in rows]
        rhs = [rng.randint(-1, 1) for _ in rows]
        sol, bad = solve_sparse(rows, rhs, ncols)
        assert bad == inconsistent_rows(rows, rhs, ncols)
        assert (sol is None) == bool(bad)
        seen += len(bad) > 1
    assert seen > 50


def test_solve_sparse_pivot_ignores_rhs_entry():
    # equal coefficient counts tie on the row index, whatever the rhs is
    assert solve_sparse([{0: 1}, {0: 1}], [1, 0], 1) == (None, [1])
    assert solve_sparse([{0: 1}, {0: 1}], [0, 1], 1) == (None, [1])


def test_echelon_rows_stay_primitive():
    # every combined row has its content stripped, so entries stay small
    rng = random.Random(37)
    for _ in range(100):
        ncols = rng.randint(2, 7)
        work = []
        for _ in range(rng.randint(2, 8)):
            row = {j: rng.randint(-10**6, 10**6) for j in range(ncols + 1)
                   if rng.random() < 0.7}
            row = {j: v for j, v in row.items() if v}
            g = math.gcd(*row.values())
            work.append({j: v // g for j, v in row.items()} if g else row)
        _echelon(work, ncols)
        for row in work:
            assert math.gcd(*row.values()) in (0, 1)


def test_solve_sparse_graph_systems_match_the_references():
    rng = random.Random(43)
    walked = infeasible = odd_fallbacks = 0
    for _ in range(600):
        rows, rhs, ncols, walkable = random_graph_system(rng)
        sol, bad = solve_sparse(rows, rhs, ncols)
        assert (sol, bad) == dense_solution(rows, rhs, ncols)
        if sol is None:
            infeasible += 1
            continue
        _assert_exact_types(sol)
        # a consistent system without odd cycles never needs elimination
        graph = _solve_graph(rows, rhs, ncols)
        if walkable:
            assert graph == sol
            walked += 1
        elif graph is None:
            odd_fallbacks += 1
    assert walked > 150 and infeasible > 50 and odd_fallbacks > 10


def test_solve_graph_edge_cases():
    # an isolated column and an empty row with right hand side 0
    assert solve_sparse([{0: 1, 2: 1}, {}], [4, 0], 3) == ([4, 0, 0], [])
    # an empty row with a nonzero right hand side is the inconsistent row
    assert _solve_graph([{0: 1}, {}], [1, 2], 1) is None
    assert solve_sparse([{0: 1}, {}], [1, 2], 1) == (None, [1])
    # a path: its highest column is free, the others alternate from it
    assert solve_sparse([{0: 1, 1: 1}, {1: 1, 2: 1}], [5, 7], 3) == ([-2, 7, 0], [])
    # a one-entry row pins the component, whichever column it sits on
    assert solve_sparse([{0: 1, 1: 1}, {1: 1, 2: 1}, {0: 1}], [5, 7, 1], 3) == ([1, 4, 3], [])
    # a triangle (odd cycle) has one solution, found by elimination
    tri = [{0: 1, 1: 1}, {1: 1, 2: 1}, {0: 1, 2: 1}]
    assert _solve_graph(tri, [3, 5, 4], 3) is None
    assert solve_sparse(tri, [3, 5, 4], 3) == ([1, 2, 3], [])
    # ... unless the walk from 0 happens to meet it
    assert _solve_graph(tri, [3, 2, 1], 3) == [1, 2, 0]
    # half-integers stay Fractions, integers come back as ints
    sol, _ = solve_sparse(tri, [1, 1, 1], 3)
    assert sol == [Fraction(1, 2)] * 3 and type(sol[0]) is Fraction
    sol, _ = solve_sparse([{0: 1, 1: 1}], [Fraction(4, 2)], 2)
    assert sol == [2, 0] and all(type(x) is int for x in sol)
    # coefficients other than 1 are not a graph
    assert _solve_graph([{0: 2}], [2], 1) is None
    assert _solve_graph([{0: 1, 1: -1}], [0], 2) is None
