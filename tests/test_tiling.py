import pytest

from nivatk import tiling
from nivatk.cli import run
from nivatk.errors import (
    DimensionMismatchError,
    NotPrimeError,
    RankDeficientError,
    VerificationFailedError,
)
from nivatk.lattice import Lattice, Window, vec_neg
from nivatk.laurent import apply
from nivatk.tiling import (
    ClusterTile,
    _is_polyomino,
    PeriodicCoTiler,
    TilingResult,
    prime_periodicity_check,
    search_periodic_cotiler,
    tile_polynomial,
    verify_cotiler,
)

from fast_paths import outcome



def tromino():
    return ClusterTile([(0, 0), (0, 1), (1, 0)])


def domino():
    return ClusterTile([(0, 0), (1, 0)])


def test_tile_canonical_translate():
    t = ClusterTile([(5, 7)])
    assert t.cells == ((0, 0),)
    t2 = ClusterTile([(2, 3), (3, 3), (2, 4)])
    assert t2.cells == ((0, 0), (0, 1), (1, 0))
    assert len(t2) == 3


def test_tile_input_checks():
    with pytest.raises(ValueError):
        ClusterTile([(0, 0), (0, 0)])
    with pytest.raises(DimensionMismatchError):
        ClusterTile([(0, 0, 0, 0)])
    with pytest.raises(ValueError):
        ClusterTile([])


def test_tile_reflection():
    t = ClusterTile(map(vec_neg, tromino().cells))
    assert t.cells == ((0, 1), (1, 0), (1, 1))
    assert ClusterTile(map(vec_neg, t.cells)) == tromino()


def test_tile_polynomial_is_indicator():
    f = tile_polynomial(tromino())
    assert sorted(f.terms) == [(0, 0), (0, 1), (1, 0)]
    assert all(c == 1 for c in f.terms.values())


def test_cotiler_requires_full_rank_and_distinct_residues():
    with pytest.raises(RankDeficientError):
        PeriodicCoTiler(Lattice([(1, 1)]), [(0, 0)])
    with pytest.raises(ValueError):
        PeriodicCoTiler(Lattice([(2, 0), (0, 2)]), [(0, 0), (2, 0)])


def test_cotiler_configuration_is_indicator():
    cot = PeriodicCoTiler(Lattice([(3, 0), (-2, 1)]), [(0, 0)])
    c = cot.configuration()
    hits = [(i, j) for i in range(-3, 4) for j in range(-3, 4)
            if c.value((i, j)) == 1]
    for v in hits:
        assert cot.lattice.contains(v)


def test_verify_valid_skew_cotiler_for_tromino():
    cot = PeriodicCoTiler(Lattice([(3, 0), (1, 1)]), [(0, 0)])
    res = verify_cotiler(tromino(), cot)
    assert bool(res)
    assert res.status == "Valid"


def test_verify_brick_wall_for_domino():
    cot = PeriodicCoTiler(Lattice([(2, 0), (1, 1)]), [(0, 0)])
    assert verify_cotiler(domino(), cot).status == "Valid"


def test_verify_overlap_and_gap():
    dense = PeriodicCoTiler(Lattice([(1, 0), (0, 1)]), [(0, 0)])
    res = verify_cotiler(domino(), dense)
    assert res.status == "Overlap"
    assert res.witness == (0, 0)
    sparse = PeriodicCoTiler(Lattice([(3, 0), (0, 1)]), [(0, 0)])
    res = verify_cotiler(domino(), sparse)
    assert res.status == "Gap"
    assert res.witness == (2, 0)


def test_cotiling_identity_on_window():
    cot = PeriodicCoTiler(Lattice([(3, 0), (1, 1)]), [(0, 0)])
    pat = apply(tile_polynomial(tromino()), cot.configuration(),
                Window.box((-4, -4), (4, 4)))
    assert set(pat.values.values()) == {1}


def test_search_tromino():
    cot = search_periodic_cotiler(tromino(), 3)
    assert cot is not None
    assert cot.lattice.basis() == ((3, 0), (1, 1))
    assert cot.residues == ((0, 0),)
    assert verify_cotiler(tromino(), cot).status == "Valid"


def test_search_square_tile():
    square = ClusterTile([(0, 0), (0, 1), (1, 0), (1, 1)])
    cot = search_periodic_cotiler(square, 8)
    assert cot is not None
    assert cot.lattice.basis() == ((2, 0), (0, 2))
    assert cot.residues == ((0, 0),)


def test_search_one_dimensional_gap_tile():
    t = ClusterTile([(0,), (2,)])
    cot = search_periodic_cotiler(t, 4)
    assert cot is not None
    assert cot.lattice.basis() == ((4,),)
    assert cot.residues == ((0,), (1,))
    assert verify_cotiler(t, cot).status == "Valid"


def test_search_exhausts_without_witness():
    t = ClusterTile([(0,), (1,), (3,)])
    assert search_periodic_cotiler(t, 9) is None


def test_search_reflected_tromino_also_tiles():
    reflected = ClusterTile([(0, 1), (1, 0), (1, 1)])
    cot = search_periodic_cotiler(reflected, 3)
    assert cot is not None
    assert verify_cotiler(reflected, cot).status == "Valid"


def test_prime_periodicity_tromino():
    cot = PeriodicCoTiler(Lattice([(3, 0), (1, 1)]), [(0, 0)])
    periods = prime_periodicity_check(tromino(), cot)
    assert periods == [(0, 3), (3, -3), (3, 0)]


def test_prime_periodicity_domino_brick():
    cot = PeriodicCoTiler(Lattice([(2, 0), (1, 1)]), [(0, 0)])
    assert prime_periodicity_check(domino(), cot) == [(2, 0)]


def test_prime_periodicity_rejects_composite_size():
    square = ClusterTile([(0, 0), (0, 1), (1, 0), (1, 1)])
    cot = PeriodicCoTiler(Lattice([(2, 0), (0, 2)]), [(0, 0)])
    with pytest.raises(NotPrimeError):
        prime_periodicity_check(square, cot)


def test_prime_periodicity_plain_configuration_needs_window():
    cot = PeriodicCoTiler(Lattice([(3, 0), (1, 1)]), [(0, 0)])
    config = cot.configuration()
    with pytest.raises(ValueError):
        prime_periodicity_check(tromino(), config)
    periods = prime_periodicity_check(
        tromino(), config, Window.box((-6, -6), (6, 6)))
    assert periods == [(0, 3), (3, -3), (3, 0)]


def test_the_checks_and_the_search_read_translates_not_the_descriptor(monkeypatch, capsys):
    skew = PeriodicCoTiler(Lattice([(3, 0), (1, 1)]), [(0, 0)])
    tall = PeriodicCoTiler(Lattice([(3, 0), (1, 10)]), [(0, 0)])
    box = Window.box((-6, -6), (6, 6))

    def answers():
        assert run(["examples"]) == 0
        return [verify_cotiler(tromino(), skew),
                verify_cotiler(domino(), PeriodicCoTiler(Lattice([(3, 0), (0, 1)]), [(0, 0)])),
                verify_cotiler(domino(), PeriodicCoTiler(Lattice([(1, 0), (0, 1)]), [(0, 0)])),
                *(outcome(prime_periodicity_check, tromino(), cot, window)
                  for cot in (skew, tall) for window in (None, box)),
                repr(search_periodic_cotiler(tromino(), 3)), capsys.readouterr().out]

    before = answers()
    monkeypatch.setattr(PeriodicCoTiler, "configuration", lambda self: pytest.fail("descriptor built"))
    assert answers() == before
    assert [r.status for r in before[:3]] == ["Valid", "Gap", "Overlap"]
    assert before[3:7] == [[(0, 3), (3, -3), (3, 0)]] * 2 + [VerificationFailedError] * 2


def test_a_search_hit_that_fails_re_verification_raises(monkeypatch):
    monkeypatch.setattr(tiling, "verify_cotiler", lambda tile, cot: TilingResult("Gap", (0, 0)))
    with pytest.raises(VerificationFailedError):
        search_periodic_cotiler(tromino(), 3)


def fixed_polyominoes(size):
    """Every edge-connected tile of the size, once per translation class."""
    grown = {ClusterTile([(0, 0)])}
    for _ in range(size - 1):
        grown = {
            ClusterTile([*t.cells, (x + dx, y + dy)])
            for t in grown for x, y in t.cells
            for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1))
            if (x + dx, y + dy) not in t.cells
        }
    return sorted(grown, key=lambda t: t.cells)


def test_polyomino_exit_matches_the_exhaustive_search(monkeypatch):
    tiles = [t for size in (3, 4, 5) for t in fixed_polyominoes(size)]
    assert len(tiles) == 88
    assert all(_is_polyomino(t) for t in tiles)
    early = [repr(search_periodic_cotiler(t, 3 * len(t))) for t in tiles]
    monkeypatch.setattr(tiling, "_is_polyomino", lambda tile: False)
    full = [repr(search_periodic_cotiler(t, 3 * len(t))) for t in tiles]
    assert early == full
    assert early.count("None") == 16


def test_search_stops_at_the_tile_size_for_a_polyomino(monkeypatch):
    indices = []
    real = tiling._hnf_bases

    def spy(dim, index):
        indices.append(index)
        return real(dim, index)

    monkeypatch.setattr(tiling, "_hnf_bases", spy)
    u_pentomino = ClusterTile([(0, 0), (0, 1), (1, 0), (2, 0), (2, 1)])
    assert search_periodic_cotiler(u_pentomino, 30) is None
    assert indices == [5]
    # a tile that is not a polyomino keeps the whole range
    indices.clear()
    assert search_periodic_cotiler(ClusterTile([(0,), (1,), (3,)]), 9) is None
    assert indices == [3, 6, 9]


@pytest.mark.parametrize("cells, polyomino", [
    ([(0, 0), (1, 1)], False),                                  # corner-touching pair
    ([(x, y) for x in range(3) for y in range(3) if (x, y) != (1, 1)], False),  # ring
    ([(0, 0), (1, 0), (0, 1), (0, 2), (1, 2), (2, 2), (2, 1)], False),  # pinched
    ([(0, 0), (0, 1), (1, 0)], True),                           # L-tromino
    ([(0, 0), (1, 0), (2, 0), (3, 0)], True),                   # straight line
    ([(0,), (1,)], False),                                      # 1-D
    ([(0, 0, 0), (1, 0, 0)], False),                            # 3-D
])
def test_polyomino_classification(cells, polyomino):
    assert _is_polyomino(ClusterTile(cells)) is polyomino


def test_far_apart_cells_are_rejected_before_the_hole_test(monkeypatch):
    floods = []
    reach = tiling._reach

    def spy(start, free):
        seen = reach(start, free)
        floods.append((len(free), len(seen)))
        return seen

    monkeypatch.setattr(tiling, "_reach", spy)
    assert not _is_polyomino(ClusterTile([(0, 0), (10**6, 0)]))
    # one flood over the 2 cells, which reaches 1; the hole test over 10**6 cells never runs
    assert floods == [(2, 1)]
