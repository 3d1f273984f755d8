"""Every fast path of nivatk has a row in the differential table.

FAST_PATHS lists the dotted names, under nivatk, of the functions and
methods that have a fast path.  Each must import, so a rename fails here,
and each must be the id of a row of fast_paths.ROWS, which checks it
against its slow reference over seeded draws.  Every module the rows name
must bind its tests, or their seeds would never run.  Adding an oracle
takes one row there and one name here; a row no older test held runs
here, as a case of test_fast_path_matches_reference.
"""

import functools
import importlib
from pathlib import Path

from fast_paths import ROWS, net

globals().update(net(__name__))  # this module's tests that are rows of fast_paths.ROWS

FAST_PATHS = [
    "annihilator.find_annihilator",
    "annihilator.search_difference_annihilator",
    "configurations.CosetIndicator.block",
    "configurations.FiniteSupport.block",
    "configurations.Mechanical.block",
    "configurations.Periodic.block",
    "configurations.Sum.block",
    "configurations.ValueMap.block",
    "configurations.pattern_complexity",
    "configurations.residue_representatives",
    "configurations.support_anchors",
    "decomposition._repeats",
    "decomposition.difference",
    "decomposition.difference_vanishes",
    "decomposition.integrate",
    "laurent.LaurentPolynomial.__mul__",
    "laurent._upoly_prem",
    "laurent.apply",
    "laurent.periodicity_test",
    "linalg._solve_graph",
    "linalg.solve_sparse",
    "nivat.line_pattern_census",
    "nivat.nivat_scan",
    "tiling.search_periodic_cotiler",
]

TESTS = Path(__file__).resolve().parent


def test_every_fast_path_imports():
    for name in FAST_PATHS:
        module, *attrs = name.split(".")
        assert callable(functools.reduce(getattr, attrs, importlib.import_module(f"nivatk.{module}"))), name


def test_every_fast_path_has_a_row_and_every_row_a_fast_path():
    assert sorted(FAST_PATHS) == sorted({row.id for row in ROWS})
    assert all(row.seeds for row in ROWS)


def test_every_module_the_rows_name_binds_its_tests():
    named = {test.partition("::")[0] for row in ROWS for test, *_ in row.seeds}
    assert named == {path.stem for path in TESTS.glob("test_*.py")
                     if "\nglobals().update(net(__name__))" in path.read_text(encoding="utf-8")}
