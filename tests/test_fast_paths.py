"""The differential net as one test: a case for every seed of fast_paths.ROWS.

A seed runs as the case row.id/seed of test_fast_path_matches_reference.
Where rows share an id and a seed, as the counting sites that key fewer
anchors do, the id names the row's fast callable too: row.id:fast/seed.
Spaces are dropped, so an id is one word.  Every row id must import, so a
rename of a fast path fails here, and no two cases may share an id.
"""

import functools
import importlib
from collections import Counter

import pytest

from fast_paths import ROWS, check

RUNS = [(row, seed, tuple(params)) for row in ROWS for seed, *params in row.seeds]
SHARED = Counter((row.id, seed) for row, seed, _ in RUNS)


def case_id(row, seed):
    name = row.id if SHARED[row.id, seed] == 1 else f"{row.id}:{row.fast.__name__}"
    return f"{name}/{seed}".replace(" ", "")


CASES = [pytest.param(row, seed, params, id=case_id(row, seed)) for row, seed, params in RUNS]


@pytest.mark.parametrize("row, seed, params", CASES)
def test_fast_path_matches_reference(row, seed, params):
    check(row, seed, params)


def test_every_fast_path_imports():
    for row in ROWS:
        module, *attrs = row.id.split(".")
        assert callable(functools.reduce(getattr, attrs, importlib.import_module(f"nivatk.{module}"))), row.id


def test_every_row_has_seeds_and_every_case_a_unique_id():
    assert all(row.seeds for row in ROWS)
    ids = [case.id for case in CASES]
    assert len(ids) == len(set(ids))
