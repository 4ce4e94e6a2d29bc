"""The exact-cover engine against a plain recursive Algorithm X."""

import random
import sys

import numpy as np
import pytest

from krfactor.exact_cover import ExactCover
from oracles import brute_exact_covers


def _random_instance(rng):
    n_cols = rng.randint(0, 10)
    n_rows = rng.randint(0, 25) if n_cols else 0
    rows = [rng.sample(range(n_cols), rng.randint(1, min(4, n_cols))) for _ in range(n_rows)]
    return n_cols, rows


@pytest.mark.parametrize("seed", range(300))
def test_solution_stream_matches_reference(seed):
    n_cols, rows = _random_instance(random.Random(seed))
    ec = ExactCover(n_cols)
    for i, cols in enumerate(rows):
        ec.add_row(f"row{i}", cols)
    expected = [tuple(f"row{i}" for i in sol) for sol in brute_exact_covers(n_cols, rows)]
    assert list(ec.solutions()) == expected
    assert list(ec.solutions()) == expected  # a finished search leaves no trace
    assert ec.count_solutions() == len(expected)
    assert ec.first_solution() == (expected[0] if expected else None)


@pytest.mark.parametrize("seed", range(100))
def test_bulk_rows_match_rows_added_one_at_a_time(seed):
    rng = random.Random(seed)
    n_cols = rng.randint(1, 10)
    width = rng.randint(1, min(4, n_cols))
    rows = [rng.sample(range(n_cols), width) for _ in range(rng.randint(0, 25))]
    bulk = ExactCover(n_cols, rows=np.array(rows, dtype=int).reshape(len(rows), width))
    ec = ExactCover(n_cols)
    for i, cols in enumerate(rows):
        ec.add_row(i, cols)
    assert (bulk.col_rows, bulk.row_cols, bulk.row_ids) == (ec.col_rows, ec.row_cols, ec.row_ids)
    assert list(bulk.solutions()) == list(brute_exact_covers(n_cols, rows))


def test_no_columns_has_one_empty_cover():
    assert list(ExactCover(0).solutions()) == [()]


def test_no_rows_has_no_cover():
    assert list(ExactCover(3).solutions()) == []
    assert ExactCover(3).first_solution() is None


def test_count_limit():
    ec = ExactCover(2)
    for i, cols in enumerate([[0], [1], [0, 1], [1], [0]]):
        ec.add_row(i, cols)
    assert ec.count_solutions() == 5


def test_depth_beyond_recursion_limit():
    n = sys.getrecursionlimit() + 500
    ec = ExactCover(n)
    for c in range(n):
        ec.add_row(c, [c])
    assert list(ec.solutions()) == [tuple(range(n))]


def test_rejects_bad_shapes():
    with pytest.raises(ValueError):
        ExactCover(-1)
    with pytest.raises(ValueError):
        ExactCover(3).add_row(0, [])
    for rows in ([0, 1], [[]], [[0, 3]], [[-1, 2]]):
        with pytest.raises(ValueError):
            ExactCover(3, rows=rows)
