"""The exact-cover engine against a plain recursive Algorithm X."""

import random
import sys

import numpy as np
import pytest

from krfactor.errors import BudgetExceededError
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
    for cols in rows:
        ec.add_row(cols)
    expected = list(brute_exact_covers(n_cols, rows))
    assert list(ec.solutions()) == expected
    assert list(ec.solutions()) == expected  # a finished search leaves no trace
    assert next(ec.solutions(), None) == (expected[0] if expected else None)


@pytest.mark.parametrize("seed", range(100))
def test_bulk_rows_match_rows_added_one_at_a_time(seed):
    rng = random.Random(seed)
    n_cols = rng.randint(1, 10)
    width = rng.randint(1, min(4, n_cols))
    rows = [rng.sample(range(n_cols), width) for _ in range(rng.randint(0, 25))]
    bulk = ExactCover(n_cols, rows=np.array(rows, dtype=int).reshape(len(rows), width))
    ec = ExactCover(n_cols)
    for cols in rows:
        ec.add_row(cols)
    assert (bulk.col_rows, bulk.row_cols) == (ec.col_rows, ec.row_cols)
    assert list(bulk.solutions()) == list(brute_exact_covers(n_cols, rows))


@pytest.mark.parametrize("seed", range(100))
def test_node_budget_stops_at_the_count(seed):
    n_cols, rows = _random_instance(random.Random(seed))
    ec = ExactCover(n_cols)
    for cols in rows:
        ec.add_row(cols)
    first = next(ec.solutions(), None)
    nodes = ec.nodes
    assert next(ec.solutions(max_nodes=nodes), None) == first and ec.nodes == nodes
    every = list(ec.solutions())
    total = ec.nodes
    assert total >= nodes
    assert list(ec.solutions(max_nodes=total)) == every
    if nodes:
        with pytest.raises(BudgetExceededError, match=f"more than {nodes - 1} search nodes"):
            next(ec.solutions(max_nodes=nodes - 1), None)
        assert ec.nodes == nodes - 1


def test_no_columns_has_one_empty_cover():
    assert list(ExactCover(0).solutions()) == [()]


def test_no_rows_has_no_cover():
    assert list(ExactCover(3).solutions()) == []
    assert next(ExactCover(3).solutions(), None) is None


def test_count_limit():
    ec = ExactCover(2)
    for cols in [[0], [1], [0, 1], [1], [0]]:
        ec.add_row(cols)
    assert sum(1 for _ in ec.solutions()) == 5


def test_depth_beyond_recursion_limit():
    n = sys.getrecursionlimit() + 500
    ec = ExactCover(n)
    for c in range(n):
        ec.add_row([c])
    assert list(ec.solutions()) == [tuple(range(n))]


def test_rejects_bad_shapes():
    with pytest.raises(ValueError):
        ExactCover(-1)
    with pytest.raises(ValueError):
        ExactCover(3).add_row([])
    for rows in ([0, 1], [[]], [[0, 3]], [[-1, 2]]):
        with pytest.raises(ValueError):
            ExactCover(3, rows=rows)
