"""Exact cover by Algorithm X over plain arrays, with an explicit stack.

Columns are integers 0..n_cols-1. Rows come in bulk, as the lines of an int
array of column ids passed to the constructor (`rows=`), or one at a time
through `add_row`, as an iterable of column ids; either way a row's number
is its position, 0, 1, ..., and solutions are tuples of row numbers. The
engine keeps, per row, its column list and, per column, its rows in insertion
order. A search keeps a live flag per row, a live-row count per column and
one frame per depth: the candidate rows, the next one to try and the rows
that the current choice removed. Depth is bounded by memory, not by
Python's recursion limit.

Ordering contract (every caller relies on it for reproducible output): each
step branches on the open column with the fewest live rows, taking the
leftmost on ties; a branch stops at once when that column has no live rows;
the column's live rows are tried in insertion order.

A search node is one row tried. `nodes` holds the rows the latest search
had tried when it last yielded, finished or stopped; a search given
`max_nodes` raises BudgetExceededError instead of trying one more row.
"""

from __future__ import annotations

import numpy as np

from ._num import stable_argsort
from .errors import BudgetExceededError


class ExactCover:
    """Exact cover over n_cols columns; `rows`, an (N, w) int array of column
    ids with w >= 1, becomes rows 0..N-1, as if added in order by `add_row`."""

    def __init__(self, n_cols: int, rows=None):
        if n_cols < 0:
            raise ValueError("n_cols must be nonnegative")
        self.col_rows: list[list[int]] = [[] for _ in range(n_cols)]
        self.row_cols: list[list[int]] = []
        self.nodes = 0
        if rows is None:
            return
        rows = np.asarray(rows, np.intp)
        if rows.ndim != 2 or (len(rows) and rows.shape[1] == 0):
            raise ValueError("rows must be an (N, w) array with w >= 1")
        if rows.size and not (0 <= rows.min() and rows.max() < n_cols):
            raise ValueError("row touches a column out of range")
        # a stable sort of the row-major column ids keeps each column's rows ascending
        flat = rows.ravel()
        order = stable_argsort(flat)
        ends = np.cumsum(np.bincount(flat, minlength=n_cols)).tolist()
        owners = (order // rows.shape[1]).tolist()
        self.col_rows = [owners[a:b] for a, b in zip([0] + ends, ends)]
        self.row_cols = rows.tolist()

    # appends the next row, numbered by its position; the package passes its
    # rows in bulk, and tests/oracles.ref_build_cover and bench/tracing.py use this
    def add_row(self, col_ids) -> None:
        cols = list(col_ids)
        if not cols:
            raise ValueError("rows must touch at least one column")
        row = len(self.row_cols)
        for c in cols:
            self.col_rows[c].append(row)
        self.row_cols.append(cols)

    def solutions(self, max_nodes: int | None = None):
        """Yield every exact cover as a tuple of row numbers, in the order above;
        past `max_nodes` rows tried (None: no limit) raise BudgetExceededError."""
        col_rows, row_cols = self.col_rows, self.row_cols
        limit = float("inf") if max_nodes is None else max_nodes
        nodes = self.nodes = 0
        covered = len(row_cols) + 1
        # A covered column carries `covered` on top of its live-row count, so
        # min() finds the smallest open column; the extra entry keeps it defined.
        size = [len(rows) for rows in col_rows] + [covered]
        live = [True] * len(row_cols)
        stack: list[list] = []  # per depth: [candidates, next index, removed rows]
        while True:
            low = min(size)
            if low >= covered:
                self.nodes = nodes
                yield tuple(cands[k - 1] for cands, k, _ in stack)
            elif low:
                best = size.index(low)
                stack.append([[i for i in col_rows[best] if live[i]], 0, []])
            while stack:
                frame = stack[-1]
                cands, k, removed = frame
                for i in removed:
                    live[i] = True
                    for c in row_cols[i]:
                        size[c] += 1
                if k:
                    for c in row_cols[cands[k - 1]]:
                        size[c] -= covered
                if k == len(cands):
                    stack.pop()
                    continue
                if nodes == limit:
                    self.nodes = nodes
                    raise BudgetExceededError(f"more than {max_nodes} search nodes")
                nodes += 1
                removed = []
                for c in row_cols[cands[k]]:
                    size[c] += covered
                    for i in col_rows[c]:
                        if live[i]:
                            live[i] = False
                            removed.append(i)
                            for c2 in row_cols[i]:
                                size[c2] -= 1
                frame[1], frame[2] = k + 1, removed
                break
            else:
                self.nodes = nodes
                return
