"""Exact cover by Algorithm X over plain arrays, with an explicit stack.

Columns are integers 0..n_cols-1. Rows come in bulk, as the lines of an int
array of column ids passed to the constructor (`rows=`), which become rows
0, 1, ... with those numbers as their ids; or one at a time through
`add_row`, as an iterable of column ids with an opaque row id. The engine
keeps, per row, its column list and, per column, its rows in insertion
order. A search keeps a live flag per row, a live-row count per column and
one frame per depth: the candidate rows, the next one to try and the rows
that the current choice removed. Depth is bounded by memory, not by
Python's recursion limit.

Ordering contract (every caller relies on it for reproducible output): each
step branches on the open column with the fewest live rows, taking the
leftmost on ties; a branch stops at once when that column has no live rows;
the column's live rows are tried in insertion order.
"""

from __future__ import annotations

import numpy as np

from ._num import stable_argsort


class ExactCover:
    """Exact cover over n_cols columns; `rows`, an (N, w) int array of column
    ids with w >= 1, becomes rows 0..N-1 with ids 0..N-1, as if added in
    order by `add_row`."""

    def __init__(self, n_cols: int, rows=None):
        if n_cols < 0:
            raise ValueError("n_cols must be nonnegative")
        self.col_rows: list[list[int]] = [[] for _ in range(n_cols)]
        self.row_cols: list[list[int]] = []
        self.row_ids: list = []
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
        self.row_ids = list(range(len(rows)))

    # kept for bench/tracing.py, which wraps it, and tests/oracles.ref_build_cover
    def add_row(self, row_id, col_ids) -> None:
        cols = list(col_ids)
        if not cols:
            raise ValueError("rows must touch at least one column")
        row = len(self.row_cols)
        for c in cols:
            self.col_rows[c].append(row)
        self.row_cols.append(cols)
        self.row_ids.append(row_id)

    def solutions(self):
        """Yield every exact cover as a tuple of row ids, in the order above."""
        col_rows, row_cols = self.col_rows, self.row_cols
        covered = len(row_cols) + 1
        # A covered column carries `covered` on top of its live-row count, so
        # min() finds the smallest open column; the extra entry keeps it defined.
        size = [len(rows) for rows in col_rows] + [covered]
        live = [True] * len(row_cols)
        stack: list[list] = []  # per depth: [candidates, next index, removed rows]
        while True:
            low = min(size)
            if low >= covered:
                yield tuple(self.row_ids[cands[k - 1]] for cands, k, _ in stack)
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
                return

    def first_solution(self):
        for sol in self.solutions():
            return sol
        return None

    def count_solutions(self) -> int:
        return sum(1 for _ in self.solutions())
