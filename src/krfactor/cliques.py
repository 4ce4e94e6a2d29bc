"""Transversal clique enumeration on partite graphs.

A transversal clique picks one vertex per part, pairwise adjacent. Cliques are
reported as ascending id tuples, which (parts being contiguous ascending
ranges) is the same as ascending part order, and enumeration order is
lexicographic.

`_clique_rows` lists a whole family at once as an int array, by a
breadth-first join over bool adjacency blocks; `_clique_stream` yields the
same cliques lazily, one tuple at a time, and `_clique_count` only counts
them. The two bitmask walks stay beside `_clique_rows`, whose fixed numpy
cost loses on small hosts (2-core machine, Python 3.11): a weight-balancing
reduced graph streams in 2-37 µs against 25-58 µs as rows, and a janson-report
Monte Carlo count (n = 30, p = 0.7) takes 274 µs against 475 µs as rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, combinations

import numpy as np

from ._num import bit_indices, unpack
from .errors import BudgetExceededError
from .graphs import PartiteGraph

_JOIN_CELLS = 1 << 18  # candidate cells (partial cliques x next-part vertices) per join block


def _clique_stream(g: PartiteGraph, allowed):
    """Yield transversal cliques lexicographically; allowed[i] restricts part i."""
    r = g.r
    adj = g.adj
    members = [0] * r

    def rec(depth: int, common: int):
        cand = common & allowed[depth]
        if depth == r - 1:
            for v in bit_indices(cand):
                members[depth] = v
                yield tuple(members)
            return
        for v in bit_indices(cand):
            members[depth] = v
            yield from rec(depth + 1, common & adj[v])

    return rec(0, (1 << g.vertex_count) - 1)


def _clique_count(g: PartiteGraph) -> int:
    """Number of transversal cliques of g: `_clique_stream`'s tree over the
    whole parts, with a popcount in place of the last part's loop."""
    adj = g.adj
    parts = g.part_masks
    last = g.r - 1

    def rec(depth: int, common: int) -> int:
        cand = common & parts[depth]
        if depth == last:
            return cand.bit_count()
        return sum(rec(depth + 1, common & adj[v]) for v in bit_indices(cand))

    return rec(0, (1 << g.vertex_count) - 1)


def _clique_rows(g: PartiteGraph, allowed, limit: int | None) -> np.ndarray:
    """`_clique_stream`'s cliques as the rows of an int array, in the same order.

    Partial cliques on parts 0..d-1 extend to part d through the rows of a
    bool matrix holding adjacency among the allowed vertices only. Each join
    takes at most _JOIN_CELLS candidate cells, so the partials are worked
    through in blocks, depth first, and the rows stay lexicographic. More
    than `limit` cliques (None: no limit) raise BudgetExceededError before
    the surplus rows are built.
    """
    r, width = g.r, g.vertex_count
    verts = np.flatnonzero(unpack(allowed, width)) % width  # part by part, ascending
    bounds = list(accumulate((m.bit_count() for m in allowed), initial=0))
    adj = unpack([g.adj[v] for v in verts.tolist()], width)[:, verts]
    out: list[np.ndarray] = []
    total = 0

    def join(partial: np.ndarray) -> None:
        nonlocal total
        depth = partial.shape[1]
        if depth == r:
            out.append(partial)
            return
        lo, hi = bounds[depth], bounds[depth + 1]
        step = max(1, _JOIN_CELLS // max(1, hi - lo))
        for start in range(0, len(partial), step):
            block = partial[start : start + step]
            cand = adj[block[:, 0], lo:hi]
            for j in range(1, depth):
                cand &= adj[block[:, j], lo:hi]
            if depth == r - 1:
                total += int(np.count_nonzero(cand))
                if limit is not None and total > limit:
                    raise BudgetExceededError(f"more than {limit} transversal cliques")
            at, col = np.nonzero(cand)
            join(np.column_stack((block[at], lo + col)))

    join(np.arange(bounds[0], bounds[1])[:, None])
    return verts[np.concatenate(out) if out else np.empty((0, r), np.intp)]


def _clique_list(g: PartiteGraph, allowed, limit: int | None) -> list[tuple[int, ...]]:
    """`_clique_rows` as tuples of Python ints; past `limit` (None: no limit)
    raises BudgetExceededError."""
    return list(map(tuple, _clique_rows(g, allowed, limit).tolist()))


def check_clique(g: PartiteGraph, K) -> None:
    """Raise ValueError unless K is a transversal clique of g in part order."""
    if len(K) != g.r:
        raise ValueError(f"clique {K}: expected {g.r} vertices")
    for slot, v in enumerate(K):
        if not 0 <= v < g.vertex_count:
            raise ValueError(f"clique {K}: vertex {v} out of range")
        if g.part_of(v) != slot:
            raise ValueError(f"clique {K}: not one vertex per part, in part order")
    for a, b in combinations(K, 2):
        if not g.has_edge(a, b):
            raise ValueError(f"clique {K}: missing edge ({a}, {b})")


@dataclass(frozen=True)
class CliqueFamily:
    """An ordered, duplicate-free collection of transversal cliques of `host`."""

    host: PartiteGraph
    cliques: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "cliques", tuple(tuple(K) for K in self.cliques))
        g = self.host
        seen = set()
        for K in self.cliques:
            check_clique(g, K)
            if K in seen:
                raise ValueError(f"duplicate clique {K}")
            seen.add(K)

    def __len__(self) -> int:
        return len(self.cliques)

    def __iter__(self):
        return iter(self.cliques)

    def __getitem__(self, idx):
        return self.cliques[idx]


def enumerate_kr(g: PartiteGraph, *, max_cliques: int | None = None) -> CliqueFamily:
    """All transversal cliques of g, lexicographically ordered; more than
    max_cliques (None: no limit) raise BudgetExceededError."""
    if max_cliques is not None and max_cliques < 0:
        raise ValueError("max_cliques must be nonnegative")
    return CliqueFamily(g, tuple(_clique_list(g, g.part_masks, max_cliques)))
