"""Transversal clique enumeration on partite graphs.

A transversal clique picks one vertex per part, pairwise adjacent. Cliques are
reported as ascending id tuples, which (parts being contiguous ascending
ranges) is the same as ascending part order, and enumeration order is
lexicographic.

There is one restricted view, one array join and one bitmask walk.
`_restrict` lists the vertices a search may use, part by part, with the bool
adjacency among them; the join here and the staged matching and exact-cover
build in `solver` all read that view. `_join` lists a view's cliques as an
int array of local ids, by a breadth-first join over its blocks, and
`_clique_rows` maps them to vertex ids. `_walk` goes depth first on
bitmasks and hands each partial clique, with its extensions in the last
part as one mask, to a visitor; round 1's cheapest clique, round 2's
weight search and the survival count read the tree through it. The walk
stays because the join's fixed numpy cost loses on small hosts (2-core
machine, Python 3.11): weight balancing's reduced graphs (r 2-4, k 2-5)
take 5-78 µs walked against 27-90 µs as rows, and a janson-report Monte
Carlo count (n = 30, p = 0.7) 183 µs against 448 µs.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, combinations

import numpy as np

from ._num import bit_indices, unpack
from .errors import BudgetExceededError
from .graphs import PartiteGraph

_JOIN_CELLS = 1 << 18  # candidate cells (partial cliques x next-part vertices) per join block


def _walk(adj, common, masks, visit) -> bool:
    """Depth-first walk over one vertex from each of masks[:-1], inside `common`.

    Partial cliques come in lexicographic order; each is passed on as
    `visit(prefix, ext)`, where `ext` masks its common neighbours in
    masks[-1]. `prefix` is one list reused for the whole walk, so it is valid
    only during the call. The walk stops, returning True, as soon as a visit
    returns True.
    """
    last = len(masks) - 1
    prefix = [0] * last
    end = masks[-1]

    def rec(d: int, common: int) -> bool:
        for v in bit_indices(common & masks[d]):
            prefix[d] = v
            if d + 1 == last:  # a whole prefix goes to visit with no further call
                if visit(prefix, common & adj[v] & end):
                    return True
            elif rec(d + 1, common & adj[v]):
                return True
        return False

    return rec(0, common) if last else bool(visit(prefix, common & end))


def _clique_count(g: PartiteGraph) -> int:
    """Number of transversal cliques of g: a popcount per walked prefix."""
    counts: list[int] = []
    _walk(g.adj, (1 << g.vertex_count) - 1, g.part_masks, lambda _, ext: counts.append(ext.bit_count()))
    return sum(counts)


def _restrict(g: PartiteGraph, allowed) -> tuple[np.ndarray, np.ndarray]:
    """The vertices in `allowed` (allowed[i] inside part i), part by part and
    ascending, and the bool adjacency matrix among them."""
    width = g.vertex_count
    verts = np.flatnonzero(unpack(allowed, width)) % width
    return verts, unpack([g.adj[v] for v in verts.tolist()], width)[:, verts]


def _join(adj: np.ndarray, sizes, limit: int | None) -> np.ndarray:
    """The transversal cliques of the restricted view `adj`, whose parts are
    runs of `sizes` rows, in lexicographic order as rows of local ids.

    Partial cliques on parts 0..d-1 extend to part d through the rows of
    `adj`. Each join takes at most _JOIN_CELLS candidate cells, so the
    partials are worked through in blocks, depth first, and the rows stay
    lexicographic. More than `limit` cliques (None: no limit) raise
    BudgetExceededError before the surplus rows are built.
    """
    r = len(sizes)
    bounds = list(accumulate(sizes, initial=0))
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
    return np.concatenate(out) if out else np.empty((0, r), np.intp)


def _clique_rows(g: PartiteGraph, allowed, limit: int | None) -> np.ndarray:
    """The cliques with part i inside allowed[i], in order, as int array rows;
    past `limit` (None: no limit) raises BudgetExceededError."""
    verts, adj = _restrict(g, allowed)
    return verts[_join(adj, [m.bit_count() for m in allowed], limit)]


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
