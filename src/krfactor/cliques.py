"""Transversal clique enumeration on partite graphs.

A transversal clique picks one vertex per part, pairwise adjacent. Cliques are
reported as ascending id tuples, which (parts being contiguous ascending
ranges) is the same as ascending part order, and enumeration order is
lexicographic.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, islice

from ._num import bit_indices
from .errors import BudgetExceededError
from .graphs import PartiteGraph


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


def _clique_list(g: PartiteGraph, allowed, limit: int | None) -> list[tuple[int, ...]]:
    """`_clique_stream` as a list; past `limit` (None: no limit) raises BudgetExceededError."""
    out = list(islice(_clique_stream(g, allowed), None if limit is None else limit + 1))
    if limit is not None and len(out) > limit:
        raise BudgetExceededError(f"more than {limit} transversal cliques")
    return out


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
