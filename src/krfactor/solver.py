"""Exact clique-factor search: decision, counting, spread.

A factor is a set of vertex-disjoint transversal cliques covering every
vertex. All three reduce to exact cover over the vertex set with one row per
clique; "no factor" answers always come from the exhaustive search.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations, islice
from pathlib import Path

import numpy as np

from ._num import bit_indices, mask_of, stable_argsort, unpack
from .cliques import _clique_rows, check_clique
from .errors import BudgetExceededError
from .exact_cover import ExactCover
from .graphs import PartiteGraph, _read_lines

DEFAULT_ROW_BUDGET = 5_000_000  # transversal cliques one exact search may enumerate
SPREAD_FACTOR_BUDGET = 200_000  # factors the exact spread profile may list


@dataclass(frozen=True)
class Tiling:
    """Pairwise vertex-disjoint transversal cliques of `host`."""

    host: PartiteGraph
    cliques: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "cliques", tuple(tuple(K) for K in self.cliques))
        covered = 0
        for K in self.cliques:
            check_clique(self.host, K)
            m = mask_of(K)
            twice = covered & m
            if twice:
                raise ValueError(f"vertex {next(bit_indices(twice))} covered twice")
            covered |= m
        object.__setattr__(self, "covered_mask", covered)

    def __len__(self) -> int:
        return len(self.cliques)


@dataclass(frozen=True)
class Factor(Tiling):
    """A tiling covering every vertex of the host."""

    def __post_init__(self):
        super().__post_init__()
        missing = ~self.covered_mask & ((1 << self.host.vertex_count) - 1)
        if missing:
            raise ValueError(f"vertex {next(bit_indices(missing))} not covered")


def _matching_cover(g: PartiteGraph, allowed):
    """Cover the union of `allowed` part by part; None proves nothing.

    Stage s matches each partial clique on parts 0..s-1 to a part-s vertex
    of its common neighbourhood, trying first the vertices that keep the
    most of part s+1 in it: a greedy pass, then Kuhn's augmenting paths.
    """
    if len({m.bit_count() for m in allowed}) > 1:
        return None
    adj = g.adj
    partial = [((v,), adj[v]) for v in bit_indices(allowed[0])]
    for s in range(1, g.r):
        cands = []
        for _, common in partial:
            us = bit_indices(common & allowed[s])
            if s + 1 < g.r:
                scored = sorted((-(common & adj[u] & allowed[s + 1]).bit_count(), u) for u in us)
                us = [u for key, u in scored if key]
            cands.append(list(us))
        owner: dict[int, int] = {}
        match = [None] * len(partial)
        for i, us in enumerate(cands):
            match[i] = next((u for u in us if u not in owner), None)
            if match[i] is not None:
                owner[match[i]] = i
        for root in [i for i, u in enumerate(match) if u is None]:
            seen, stack = set(), [[root, 0]]
            while stack:
                i, k = stack[-1]
                k = next((j for j in range(k, len(cands[i])) if cands[i][j] not in seen), None)
                if k is None:
                    stack.pop()
                    continue
                stack[-1][1] = k + 1
                seen.add(cands[i][k])
                if cands[i][k] not in owner:
                    break
                stack.append([owner[cands[i][k]], 0])
            if not stack:
                return None
            # each frame's last tried candidate leads to the frame above it
            for i, k in stack:
                match[i] = cands[i][k - 1]
                owner[match[i]] = i
        partial = [(K + (u,), common & adj[u]) for (K, common), u in zip(partial, match)]
    return [K for K, _ in partial]


def _build_cover(g: PartiteGraph, allowed):
    """Exact-cover instance over the vertices in `allowed`, with the cliques
    as an int array of rows; None if an allowed vertex lies in no clique.

    Columns are the allowed vertices in ascending order. Rows are the
    cliques ordered by their vertices' degree sum, ties lexicographic: near-
    uniform instances branch better when scarce rows come first.
    """
    rows = _clique_rows(g, allowed, DEFAULT_ROW_BUDGET)
    target = 0
    for m in allowed:
        target |= m
    verts = np.flatnonzero(unpack([target], g.vertex_count))
    col_of = np.full(g.vertex_count, -1, np.intp)
    col_of[verts] = np.arange(len(verts))
    cols = col_of[rows]
    if np.count_nonzero(np.bincount(cols.ravel(), minlength=len(verts))) < len(verts):
        return None
    deg = np.array([g.adj[v].bit_count() for v in verts.tolist()], np.int64)
    # the rows are lexicographic, so a stable sort keeps ties in that order
    order = stable_argsort(deg[cols].sum(axis=1))
    return ExactCover(len(verts), rows=cols[order]), rows[order]


def _first_cover(g: PartiteGraph, allowed):
    """Matching cover, else the first exact cover; sorted cliques or None."""
    matched = _matching_cover(g, allowed)
    if matched is not None:
        return tuple(sorted(matched))
    built = _build_cover(g, allowed)
    if built is None:
        return None
    dlx, rows = built
    sol = dlx.first_solution()
    if sol is None:
        return None
    return tuple(sorted(map(tuple, rows[list(sol)].tolist())))


def find_factor(g: PartiteGraph):
    """First clique factor of g, or None if none exists.

    The factor is first built part by part with bipartite matchings (see
    `_matching_cover`); when a stage has no perfect matching, the exhaustive
    exact-cover search (branching on the most constrained vertex) decides,
    so a None answer is certified by complete search.
    """
    sol = _first_cover(g, g.part_masks)
    return None if sol is None else Factor(g, sol)


def solve_restricted(g: PartiteGraph, allowed):
    """Exact cover of exactly the vertices in `allowed` (one mask per part).

    Returns a tuple of cliques or None. Same guarantees as find_factor.
    """
    if len(allowed) != g.r:
        raise ValueError(f"expected {g.r} masks")
    for i, m in enumerate(allowed):
        if m & ~g.part_mask(i):
            raise ValueError(f"allowed[{i}] leaves part {i}")
    return _first_cover(g, list(allowed))


def count_factors(g: PartiteGraph) -> int:
    """Exact number of clique factors of g."""
    built = _build_cover(g, g.part_masks)
    if built is None:
        return 0
    dlx, _ = built
    return dlx.count_solutions()


@dataclass(frozen=True)
class SpreadEstimate:
    """Worst-case q-spread profile of the uniform distribution over factors.

    values[s] = (max over clique s-subsets S of Pr[S ⊆ random factor]) ** (1/s);
    sample_count is the number of factors listed.
    """

    values: dict[int, float]
    sample_count: int


def estimate_spread(g: PartiteGraph, max_subset: int) -> SpreadEstimate:
    """Exact spread profile of the uniform factor distribution.

    Lists every factor, at most SPREAD_FACTOR_BUDGET of them.
    """
    if max_subset < 1:
        raise ValueError("max_subset must be at least 1")
    built = _build_cover(g, g.part_masks)
    if built is None:
        raise ValueError("graph has no factor")
    dlx, rows = built
    cliques = list(map(tuple, rows.tolist()))
    sols = islice(dlx.solutions(), SPREAD_FACTOR_BUDGET + 1)
    factor_sets = [tuple(sorted(cliques[i] for i in sol)) for sol in sols]
    if len(factor_sets) > SPREAD_FACTOR_BUDGET:
        raise BudgetExceededError(f"more than {SPREAD_FACTOR_BUDGET} factors")
    if not factor_sets:
        raise ValueError("graph has no factor")
    total = len(factor_sets)
    values: dict[int, float] = {}
    for s in range(1, min(max_subset, g.n) + 1):
        counter: Counter = Counter()
        for F in factor_sets:
            for S in combinations(F, s):
                counter[S] += 1
        values[s] = (max(counter.values()) / total) ** (1.0 / s)
    return SpreadEstimate(values, total)


def verify_factor(g: PartiteGraph, cliques) -> tuple[bool, str]:
    """Factor's check as (ok, reason): the error Factor(g, cliques) raises, "" if none."""
    try:
        Factor(g, [tuple(map(int, K)) for K in cliques])
    except ValueError as exc:
        return False, str(exc)
    return True, ""


def write_factor_certificate(cliques, path):
    """One clique per line, vertex ids space-separated, cliques sorted."""
    lines = [" ".join(str(v) for v in K) for K in sorted(tuple(K) for K in cliques)]
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""))


def read_factor_certificate(path) -> tuple[tuple[int, ...], ...]:
    """Parse a factor certificate; structural checks happen in verify_factor."""
    return tuple(_read_lines(path, lambda fields: tuple(map(int, fields))))
