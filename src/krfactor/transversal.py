"""Edge-coloured factor search over graph families.

A family supplies n * C(r, 2) graphs on a common vertex set, one block of n
consecutive members per part pair. A permutation bundle (one permutation per
part) induces an aggregate graph: the cross pair (s, t) with s in part i,
t in part j, i < j, is an edge iff it is an edge of the member with index
offset(i, j) + perm_i[s - i*n]. A factor of the aggregate graph lifts to a
factor whose edges come from pairwise distinct members, one per member.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import combinations, product
from pathlib import Path
from typing import NamedTuple

from ._num import bit_indices, fceil
from .cliques import _clique_stream
from .errors import BudgetExceededError, FileFormatError
from .exact_cover import ExactCover
from .graphs import (
    PartiteGraph,
    _read_json_object,
    _read_lines,
    min_star_degree,
    read_graph_file,
    write_graph_file,
)
from .rng import RandomSeed, as_seed
from .solver import verify_factor


def _pair_rank(r: int, i: int, j: int) -> int:
    # rank of (i, j), i < j, in lexicographic combinations(range(r), 2)
    return math.comb(r, 2) - math.comb(r - i, 2) + (j - i - 1)


@dataclass(frozen=True)
class GraphFamily:
    """n * C(r, 2) graphs: member block [rank*n, (rank+1)*n) serves pair rank.

    Every member is a PartiteGraph with the family's r and n.
    """

    r: int
    n: int
    graphs: tuple

    def __post_init__(self):
        object.__setattr__(self, "graphs", tuple(self.graphs))
        r, n = self.r, self.n
        if r < 2 or n < 1:
            raise ValueError("need r >= 2 and n >= 1")
        expect = n * math.comb(r, 2)
        if len(self.graphs) != expect:
            raise ValueError(f"family needs {expect} members, got {len(self.graphs)}")
        for idx, g in enumerate(self.graphs):
            if not (isinstance(g, PartiteGraph) and g.r == r and g.n == n):
                raise ValueError(f"member {idx}: expected a PartiteGraph with r={r}, n={n}")

    @property
    def size(self) -> int:
        return len(self.graphs)


@dataclass(frozen=True)
class PermutationBundle:
    """One permutation of range(n) per part."""

    perms: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(
            self, "perms", tuple(tuple(int(x) for x in perm) for perm in self.perms)
        )
        for i, perm in enumerate(self.perms):
            if sorted(perm) != list(range(len(perm))):
                raise ValueError(f"entry {i} is not a permutation of range({len(perm)})")


def sample_bundle(family: GraphFamily, seed: RandomSeed | int) -> PermutationBundle:
    """Uniform independent permutations, one per part."""
    gen = as_seed(seed).generator()
    return PermutationBundle(
        tuple(tuple(int(x) for x in gen.permutation(family.n)) for _ in range(family.r))
    )


def governing_index(
    family: GraphFamily, bundle: PermutationBundle, u: int, v: int
) -> int:
    """Index of the member that decides the cross pair (u, v)."""
    n = family.n
    i, j = u // n, v // n
    if i == j:
        raise ValueError(f"({u}, {v}) is not a cross-part pair")
    if i > j:
        u, v = v, u
        i, j = j, i
    return _pair_rank(family.r, i, j) * n + bundle.perms[i][u - i * n]


@dataclass(frozen=True)
class AuxiliaryGraph:
    """The aggregate graph of (family, bundle), keeping what built it."""

    graph: PartiteGraph
    family: GraphFamily
    bundle: PermutationBundle


def build_b_pi(family: GraphFamily, bundle: PermutationBundle) -> AuxiliaryGraph:
    """Assemble the aggregate graph: each cross pair inherits its edge bit
    from the member indexed by the source vertex's permuted position."""
    if len(bundle.perms) != family.r or any(
        len(perm) != family.n for perm in bundle.perms
    ):
        raise ValueError("bundle shape does not match the family")
    r, n = family.r, family.n
    masks = [0] * (r * n)
    for i, j in combinations(range(r), 2):
        off = _pair_rank(r, i, j) * n
        pmj = ((1 << n) - 1) << (j * n)
        perm_i = bundle.perms[i]
        for s_loc in range(n):
            s = i * n + s_loc
            member = family.graphs[off + perm_i[s_loc]]
            row = member.adj[s] & pmj
            masks[s] |= row
            bit_s = 1 << s
            for t in bit_indices(row):
                masks[t] |= bit_s
    return AuxiliaryGraph(PartiteGraph.from_masks(r, n, masks), family, bundle)


@dataclass(frozen=True)
class TransversalFactor:
    """A factor plus an edge -> member assignment using each member once."""

    cliques: tuple[tuple[int, ...], ...]
    assignment: dict

    def __post_init__(self):
        object.__setattr__(
            self, "cliques", tuple(tuple(int(v) for v in K) for K in self.cliques)
        )
        object.__setattr__(
            self,
            "assignment",
            {
                (int(u), int(v)) if u < v else (int(v), int(u)): int(idx)
                for (u, v), idx in self.assignment.items()
            },
        )


def lift_factor(aux: AuxiliaryGraph, factor) -> TransversalFactor:
    """Lift a factor of the aggregate graph to an edge -> member assignment.

    The governing indices of a factor's edges are automatically pairwise
    distinct and exhaust the family, because each member block is hit once
    per source vertex; both facts are checked and failures reported as
    internal inconsistencies.
    """
    cliques = tuple(sorted(tuple(K) for K in getattr(factor, "cliques", factor)))
    ok, reason = verify_factor(aux.graph, cliques)
    if not ok:
        raise ValueError(f"not a factor of the aggregate graph: {reason}")
    family, bundle = aux.family, aux.bundle
    assignment: dict[tuple[int, int], int] = {}
    for K in cliques:
        for a, b in combinations(K, 2):
            idx = governing_index(family, bundle, a, b)
            if not family.graphs[idx].has_edge(a, b):
                raise RuntimeError(
                    f"internal: aggregate edge ({a}, {b}) missing from member {idx}"
                )
            assignment[(a, b)] = idx
    if sorted(assignment.values()) != list(range(family.size)):
        raise RuntimeError("internal: governing indices are not a bijection")
    return TransversalFactor(cliques, assignment)


def verify_transversal(family: GraphFamily, tf: TransversalFactor) -> tuple[bool, str]:
    """Independent check of a lifted factor; returns (ok, reason)."""
    ok, reason = verify_factor(PartiteGraph.complete(family.r, family.n), tf.cliques)
    if not ok:
        return False, reason
    edge_set = {e for K in tf.cliques for e in combinations(K, 2)}
    extra = set(tf.assignment) - edge_set
    if extra:
        return False, f"assignment covers non-factor pair {sorted(extra)[0]}"
    missing_e = edge_set - set(tf.assignment)
    if missing_e:
        return False, f"edge {sorted(missing_e)[0]} has no assigned member"
    used = sorted(tf.assignment.values())
    if used != list(range(family.size)):
        dupes = [x for q, x in enumerate(used[1:], 1) if used[q - 1] == x]
        if dupes:
            return False, f"member index {dupes[0]} used twice"
        return False, "assigned member indices do not cover the family"
    for (u, v), idx in sorted(tf.assignment.items()):
        if not family.graphs[idx].has_edge(u, v):
            return False, f"edge ({u}, {v}) absent from its assigned member {idx}"
    return True, ""


class BpiTrialReport(NamedTuple):
    frequency: float
    passes: int
    trials: int
    threshold: float
    min_observed: int


def bpi_min_degree_trial(
    family: GraphFamily, gamma: float, trials: int, seed: RandomSeed | int
) -> BpiTrialReport:
    """How often does a random bundle's aggregate graph keep min star degree
    at least (1 - 1/r + gamma/2) * n?

    Requires every member to satisfy the (1 - 1/r + gamma) * n floor first.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    if not 0 < gamma <= 1:
        raise ValueError("gamma must lie in (0, 1]")
    r, n = family.r, family.n
    floor = fceil((1 - 1 / r + gamma) * n)
    for idx, g in enumerate(family.graphs):
        d = min_star_degree(g)
        if d < floor:
            raise ValueError(
                f"member {idx}: min star degree {d} below the required floor {floor}"
            )
    threshold = (1 - 1 / r + gamma / 2) * n
    base = as_seed(seed)
    passes = 0
    min_obs = n
    for t in range(trials):
        aux = build_b_pi(family, sample_bundle(family, base.substream(t)))
        d = min_star_degree(aux.graph)
        min_obs = min(min_obs, d)
        if d >= threshold - 1e-9:
            passes += 1
    return BpiTrialReport(passes / trials, passes, trials, threshold, min_obs)


def transversal_oracle(family: GraphFamily):
    """Exhaustive baseline solver, guarded to r = 3 and n <= 4.

    Exact cover with one column per vertex and one per member index: rows are
    (triangle of the member-union graph, one distinct member per edge with
    that edge present). Covering all columns forces a factor whose edge ->
    member assignment is a bijection. Returns a TransversalFactor or None.
    """
    if family.r != 3 or family.n > 4:
        raise BudgetExceededError("oracle budget: r = 3 and n <= 4 only")
    r, n = family.r, family.n
    total = r * n
    m = family.size
    union_masks = [0] * total
    for g in family.graphs:
        for v in range(total):
            union_masks[v] |= g.adj[v]
    union = PartiteGraph.from_masks(r, n, union_masks)
    rows = []
    for K in _clique_stream(union, union.part_masks):
        pairs = list(combinations(K, 2))
        options = [
            [t for t, g in enumerate(family.graphs) if g.has_edge(u, v)]
            for u, v in pairs
        ]
        for combo in product(*options):
            if len(set(combo)) == len(combo):
                rows.append((K, combo))
    if not rows:
        return None
    dlx = ExactCover(total + m)
    for row_id, (K, combo) in enumerate(rows):
        dlx.add_row(row_id, list(K) + sorted(total + t for t in combo))
    sol = dlx.first_solution()
    if sol is None:
        return None
    cliques = []
    assignment = {}
    for row_id in sol:
        K, combo = rows[row_id]
        cliques.append(K)
        for (u, v), t in zip(combinations(K, 2), combo):
            assignment[(u, v)] = t
    tf = TransversalFactor(tuple(sorted(cliques)), assignment)
    ok, reason = verify_transversal(family, tf)
    if not ok:
        raise RuntimeError(f"internal: oracle produced an invalid solution: {reason}")
    return tf


def write_family(family: GraphFamily, dir_path) -> Path:
    """Write members + manifest.json under dir_path; returns the manifest path."""
    root = Path(dir_path)
    (root / "graphs").mkdir(parents=True, exist_ok=True)
    entries = []
    for t, g in enumerate(family.graphs):
        rel = f"graphs/member{t:04d}.txt"
        write_graph_file(g, root / rel)
        entries.append(rel)
    manifest = {
        "format": "graph-family",
        "r": family.r,
        "n": family.n,
        "pairs": [[i, j] for i, j in combinations(range(family.r), 2)],
        "graphs": entries,
    }
    out = root / "manifest.json"
    out.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return out


def read_family(manifest_path) -> GraphFamily:
    """Load a family from its manifest; structural problems raise FileFormatError."""
    path = Path(manifest_path)
    payload = _read_json_object(path)
    if payload.get("format") != "graph-family":
        raise FileFormatError(f"{path}: not a graph-family manifest")
    try:
        r = int(payload["r"])
        n = int(payload["n"])
        entries = list(payload["graphs"])
    except (KeyError, TypeError, ValueError) as exc:
        raise FileFormatError(f"{path}: bad manifest fields ({exc})") from exc
    graphs = [read_graph_file(path.parent / rel) for rel in entries]
    try:
        return GraphFamily(r, n, tuple(graphs))
    except ValueError as exc:
        raise FileFormatError(f"{path}: {exc}") from exc


def write_transversal_certificate(tf: TransversalFactor, path):
    """Lines 'clique u v ...' then 'edge u v index', both sorted."""
    lines = [
        "clique " + " ".join(str(v) for v in K) for K in sorted(tf.cliques)
    ]
    lines.extend(
        f"edge {u} {v} {idx}" for (u, v), idx in sorted(tf.assignment.items())
    )
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""))


def read_transversal_certificate(path) -> TransversalFactor:
    """Parse a certificate; semantic checks happen in verify_transversal."""
    cliques = []
    assignment = {}

    def parse(fields):
        if fields[0] == "clique":
            cliques.append(tuple(int(x) for x in fields[1:]))
        elif fields[0] == "edge":
            if len(fields) != 4:
                raise ValueError("expected 'edge u v index'")
            assignment[(int(fields[1]), int(fields[2]))] = int(fields[3])
        else:
            raise ValueError(f"unknown record {fields[0]!r}")

    _read_lines(path, parse)
    return TransversalFactor(tuple(cliques), assignment)
