"""Balanced r-partite graphs: data model, generators, sparsification, file I/O.

Vertices carry global 0-based ids and part i of an r-partite graph with part
size n occupies the contiguous id range [i*n, (i+1)*n). Adjacency is stored as
one int bitmask per vertex, so neighbourhood intersections — the hot path of
clique search — are single big-int AND operations.
"""

from __future__ import annotations

import json
import math
from itertools import combinations
from pathlib import Path
from typing import NamedTuple

import numpy as np

from ._num import fceil, pack, unpack
from .errors import FileFormatError
from .rng import RandomSeed, as_seed


class PartiteGraph:
    """A balanced r-partite graph on r*n vertices. Immutable once built.

    `part_masks[i]` is the bitmask of part i's vertices.
    """

    __slots__ = ("r", "n", "adj", "part_masks")

    def __init__(self, r: int, n: int, edges=()):
        if r < 2:
            raise ValueError("need at least two parts")
        if n < 1:
            raise ValueError("part size must be positive")
        self.r = int(r)
        self.n = int(n)
        self.part_masks = tuple(((1 << n) - 1) << (i * n) for i in range(self.r))
        masks = [0] * (self.r * self.n)
        for e in edges:
            u, v = e
            self._check_edge(u, v)
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        self.adj = tuple(masks)

    def _check_edge(self, u: int, v: int):
        total = self.r * self.n
        if not (0 <= u < total and 0 <= v < total):
            raise ValueError(f"edge ({u}, {v}): vertex id out of range")
        if u // self.n == v // self.n:
            raise ValueError(f"edge ({u}, {v}): endpoints in the same part")

    @classmethod
    def from_masks(cls, r: int, n: int, masks) -> "PartiteGraph":
        """Adopt prebuilt adjacency masks (caller guarantees symmetry/partiteness)."""
        g = cls.__new__(cls)
        g.r = int(r)
        g.n = int(n)
        g.adj = tuple(masks)
        g.part_masks = tuple(((1 << n) - 1) << (i * n) for i in range(r))
        return g

    @classmethod
    def complete(cls, r: int, n: int) -> "PartiteGraph":
        """The complete balanced r-partite graph (every cross-part pair joined)."""
        if r < 2 or n < 1:
            raise ValueError("need r >= 2 and n >= 1")
        universe = (1 << (r * n)) - 1
        pm = [((1 << n) - 1) << (i * n) for i in range(r)]
        masks = [universe ^ pm[v // n] for v in range(r * n)]
        return cls.from_masks(r, n, masks)

    @property
    def vertex_count(self) -> int:
        return self.r * self.n

    def part_of(self, v: int) -> int:
        return v // self.n

    def part_range(self, i: int) -> range:
        return range(i * self.n, (i + 1) * self.n)

    def part_mask(self, i: int) -> int:
        return self.part_masks[i]

    def has_edge(self, u: int, v: int) -> bool:
        return (self.adj[u] >> v) & 1 == 1

    def degree(self, v: int, part: int | None = None) -> int:
        m = self.adj[v]
        if part is not None:
            m &= self.part_masks[part]
        return m.bit_count()

    def edges(self):
        """Yield edges (u, v) with u < v in lexicographic order."""
        for u in range(self.vertex_count - 1):
            rest = self.adj[u] >> (u + 1)
            v = u + 1
            while rest:
                low = rest & -rest
                yield (u, v + low.bit_length() - 1)
                rest ^= low
        # note: shifting keeps only neighbours above u, so each edge appears once

    def edge_count(self) -> int:
        return sum(m.bit_count() for m in self.adj) // 2

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PartiteGraph)
            and self.r == other.r
            and self.n == other.n
            and self.adj == other.adj
        )

    def __repr__(self) -> str:
        return f"PartiteGraph(r={self.r}, n={self.n}, edges={self.edge_count()})"


def min_star_degree(g: PartiteGraph) -> int:
    """Minimum, over ordered part pairs (i, j) and v in part i, of deg(v -> part j)."""
    best = g.n
    for j in range(g.r):
        pm = g.part_mask(j)
        for v in range(g.vertex_count):
            if v // g.n == j:
                continue
            d = (g.adj[v] & pm).bit_count()
            if d < best:
                if d == 0:
                    return 0
                best = d
    return best


def sparsify(g: PartiteGraph, p: float, seed: RandomSeed | int) -> PartiteGraph:
    """Keep every edge independently with probability p; vertices are untouched."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    if p == 1.0:
        return PartiteGraph.from_masks(g.r, g.n, g.adj)
    if p == 0.0:
        return PartiteGraph(g.r, g.n)
    # one coin per edge (u, v), u < v, drawn in row-major = g.edges() order.
    # Row u of part i meets the upper triangle only in columns (i+1)*n on,
    # so the coins fill the strips A[part i, (i+1)*n:] in turn
    V, n = g.vertex_count, g.n
    keep = as_seed(seed).generator().random(g.edge_count()) < p
    A = np.zeros((V, V), bool)
    drawn = 0
    for lo in range(0, V - n, n):
        hi = lo + n
        strip = unpack([m >> hi for m in g.adj[lo:hi]], V - hi)
        cnt = int(np.count_nonzero(strip))
        strip.ravel()[np.flatnonzero(strip)] = keep[drawn : drawn + cnt]
        drawn += cnt
        A[lo:hi, hi:] = strip
        A[hi:, lo:hi] = strip.T
    return PartiteGraph.from_masks(g.r, g.n, pack(A))


def split_rounds(p: float, rounds: int) -> float:
    """Per-round probability p' with union of `rounds` independent p'-copies ~ one p-copy.

    Solves 1 - (1-p')**rounds = p.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    if not isinstance(rounds, int) or rounds < 1:
        raise ValueError("rounds must be a positive integer")
    if rounds == 1:
        return float(p)
    return 1.0 - (1.0 - p) ** (1.0 / rounds)


class ThresholdParams(NamedTuple):
    r: int
    n: int
    C: float


class ThresholdResult(NamedTuple):
    p: float
    clamped: bool


def threshold_p(params: ThresholdParams) -> ThresholdResult:
    """Sparsification probability C * n^(-2/r) * (log n)^(1/C(r,2)), clamped to 1."""
    r, n, c = params.r, params.n, params.C
    if r < 2:
        raise ValueError("need r >= 2")
    if n < 1:
        raise ValueError("need n >= 1")
    if c < 0:
        raise ValueError("C must be nonnegative")
    raw = c * n ** (-2.0 / r) * math.log(n) ** (1.0 / math.comb(r, 2))
    if raw > 1.0:
        return ThresholdResult(1.0, True)
    return ThresholdResult(raw, False)


def gen_min_degree_instance(
    r: int, n: int, gamma: float, edge_keep: float, seed: RandomSeed | int
) -> PartiteGraph:
    """Random instance with every cross-part degree >= ceil((1 - 1/r + gamma) * n).

    Starts complete and removes a uniformly random sequence of edges, skipping
    any removal that would push an endpoint below the degree floor, until
    roughly a (1 - edge_keep) fraction of each pair's edges is gone or the
    floor binds. Skips are permanent-safe: degrees only decrease, so an edge
    blocked once stays blocked.

    A vertex's degree into part j moves only while pair (i, j) is processed,
    so each pair keeps its own slack counters (degree minus floor) for both
    sides and applies its removals to the masks at the end.
    """
    if r < 2 or n < 1:
        raise ValueError("need r >= 2 and n >= 1")
    if not 0.0 < edge_keep <= 1.0:
        raise ValueError("edge_keep must lie in (0, 1]")
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    floor = fceil((1.0 - 1.0 / r + gamma) * n)
    if floor > n:
        raise ValueError(f"gamma={gamma} infeasible: degree floor {floor} exceeds part size {n}")
    base = as_seed(seed)
    masks = list(PartiteGraph.complete(r, n).adj)
    for rank, (i, j) in enumerate(combinations(range(r), 2)):
        total = n * n
        remove_target = total - round(edge_keep * total)
        if remove_target <= 0:
            continue
        perm = base.substream(rank).generator().permutation(total)
        slack_i = [n - floor] * n
        slack_j = [n - floor] * n
        gone_i = [0] * n  # gone_i[a]: local ids in part j cut from vertex a of part i
        gone_j = [0] * n
        removed = 0
        # when the slack exceeds the target the walk stops within the first
        # 2 * remove_target cells (every pair at r=3, gamma=0.2, keep 0.9 for
        # n=30 and n=200), so convert that prefix first and the rest on
        # demand. When the target takes all the slack (n=20 there) the walk
        # runs deep: over seeds 0-599, 1635 of 1800 pair walks stopped before
        # the last cell, at a median of cell 324 of 400, so a prefix would
        # save little and one conversion of the whole array is cheaper
        cut = 2 * remove_target if remove_target < n * (n - floor) else total
        for chunk in (perm[:cut], perm[cut:]):
            if removed == remove_target:
                break
            for a, b in zip((chunk // n).tolist(), (chunk % n).tolist()):
                if slack_i[a] and slack_j[b]:
                    slack_i[a] -= 1
                    slack_j[b] -= 1
                    gone_i[a] |= 1 << b
                    gone_j[b] |= 1 << a
                    removed += 1
                    if removed == remove_target:
                        break
        for a in range(n):
            masks[i * n + a] &= ~(gone_i[a] << (j * n))
            masks[j * n + a] &= ~(gone_j[a] << (i * n))
    g = PartiteGraph.from_masks(r, n, masks)
    if min_star_degree(g) < floor:
        raise RuntimeError(f"internal: generated instance fell below the degree floor {floor}")
    return g


class WitnessInstance(NamedTuple):
    graph: "PartiteGraph"
    vertex: int
    missing_part: int


def gen_no_factor_witness(r: int, n: int, seed: RandomSeed | int) -> WitnessInstance:
    """Complete graph minus one vertex's attachment to one foreign part.

    The named vertex sits in no transversal clique, so no factor exists while
    the rest of the graph stays as dense as possible.
    """
    if r < 2 or n < 1:
        raise ValueError("need r >= 2 and n >= 1")
    gen = as_seed(seed).generator()
    v = int(gen.integers(0, r * n))
    foreign = [j for j in range(r) if j != v // n]
    j = foreign[int(gen.integers(0, len(foreign)))]
    g = PartiteGraph.complete(r, n)
    masks = list(g.adj)
    masks[v] &= ~g.part_mask(j)
    for u in g.part_range(j):
        masks[u] &= ~(1 << v)
    return WitnessInstance(PartiteGraph.from_masks(r, n, masks), v, j)


def write_graph_file(g: PartiteGraph, path):
    """Plain-text graph: header line 'r n', then one 'u v' edge per line."""
    lines = [f"{g.r} {g.n}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    Path(path).write_text("\n".join(lines) + "\n")


def _read_lines(path, parse) -> list:
    """parse(fields) for each line of `path` that is neither blank nor a '#' comment.

    Raises FileFormatError as `path: ...` (unreadable) or `path, line N: ...` (parse failed).
    """
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise FileFormatError(f"{path}: {exc}") from exc
    out = []
    for num, raw in enumerate(text.splitlines(), start=1):
        fields = raw.split()
        if not fields or fields[0].startswith("#"):
            continue
        try:
            out.append(parse(fields))
        except ValueError as exc:
            raise FileFormatError(f"{path}, line {num}: {exc}") from exc
    return out


def _read_json_object(path) -> dict:
    """The JSON object stored in `path`; anything else raises FileFormatError."""
    try:
        payload = json.loads(Path(path).read_text())
    except OSError as exc:
        raise FileFormatError(f"{path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(payload, dict):
        raise FileFormatError(f"{path}: expected a JSON object")
    return payload


def _int_pair(fields) -> tuple[int, int]:
    if len(fields) != 2:
        raise ValueError("expected two integers")
    return int(fields[0]), int(fields[1])


def read_graph_file(path) -> PartiteGraph:
    """Parse a graph file written by write_graph_file; '#' lines are comments."""
    rows = _read_lines(path, _int_pair)
    if not rows:
        raise FileFormatError(f"{path}: empty graph file")
    try:
        return PartiteGraph(*rows[0], rows[1:])
    except ValueError as exc:
        raise FileFormatError(f"{path}: {exc}") from exc
