"""Density-regular partitioned instances for the multi-round pipeline.

A partitioned instance is a host graph whose parts are split into k clusters
each; the exceptional set is what the clusters leave over. The exact
densities of cluster pairs are what the pipeline's reduced graph is built from.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path
from typing import NamedTuple

import numpy as np

from ._num import bit_indices, fceil, mask_of, pack, unpack
from .errors import FileFormatError
from .graphs import PartiteGraph, _read_json_object
from .rng import RandomSeed, as_seed

EXHAUSTIVE_LIMIT = 12  # largest side check_regular_pair accepts


@dataclass(frozen=True)
class RegularityParams:
    epsilon: float
    d: float
    gamma: float

    def __post_init__(self):
        if not 0 < self.epsilon < 1:
            raise ValueError("epsilon must lie in (0, 1)")
        if not 0 < self.d <= 1:
            raise ValueError("d must lie in (0, 1]")
        if self.epsilon >= self.d:
            raise ValueError("need epsilon < d")
        if not 0 < self.gamma <= 1:
            raise ValueError("gamma must lie in (0, 1]")


@dataclass(frozen=True)
class PartitionedInstance:
    """Host graph + k >= 1 clusters per part + optional reserve pool.

    clusters[i][c] lists the c-th cluster of part i (ascending ids). `k` and
    `exceptional`, the ascending complement of the clusters, are derived;
    reserved, when present, is a subset of the clustered vertices (the
    pipeline's random half-reserve).
    """

    host: PartiteGraph
    clusters: tuple
    params: RegularityParams
    reserved: tuple[int, ...] | None = None

    def __post_init__(self):
        g = self.host
        clusters = tuple(
            tuple(tuple(sorted(int(v) for v in cl)) for cl in part)
            for part in self.clusters
        )
        object.__setattr__(self, "clusters", clusters)
        if self.reserved is not None:
            object.__setattr__(
                self, "reserved", tuple(sorted(int(v) for v in self.reserved))
            )
        if len(clusters) != g.r:
            raise ValueError(f"expected {g.r} parts of clusters")
        k = len(clusters[0])
        if k < 1:
            raise ValueError("need at least one cluster per part")
        covered = 0
        for i, part in enumerate(clusters):
            if len(part) != k:
                raise ValueError(f"part {i}: expected {k} clusters, got {len(part)}")
            for c, cl in enumerate(part):
                for v in cl:
                    if g.part_of(v) != i:
                        raise ValueError(f"cluster ({i},{c}): vertex {v} outside part {i}")
                    if (covered >> v) & 1:
                        raise ValueError(f"vertex {v} appears in two clusters")
                    covered |= 1 << v
        object.__setattr__(self, "k", k)
        exceptional = tuple(v for v in range(g.vertex_count) if not (covered >> v) & 1)
        object.__setattr__(self, "exceptional", exceptional)
        if self.reserved is not None:
            for v in self.reserved:
                if not (covered >> v) & 1:
                    raise ValueError(f"reserved vertex {v} is not in any cluster")

    def cluster_mask(self, i: int, c: int) -> int:
        return mask_of(self.clusters[i][c])

    def exceptional_mask(self) -> int:
        return mask_of(self.exceptional)

    def reserved_mask(self) -> int:
        return mask_of(self.reserved or ())


def gen_super_regular_instance(
    r: int,
    k: int,
    cluster_size: int,
    d: float,
    b_size: int,
    seed: RandomSeed | int,
    *,
    b_attach: float = 0.9,
    gamma: float = 0.2,
    epsilon: float | None = None,
) -> PartitionedInstance:
    """Random instance whose cluster pairs have planted density d.

    Every cross-part vertex pair gets an independent edge coin: probability d
    between clustered vertices, b_attach when either endpoint is exceptional.
    b_size must be divisible by r (the exceptional set is spread evenly so
    parts stay balanced). The stored edge threshold params.d is d - epsilon,
    so a planted pair keeps its reduced-graph edge unless its exact density
    falls epsilon below d.
    """
    if r < 2 or k < 1 or cluster_size < 1:
        raise ValueError("need r >= 2, k >= 1, cluster_size >= 1")
    if not 0 < d <= 1:
        raise ValueError("d must lie in (0, 1]")
    if b_size < 0 or b_size % r != 0:
        raise ValueError("b_size must be nonnegative and divisible by r")
    if not 0 < b_attach <= 1:
        raise ValueError("b_attach must lie in (0, 1]")
    if epsilon is None:
        epsilon = min(0.2, d / 3)
    params = RegularityParams(epsilon=epsilon, d=round(d - epsilon, 9), gamma=gamma)
    b_per = b_size // r
    core = k * cluster_size
    n = core + b_per
    base = as_seed(seed)
    adj = np.zeros((r * n, r * n), dtype=bool)
    for rank, (i, j) in enumerate(combinations(range(r), 2)):
        gen = base.substream(rank).generator()
        coins = gen.random((n, n))
        thresh = np.full((n, n), d)
        if b_per:
            thresh[core:, :] = b_attach
            thresh[:, core:] = b_attach
        bools = coins < thresh
        adj[i * n : (i + 1) * n, j * n : (j + 1) * n] = bools
        adj[j * n : (j + 1) * n, i * n : (i + 1) * n] = bools.T
    clusters = tuple(
        tuple(
            tuple(range(i * n + c * cluster_size, i * n + (c + 1) * cluster_size))
            for c in range(k)
        )
        for i in range(r)
    )
    return PartitionedInstance(
        host=PartiteGraph.from_masks(r, n, pack(adj)), clusters=clusters, params=params
    )


@dataclass(frozen=True)
class RegPairReport:
    regular: bool
    density: float
    epsilon: float
    witness: tuple | None  # (A, B, observed_density) when irregular
    pairs_checked: int


def check_regular_pair(g: PartiteGraph, xs, ys, epsilon: float) -> RegPairReport:
    """Is the (X, Y) pair epsilon-regular? Exact, for sides of at most
    EXHAUSTIVE_LIMIT vertices; larger sides raise ValueError.

    Every subset A of X with |A| >= eps|X| is paired against the extremal
    subsets of Y of each admissible size (the densest/sparsest B of a given
    size against a fixed A consist of the highest/lowest A-degree vertices,
    so sorted prefixes cover all extremes). The first pair whose density is
    eps-far from the pair's own is the witness.
    """
    if not 0 < epsilon < 1:
        raise ValueError("epsilon must lie in (0, 1)")
    X = tuple(sorted({int(v) for v in xs}))
    Y = tuple(sorted({int(v) for v in ys}))
    if not X or not Y:
        raise ValueError("X and Y must be nonempty")
    if set(X) & set(Y):
        raise ValueError("X and Y overlap")
    for name, side in (("X", X), ("Y", Y)):
        parts = {g.part_of(v) for v in side}
        if len(parts) != 1:
            raise ValueError(f"{name} spans multiple parts")
    if g.part_of(X[0]) == g.part_of(Y[0]):
        raise ValueError("X and Y lie in the same part")
    lx, ly = len(X), len(Y)
    if lx > EXHAUSTIVE_LIMIT or ly > EXHAUSTIVE_LIMIT:
        raise ValueError(f"exhaustive check limited to side size {EXHAUSTIVE_LIMIT}")
    M = unpack([g.adj[x] for x in X], g.vertex_count)[:, list(Y)]  # M[s, t]: X[s] ~ Y[t]
    density = int(M.sum()) / (lx * ly)
    a_min = max(1, fceil(epsilon * lx))
    b_min = max(1, fceil(epsilon * ly))
    cols = pack(M.T)  # per-y adjacency masks over X-index space
    checked = 0
    for amask in range(1, 1 << lx):
        sz = amask.bit_count()
        if sz < a_min:
            continue
        deg = [(c & amask).bit_count() for c in cols]
        order = sorted(range(ly), key=lambda t: (-deg[t], t))
        prefix = [0]
        for t in order:
            prefix.append(prefix[-1] + deg[t])
        total = prefix[-1]
        for b in range(b_min, ly + 1):
            for top, e_ab in ((True, prefix[b]), (False, total - prefix[ly - b])):
                checked += 1
                obs = e_ab / (sz * b)
                if abs(obs - density) >= epsilon:
                    chosen = order[:b] if top else order[ly - b :]
                    witness = (
                        tuple(X[t] for t in bit_indices(amask)),
                        tuple(sorted(Y[t] for t in chosen)),
                        obs,
                    )
                    return RegPairReport(False, density, epsilon, witness, checked)
    return RegPairReport(True, density, epsilon, None, checked)


class ReducedGraphResult(NamedTuple):
    graph: PartiteGraph
    densities: dict


def build_reduced_graph(instance: PartitionedInstance) -> ReducedGraphResult:
    """Cluster graph: one vertex per cluster, edges for dense cluster pairs.

    Cluster (i, c) becomes vertex i*k + c. A cross-part pair of nonempty
    clusters (X, Y) gets an edge iff its exact density e(X, Y) / (|X| |Y|) is
    at least params.d; `densities` maps (i, ci, j, cj) to that density.
    """
    g = instance.host
    k = instance.k
    d = instance.params.d
    masks = [0] * (g.r * k)
    densities: dict[tuple[int, int, int, int], float] = {}
    for i, j in combinations(range(g.r), 2):
        for ci, X in enumerate(instance.clusters[i]):
            for cj, Y in enumerate(instance.clusters[j]):
                if not X or not Y:
                    continue
                ymask = instance.cluster_mask(j, cj)
                e_xy = sum((g.adj[x] & ymask).bit_count() for x in X)
                density = densities[(i, ci, j, cj)] = e_xy / (len(X) * len(Y))
                if density >= d:
                    u = i * k + ci
                    v = j * k + cj
                    masks[u] |= 1 << v
                    masks[v] |= 1 << u
    return ReducedGraphResult(PartiteGraph.from_masks(g.r, k, masks), densities)


def instance_to_json(inst: PartitionedInstance) -> dict:
    return {
        "format": "partitioned-instance",
        "r": inst.host.r,
        "n": inst.host.n,
        "params": {
            "epsilon": inst.params.epsilon,
            "d": inst.params.d,
            "gamma": inst.params.gamma,
            "k": inst.k,
        },
        "clusters": [[list(cl) for cl in part] for part in inst.clusters],
        "exceptional": list(inst.exceptional),
        "reserved": list(inst.reserved) if inst.reserved is not None else None,
        "edges": [[u, v] for u, v in inst.host.edges()],
    }


def instance_from_json(payload: dict) -> PartitionedInstance:
    try:
        if payload.get("format") != "partitioned-instance":
            raise FileFormatError(
                f"unexpected format tag {payload.get('format')!r}"
            )
        params = dict(payload.get("params", ()))
        missing = [
            f for f in ("r", "n", "params", "clusters", "exceptional", "edges") if f not in payload
        ]
        missing += [f"params.{f}" for f in ("epsilon", "d", "gamma", "k") if f not in params]
        if missing:
            raise ValueError("missing field " + ", ".join(missing))
        k = params.pop("k")
        host = PartiteGraph(
            int(payload["r"]), int(payload["n"]), [tuple(e) for e in payload["edges"]]
        )
        reserved = payload.get("reserved")
        inst = PartitionedInstance(
            host=host,
            clusters=tuple(tuple(tuple(cl) for cl in part) for part in payload["clusters"]),
            params=RegularityParams(**params),
            reserved=tuple(reserved) if reserved is not None else None,
        )
        # the stored k and exceptional set are for readers; they must match the clusters
        if k != inst.k:
            raise ValueError(f"params.k is {k} but each part has {inst.k} clusters")
        if sorted(int(v) for v in payload["exceptional"]) != list(inst.exceptional):
            raise ValueError("exceptional set is not the complement of the clusters")
        return inst
    except FileFormatError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise FileFormatError(f"bad partitioned-instance payload: {exc}") from exc


def write_instance(inst: PartitionedInstance, path):
    Path(path).write_text(json.dumps(instance_to_json(inst), sort_keys=True) + "\n")


def read_instance(path) -> PartitionedInstance:
    return instance_from_json(_read_json_object(path))


def residual_instance(
    inst: PartitionedInstance, remove_mask: int
) -> PartitionedInstance:
    """Copy of `inst` with the masked vertices moved out of clusters/reserve."""
    clusters = tuple(
        tuple(
            tuple(v for v in cl if not (remove_mask >> v) & 1) for cl in part
        )
        for part in inst.clusters
    )
    reserved = None
    if inst.reserved is not None:
        reserved = tuple(v for v in inst.reserved if not (remove_mask >> v) & 1)
    return PartitionedInstance(
        host=inst.host,
        clusters=clusters,
        params=inst.params,
        reserved=reserved,
    )
