"""Density-regular partitioned instances for the multi-round pipeline.

A partitioned instance is a host graph whose parts are split into k clusters
each plus an exceptional leftover set; pair-density regularity between
clusters is what the pipeline's reduced graph is built from.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import combinations
from pathlib import Path
from typing import NamedTuple

import numpy as np

from ._num import bit_indices, fceil, mask_of, pack, unpack
from .errors import FileFormatError
from .graphs import PartiteGraph, _read_json_object
from .rng import RandomSeed, as_seed

EXHAUSTIVE_LIMIT = 12  # exhaustive subset checking up to this side size
_SAMPLE_BLOCK = 512  # sampled subset pairs drawn and counted per batch


@dataclass(frozen=True)
class RegularityParams:
    epsilon: float
    d: float
    gamma: float
    k: int

    def __post_init__(self):
        if not 0 < self.epsilon < 1:
            raise ValueError("epsilon must lie in (0, 1)")
        if not 0 < self.d <= 1:
            raise ValueError("d must lie in (0, 1]")
        if self.epsilon >= self.d:
            raise ValueError("need epsilon < d")
        if not 0 < self.gamma <= 1:
            raise ValueError("gamma must lie in (0, 1]")
        if self.k < 1:
            raise ValueError("k must be positive")


@dataclass(frozen=True)
class PartitionedInstance:
    """Host graph + per-part clusters, exceptional set, optional reserve pool.

    clusters[i][c] lists the c-th cluster of part i (ascending ids);
    exceptional is exactly the complement of all clusters; reserved, when
    present, is a subset of the clustered vertices (the pipeline's random
    half-reserve).
    """

    host: PartiteGraph
    clusters: tuple
    exceptional: tuple[int, ...]
    params: RegularityParams
    reserved: tuple[int, ...] | None = None
    densities: dict | None = field(default=None, compare=False)

    def __post_init__(self):
        g = self.host
        clusters = tuple(
            tuple(tuple(sorted(int(v) for v in cl)) for cl in part)
            for part in self.clusters
        )
        object.__setattr__(self, "clusters", clusters)
        object.__setattr__(
            self, "exceptional", tuple(sorted(int(v) for v in self.exceptional))
        )
        if self.reserved is not None:
            object.__setattr__(
                self, "reserved", tuple(sorted(int(v) for v in self.reserved))
            )
        if len(clusters) != g.r:
            raise ValueError(f"expected {g.r} parts of clusters")
        k = self.params.k
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
        expect_b = tuple(v for v in range(g.vertex_count) if not (covered >> v) & 1)
        if self.exceptional != expect_b:
            raise ValueError("exceptional set is not the complement of the clusters")
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
    parts stay balanced). The stored check threshold is d - epsilon, so
    sampling noise cannot orphan a planted pair; measured cluster-pair
    densities ride along in `densities`.
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
    params = RegularityParams(
        epsilon=epsilon, d=round(d - epsilon, 9), gamma=gamma, k=k
    )
    b_per = b_size // r
    core = k * cluster_size
    n = core + b_per
    base = as_seed(seed)
    adj = np.zeros((r * n, r * n), dtype=bool)
    densities: dict[tuple[int, int, int, int], float] = {}
    for rank, (i, j) in enumerate(combinations(range(r), 2)):
        gen = base.substream(rank).generator()
        coins = gen.random((n, n))
        thresh = np.full((n, n), d)
        if b_per:
            thresh[core:, :] = b_attach
            thresh[:, core:] = b_attach
        bools = coins < thresh
        for ci in range(k):
            for cj in range(k):
                block = bools[
                    ci * cluster_size : (ci + 1) * cluster_size,
                    cj * cluster_size : (cj + 1) * cluster_size,
                ]
                densities[(i, ci, j, cj)] = float(block.sum()) / (cluster_size**2)
        adj[i * n : (i + 1) * n, j * n : (j + 1) * n] = bools
        adj[j * n : (j + 1) * n, i * n : (i + 1) * n] = bools.T
    clusters = tuple(
        tuple(
            tuple(range(i * n + c * cluster_size, i * n + (c + 1) * cluster_size))
            for c in range(k)
        )
        for i in range(r)
    )
    exceptional = tuple(
        v for i in range(r) for v in range(i * n + core, (i + 1) * n)
    )
    return PartitionedInstance(
        host=PartiteGraph.from_masks(r, n, pack(adj)),
        clusters=clusters,
        exceptional=exceptional,
        params=params,
        densities=densities,
    )


@dataclass(frozen=True)
class RegPairReport:
    regular: bool
    density: float
    epsilon: float
    mode: str  # "exhaustive" | "sampled"
    witness: tuple | None  # (A, B, observed_density) when irregular
    pairs_checked: int


def check_regular_pair(
    g: PartiteGraph,
    xs,
    ys,
    epsilon: float,
    *,
    mode: str = "auto",
    samples: int = 500,
    seed: RandomSeed | int = 0,
) -> RegPairReport:
    """Is the (X, Y) pair epsilon-regular?

    Exhaustive when both sides have at most EXHAUSTIVE_LIMIT vertices: every
    subset A of X with |A| >= eps|X| is paired against the extremal subsets of
    Y of each admissible size (the densest/sparsest B of a given size against
    a fixed A consist of the highest/lowest A-degree vertices, so sorted
    prefixes cover all extremes). Otherwise uniformly sampled subset pairs;
    a sampled "regular" verdict is evidence, not proof, while any witness
    returned is exact.

    Sampled mode draws, per sample and in this order from one generator
    seeded by `seed`, |A| in [eps|X|, |X|], |B| likewise, then a permutation
    of X and one of Y whose first |A| and |B| entries are the subsets. Draws
    come in blocks of _SAMPLE_BLOCK (512) samples, and each block's e(A, B)
    counts are one matrix product. The check stops after the first block
    holding a deviation, and the witness is that block's first deviating
    sample, so verdicts, witnesses and `pairs_checked` equal those of a
    sample-by-sample loop.
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
    M = unpack([g.adj[x] for x in X], g.vertex_count)[:, list(Y)]  # M[s, t]: X[s] ~ Y[t]
    density = int(M.sum()) / (lx * ly)
    a_min = max(1, fceil(epsilon * lx))
    b_min = max(1, fceil(epsilon * ly))
    if mode == "auto":
        mode = "exhaustive" if lx <= EXHAUSTIVE_LIMIT and ly <= EXHAUSTIVE_LIMIT else "sampled"
    if mode == "exhaustive":
        if lx > EXHAUSTIVE_LIMIT or ly > EXHAUSTIVE_LIMIT:
            raise ValueError(
                f"exhaustive mode limited to side size {EXHAUSTIVE_LIMIT}"
            )
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
                        return RegPairReport(
                            False, density, epsilon, "exhaustive", witness, checked
                        )
        return RegPairReport(True, density, epsilon, "exhaustive", None, checked)
    if mode != "sampled":
        raise ValueError("mode must be 'auto', 'exhaustive' or 'sampled'")
    if samples < 1:
        raise ValueError("samples must be positive")
    gen = as_seed(seed).generator()
    Mf = M.astype(np.float64)  # sums of 0/1 products are exact in float64
    for start in range(0, samples, _SAMPLE_BLOCK):
        block = min(_SAMPLE_BLOCK, samples - start)
        sa = np.empty(block, np.int64)
        sb = np.empty(block, np.int64)
        PA = np.empty((block, lx), np.int64)
        PB = np.empty((block, ly), np.int64)
        for t in range(block):
            sa[t] = gen.integers(a_min, lx + 1)
            sb[t] = gen.integers(b_min, ly + 1)
            PA[t] = gen.permutation(lx)
            PB[t] = gen.permutation(ly)
        # sample t's A is PA[t, :sa[t]]: index q is in it iff its position is below sa[t]
        IA = PA.argsort(axis=1) < sa[:, None]
        IB = PB.argsort(axis=1) < sb[:, None]
        obs = ((IA @ Mf) * IB).sum(axis=1) / (sa * sb)
        bad = np.flatnonzero(np.abs(obs - density) >= epsilon)
        if bad.size:
            t = int(bad[0])
            witness = (
                tuple(sorted(X[q] for q in PA[t, : sa[t]].tolist())),
                tuple(sorted(Y[q] for q in PB[t, : sb[t]].tolist())),
                float(obs[t]),
            )
            return RegPairReport(False, density, epsilon, "sampled", witness, start + t + 1)
    return RegPairReport(True, density, epsilon, "sampled", None, samples)


class ReducedGraphResult(NamedTuple):
    graph: PartiteGraph
    reports: dict


def build_reduced_graph(
    instance: PartitionedInstance,
    *,
    seed: RandomSeed | int = 0,
    samples: int = 500,
) -> ReducedGraphResult:
    """Cluster graph: one vertex per cluster, edges for dense regular pairs.

    Cluster (i, c) becomes vertex i*k + c. A cross-part cluster pair gets an
    edge iff check_regular_pair accepts it at params.epsilon and its density
    is at least params.d.
    """
    g = instance.host
    k = instance.params.k
    eps = instance.params.epsilon
    d = instance.params.d
    base = as_seed(seed)
    masks = [0] * (g.r * k)
    reports: dict[tuple[int, int, int, int], RegPairReport] = {}
    rank = 0
    for i, j in combinations(range(g.r), 2):
        for ci in range(k):
            for cj in range(k):
                X = instance.clusters[i][ci]
                Y = instance.clusters[j][cj]
                rank += 1
                if not X or not Y:
                    continue
                rep = check_regular_pair(
                    g, X, Y, eps, samples=samples, seed=base.substream(rank)
                )
                reports[(i, ci, j, cj)] = rep
                if rep.regular and rep.density >= d:
                    u = i * k + ci
                    v = j * k + cj
                    masks[u] |= 1 << v
                    masks[v] |= 1 << u
    return ReducedGraphResult(PartiteGraph.from_masks(g.r, k, masks), reports)


def instance_to_json(inst: PartitionedInstance) -> dict:
    return {
        "format": "partitioned-instance",
        "r": inst.host.r,
        "n": inst.host.n,
        "params": {
            "epsilon": inst.params.epsilon,
            "d": inst.params.d,
            "gamma": inst.params.gamma,
            "k": inst.params.k,
        },
        "clusters": [[list(cl) for cl in part] for part in inst.clusters],
        "exceptional": list(inst.exceptional),
        "reserved": list(inst.reserved) if inst.reserved is not None else None,
        "densities": (
            [[*key, val] for key, val in sorted(inst.densities.items())]
            if inst.densities is not None
            else None
        ),
        "edges": [[u, v] for u, v in inst.host.edges()],
    }


def instance_from_json(payload: dict) -> PartitionedInstance:
    try:
        if payload.get("format") != "partitioned-instance":
            raise FileFormatError(
                f"unexpected format tag {payload.get('format')!r}"
            )
        params = RegularityParams(**payload["params"])
        host = PartiteGraph(
            int(payload["r"]), int(payload["n"]), [tuple(e) for e in payload["edges"]]
        )
        densities = None
        if payload.get("densities") is not None:
            densities = {tuple(row[:4]): float(row[4]) for row in payload["densities"]}
        reserved = payload.get("reserved")
        return PartitionedInstance(
            host=host,
            clusters=tuple(tuple(tuple(cl) for cl in part) for part in payload["clusters"]),
            exceptional=tuple(payload["exceptional"]),
            params=params,
            reserved=tuple(reserved) if reserved is not None else None,
            densities=densities,
        )
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
    covered = 0
    for part in clusters:
        for cl in part:
            covered |= mask_of(cl)
    exceptional = tuple(
        v for v in range(inst.host.vertex_count) if not (covered >> v) & 1
    )
    reserved = None
    if inst.reserved is not None:
        reserved = tuple(v for v in inst.reserved if not (remove_mask >> v) & 1)
    return PartitionedInstance(
        host=inst.host,
        clusters=clusters,
        exceptional=exceptional,
        params=inst.params,
        reserved=reserved,
    )
