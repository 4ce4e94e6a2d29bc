"""Three-round clique-factor pipeline on partitioned instances.

Each round draws its own sparsification of the host at the per-round
probability. Round 1 covers the exceptional vertices with cliques of the
first sparsification inside the exceptional-plus-reserve pool. Round 2
computes integer clique weights on the reduced cluster graph and extracts
that many disjoint cliques per cluster tuple from the second, drawing
replacements from the reserve, so every cluster shrinks to a common residue
target. Round 3 finishes each cluster tuple with an exact factor search on
the third. A choice that round 2 cannot balance, or that leaves round 3 a
tuple it cannot finish, sends round 2 back for another random choice of
cliques, up to ROUND2_ATTEMPTS choices. The assembled factor is verified in
the union of the three sparsifications, the pipeline's G(p).
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass, replace

import numpy as np

from ._num import bit_indices, ffloor, mask_of, unpack
from .cliques import _clique_list, _clique_stream, check_clique
from .errors import BalanceError, BalanceTuplesError, BudgetExceededError, CoverError
from .graphs import PartiteGraph, min_star_degree, split_rounds, sparsify
from .regularity import PartitionedInstance, build_reduced_graph, residual_instance
from .rng import as_seed, randbelow
from .solver import (
    DEFAULT_ROW_BUDGET,
    Tiling,
    solve_restricted,
    verify_factor,
)


RESERVE_ATTEMPTS = 100  # reserve draws tried before reserve selection gives up
ROUND2_ATTEMPTS = 5  # round-2 clique choices tried before round 3 gives up


@dataclass(frozen=True)
class CoverResult:
    tiling: Tiling
    quota_usage: tuple[int, ...]
    warnings: tuple[str, ...]


def _cheapest_clique(g, gp, v, allowed, cap, levels):
    """Scan the first `cap` cliques of g through root v inside `allowed`, in order.

    `levels` lists (load, mask) pairs by ascending load; a vertex in no mask
    weighs inf. Returns the number of cliques scanned, how many of them have
    a finite key (summed load), and the first of least finite key that is a
    clique of gp, or None. The cliques are never listed: at the last free
    part every extension of a prefix is one mask, and popcounts count it.
    """
    # the allowed vertices of every part but the root's, in part order, so
    # a depth-first walk over them meets the cliques lexicographically
    free = [allowed & m for i, m in enumerate(g.part_masks) if i != g.part_of(v)]
    finite = 0
    for _, m in levels:
        finite |= m
    seen = survivors = 0
    best_key, best = math.inf, None

    def walk(d, common, common_p, fin, key, prefix):
        # common: common g-neighbours of the root and the prefix; common_p:
        # the same in gp, 0 once the prefix is not a gp-clique with the root;
        # fin: the finite-load vertices, 0 once the prefix's key is inf
        nonlocal seen, survivors, best_key, best
        if d == len(free) - 1:
            m = common & free[-1]
            if m.bit_count() >= cap - seen:  # the cap ends inside m: keep its lowest bits
                rest = m
                for _ in range(cap - seen):
                    rest &= rest - 1
                m ^= rest
            seen += m.bit_count()
            m &= fin
            survivors += m.bit_count()
            m &= common_p
            for load, lm in levels:
                if m & lm:
                    if key + load < best_key:  # ties keep the earlier clique
                        low = m & lm & -(m & lm)
                        best_key, best = key + load, prefix + (low.bit_length() - 1,)
                    break
            return seen == cap
        for x in bit_indices(common & free[d]):
            load = next((lv for lv, lm in levels if lm >> x & 1), 0)
            if walk(
                d + 1,
                common & g.adj[x],
                common_p & gp.adj[x] if common_p >> x & 1 else 0,
                fin if fin >> x & 1 else 0,
                key + load,
                prefix + (x,),
            ):
                return True
        return False

    walk(0, g.adj[v], gp.adj[v], finite, 0, ())
    return seen, survivors, None if best is None else tuple(sorted(best + (v,)))


def cover_exceptional(
    g: PartiteGraph,
    roots,
    mu: float,
    quotas,
    seed,
    *,
    p: float = 1.0,
    allowed: int | None = None,
):
    """Place one surviving clique on each root, respecting quota sets.

    Candidates for a root are the lexicographically first floor(mu * N^(r-1))
    transversal cliques of `g` through it inside `allowed` (N = |allowed|).
    Candidates touching already-used vertices, later roots, or saturated
    quota sets are discarded. The rest are ordered by the summed usage of the
    quota sets their vertices lie in, least used first and lexicographically
    on ties, so the roots spread over the clusters; the first of them that is
    a clique of `sparsify(g, p, seed)` is taken, and the returned tiling's
    host is that sparsified graph. The pick is computed on bitmasks, without
    listing the candidates: each prefix's extensions in the last free part
    form one mask, whose best vertex is the lowest one in the least loaded
    quota level it meets (see `_cheapest_clique`). A quota set its usage exceeds 4*r*mu*|X_s| - 1 (slightly stricter than the exact
    threshold when it is fractional), which caps final usage at
    4*r*mu*|X_s| + r - 2.
    """
    if mu <= 0:
        raise ValueError("mu must be positive")
    gp = sparsify(g, p, seed)
    roots = [int(v) for v in roots]
    if len(set(roots)) != len(roots):
        raise ValueError("roots must be distinct")
    for v in roots:
        if not 0 <= v < g.vertex_count:
            raise ValueError(f"root {v} out of range")
    universe = (1 << g.vertex_count) - 1
    allowed = universe if allowed is None else int(allowed)
    if allowed >> g.vertex_count:
        raise ValueError("allowed has a vertex out of range")
    for v in roots:
        if not (allowed >> v) & 1:
            raise ValueError(f"root {v} outside the allowed set")
    quota_of = [len(quotas)] * g.vertex_count  # quota set per vertex; none -> past the end
    qmasks = []
    thresholds = []
    taken = 0
    pending = mask_of(roots)  # roots not yet covered
    for s, xs in enumerate(quotas):
        xs = [int(v) for v in xs]
        m = mask_of(xs)
        if m >> g.vertex_count:
            raise ValueError(f"quota set {s} has a vertex out of range")
        if m & pending:
            raise ValueError(f"quota set {s} contains a root")
        if m & taken:
            raise ValueError(f"quota set {s} overlaps another quota set")
        taken |= m
        for u in xs:
            quota_of[u] = s
        qmasks.append(m)
        thresholds.append(4 * g.r * mu * m.bit_count())
    bigN = allowed.bit_count()
    warnings: list[str] = []
    cap = ffloor(mu * bigN ** (g.r - 1))
    if cap < 1:
        warnings.append(f"candidate cap {cap} < 1; clamped to 1")
        cap = 1
    if len(roots) > mu * mu * bigN + 1e-9:
        warnings.append(
            f"{len(roots)} roots exceeds mu^2 * N = {mu * mu * bigN:.3f}"
        )
    usage = [0] * len(quotas)
    used = 0
    chosen = []
    for v in roots:
        pending ^= 1 << v
        # vertices by load, ascending; vertices already used, later roots and
        # saturated quota sets get no level, so they weigh inf
        by_load = {0: universe & ~taken}
        for s, m in enumerate(qmasks):
            if usage[s] <= thresholds[s] - 1:
                by_load[usage[s]] = by_load.get(usage[s], 0) | m
        levels = [(load, m & ~(used | pending)) for load, m in sorted(by_load.items())]
        seen, survivors, pick = _cheapest_clique(g, gp, v, allowed, cap, levels)
        if seen < cap:
            warnings.append(f"root {v}: only {seen} candidates (cap {cap})")
        if pick is None:
            raise CoverError(v, survivors)
        chosen.append(pick)
        used |= mask_of(pick)
        for u in pick:
            if quota_of[u] < len(quotas):
                usage[quota_of[u]] += 1
    for s, u in enumerate(usage):
        if u > thresholds[s] + g.r - 2 + 1e-9:
            raise RuntimeError(f"internal: quota set {s} over budget ({u})")
    return CoverResult(Tiling(gp, tuple(sorted(chosen))), tuple(usage), tuple(warnings))


@dataclass(frozen=True)
class WeightAssignment:
    """Integer clique weights omega with sum_{K ∋ v} omega(K) = lam(v)."""

    reduced: PartiteGraph
    lam: tuple[int, ...]
    omega: dict
    checks: dict

    def __post_init__(self):
        object.__setattr__(self, "lam", tuple(int(x) for x in self.lam))
        if len(self.lam) != self.reduced.vertex_count:
            raise ValueError("lam must assign every reduced-graph vertex")
        implied = [0] * self.reduced.vertex_count
        for K, w in self.omega.items():
            if w < 0:
                raise ValueError(f"omega[{K}] negative")
            check_clique(self.reduced, K)
            for v in K:
                implied[v] += w
        if list(self.lam) != implied:
            raise ValueError("omega does not realize lam")


def _realize(reduced: PartiteGraph, lam, max_rows: int):
    """Cliques, with repeats, covering each reduced vertex v exactly lam[v] times.

    Exhaustive depth-first search over the residual lam vector: each step
    covers the lowest vertex with residual left (a part-0 vertex, as part sums
    are equal) by the next clique, in lexicographic order, whose vertices all
    have residual left. Residual vectors shown to fail are remembered, so no
    state is searched twice; more than `max_rows` of them raise
    BudgetExceededError. Returns None when no such multiset exists.
    """
    at: list[list[tuple[tuple[int, ...], int]]] = [[] for _ in range(reduced.n)]
    for K in _clique_stream(reduced, reduced.part_masks):
        at[K[0]].append((K, mask_of(K)))
    left = list(lam)
    dead = mask_of(v for v, x in enumerate(left) if not x)  # vertices with no lam left
    failed: set[tuple[int, ...]] = set()
    path: list[tuple[tuple[int, ...], int]] = []
    nxt = [0]  # nxt[d]: index of the next clique to try at depth d
    while nxt:
        live = reduced.part_mask(0) & ~dead
        if not live:
            return [K for K, _ in path]
        v = (live & -live).bit_length() - 1
        for i in range(nxt[-1], len(at[v])):
            K, m = at[v][i]
            if not m & dead:
                for u in K:
                    left[u] -= 1
                    if not left[u]:
                        dead |= 1 << u
                if tuple(left) not in failed:
                    break
                for u in K:
                    left[u] += 1
                dead &= ~m
        else:
            failed.add(tuple(left))
            if len(failed) > max_rows:
                raise BudgetExceededError(
                    f"weight search remembered more than {max_rows} failed states"
                )
            nxt.pop()
            if path:
                K, m = path.pop()
                for u in K:
                    left[u] += 1
                dead &= ~m
            continue
        nxt[-1] = i + 1
        nxt.append(0)
        path.append((K, m))
    return None


def balance_weights(
    reduced: PartiteGraph,
    lam,
    gamma: float,
    *,
    max_rows: int = DEFAULT_ROW_BUDGET,
) -> WeightAssignment:
    """Clique weights on the reduced graph meeting per-vertex totals `lam`.

    Searches the weights directly on the reduced graph (see `_realize`), so a
    BalanceError for the search means no such weights exist; a search past
    `max_rows` remembered failures raises BudgetExceededError. Hypothesis
    diagnostics (lambda within (1 ± gamma/4) of the mean, reduced min star
    degree) are recorded in `checks` and included in the failure message, but
    only unequal part sums and a failed search raise.
    """
    if not 0 < gamma <= 1:
        raise ValueError("gamma must lie in (0, 1]")
    lam = [int(x) for x in lam]
    if len(lam) != reduced.vertex_count:
        raise ValueError(
            f"lam must list {reduced.vertex_count} values, got {len(lam)}"
        )
    if any(x < 0 for x in lam):
        raise ValueError("lam values must be nonnegative")
    k = reduced.n
    part_sums = [sum(lam[i * k : (i + 1) * k]) for i in range(reduced.r)]
    mean = sum(lam) / len(lam)
    checks = {
        "part_sums_equal": len(set(part_sums)) == 1,
        "lambda_in_range": all(
            (1 - gamma / 4) * mean - 1e-9 <= x <= (1 + gamma / 4) * mean + 1e-9
            for x in lam
        ),
        "min_star_degree_ok": min_star_degree(reduced)
        >= (1 - 1 / reduced.r + gamma / 2) * k - 1e-9,
    }
    if not checks["part_sums_equal"]:
        raise BalanceError(f"lambda part sums differ: {part_sums}", checks)
    cliques = _realize(reduced, lam, max_rows)
    if cliques is None:
        raise BalanceError("no weights: the lambda blow-up has no factor", checks)
    return WeightAssignment(reduced, tuple(lam), dict(Counter(cliques)), checks)


def balance_tuples(
    g_round: PartiteGraph,
    instance: PartitionedInstance,
    omega,
    target: int,
    seed,
) -> Tiling:
    """Extract omega(K) disjoint present cliques per cluster tuple K.

    Picks only reserve-pool vertices, so after removal every cluster holds
    exactly `target` vertices. A tuple's candidates are its present cliques
    avoiding earlier tuples' picks; each copy is a uniformly random choice
    among those avoiding the copies already drawn. A tuple whose random
    choice runs out of candidates before omega(K) copies raises
    BalanceTuplesError; that is no proof that the copies cannot be disjoint,
    and another choice may succeed. A tuple with more than DEFAULT_ROW_BUDGET
    candidates raises BudgetExceededError.
    """
    if target < 0:
        raise ValueError("target must be nonnegative")
    if instance.reserved is None:
        raise ValueError("instance has no reserved pool to draw from")
    k = instance.k
    r = g_round.r
    implied = {}
    for K, w in sorted(omega.items()):
        w = int(w)
        if w < 0:
            raise ValueError(f"omega[{K}] negative")
        if len(K) != r:
            raise ValueError(f"omega key {K}: expected {r} clusters")
        for slot, rv in enumerate(K):
            if not slot * k <= rv < (slot + 1) * k:
                raise ValueError(f"omega key {K}: entry {rv} not a part-{slot} cluster")
            implied[rv] = implied.get(rv, 0) + w
    rmask = instance.reserved_mask()
    avail = {}
    for i in range(r):
        for c in range(k):
            rv = i * k + c
            cl = instance.clusters[i][c]
            need = implied.get(rv, 0)
            if len(cl) - need != target:
                raise BalanceTuplesError(
                    f"cluster ({i},{c}): {len(cl)} vertices minus {need} picks "
                    f"leaves {len(cl) - need}, not the target {target}"
                )
            pool = mask_of(cl) & rmask
            if pool.bit_count() < need:
                raise BalanceTuplesError(
                    f"cluster ({i},{c}): reserve pool {pool.bit_count()} "
                    f"smaller than required picks {need}"
                )
            avail[rv] = pool
    gen = as_seed(seed).generator()
    used = 0
    chosen: list[tuple[int, ...]] = []
    for K in sorted(omega):
        need = int(omega[K])
        if need == 0:
            continue
        # enumerated once: each copy draws from those avoiding earlier copies
        masks = [avail[K[i]] & ~used for i in range(r)]
        cand = _clique_list(g_round, masks, DEFAULT_ROW_BUDGET)
        cmasks = [mask_of(cl) for cl in cand]
        live = range(len(cand))
        picks = []
        while live and len(picks) < need:
            i = live[randbelow(gen, len(live))]
            picks.append(i)
            live = [j for j in live if not cmasks[j] & cmasks[i]]
        if len(picks) < need:
            raise BalanceTuplesError(
                f"the random choice stranded tuple {K} after {len(picks)} of {need} cliques",
                tuple_key=K,
            )
        for i in picks:
            used |= cmasks[i]
            chosen.append(cand[i])
    for rv, need in implied.items():
        got = (used & avail[rv]).bit_count()
        if got != need:
            raise RuntimeError(f"internal: cluster {rv} lost {got} vertices, wanted {need}")
    return Tiling(g_round, tuple(sorted(chosen)))


def _reserve_conditions(
    inst: PartitionedInstance, wmask: int, alpha: float
) -> tuple[bool, dict]:
    """Gate + diagnostics for a candidate reserve pool W.

    Gates: per-cluster |W ∩ cluster| within (1/2 ± alpha) * n/k, and every
    exceptional vertex keeps cross-part degree into W ∩ part at least
    (1 - 1/r + gamma/4) of that slice. The per-vertex (1/2 ± 1/4) cluster-
    degree split is tallied as a diagnostic only.
    """
    g = inst.host
    r, n, k = g.r, g.n, inst.k
    gamma = inst.params.gamma
    nominal = n / k
    cmasks = [[inst.cluster_mask(i, c) for c in range(k)] for i in range(r)]
    counts = []
    counts_ok = True
    for i in range(r):
        for cm in cmasks[i]:
            cnt = (cm & wmask).bit_count()
            counts.append(cnt)
            if not (0.5 - alpha) * nominal - 1e-9 <= cnt <= (0.5 + alpha) * nominal + 1e-9:
                counts_ok = False
    degrees_ok = True
    floor_frac = 1 - 1 / r + gamma / 4
    for v in inst.exceptional:
        for i in range(r):
            if i == g.part_of(v):
                continue
            slice_mask = g.part_mask(i) & wmask
            sz = slice_mask.bit_count()
            if (g.adj[v] & slice_mask).bit_count() + 1e-9 < floor_frac * sz:
                degrees_ok = False
                break
        if not degrees_ok:
            break
    # degrees into every cluster and its W part, one matrix product each;
    # float32 sums of 0/1 are exact below 2^24
    label = np.full(g.vertex_count, -1)
    for i in range(r):
        for c in range(k):
            label[list(inst.clusters[i][c])] = i * k + c
    ind = (label[:, None] == np.arange(r * k)).astype(np.float32)
    host = unpack(g.adj, g.vertex_count).astype(np.float32)
    d_full = (host @ ind).astype(np.int64)
    d_w = (host @ (ind * unpack([wmask], g.vertex_count).T)).astype(np.int64)
    foreign = np.arange(g.vertex_count)[:, None] // n != np.arange(r * k) // k
    sizes = ind.sum(axis=0).astype(np.int64)
    checked = foreign & ~(d_full < inst.params.epsilon * sizes)
    balanced = (0.25 * d_full <= d_w) & (d_w <= 0.75 * d_full)
    split_checked = int(np.count_nonzero(checked))
    split_violations = int(np.count_nonzero(checked & ~balanced))
    diag = {
        "cluster_counts": counts,
        "cluster_counts_ok": counts_ok,
        "exceptional_degrees_ok": degrees_ok,
        "split_checked": split_checked,
        "split_violations": split_violations,
    }
    return counts_ok and degrees_ok, diag


@dataclass
class PipelineReport:
    success: bool
    failure_stage: str | None
    error: str | None
    params: dict
    stages: dict
    factor: tuple | None = None
    verified: bool = False

    def to_json(self) -> str:
        payload = {
            "format": "pipeline-report",
            "success": self.success,
            "failure_stage": self.failure_stage,
            "error": self.error,
            "params": self.params,
            "stages": self.stages,
            "factor": [list(K) for K in self.factor] if self.factor is not None else None,
            "verified": self.verified,
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def run_pipeline(
    instance: PartitionedInstance,
    p: float,
    seed,
    *,
    alpha: float = 0.25,
    mu: float = 0.05,
) -> PipelineReport:
    """Run the three-round construction; never raises on stage failure.

    An instance without a reserve pool draws one, a fair coin per clustered
    vertex, up to RESERVE_ATTEMPTS times. The returned report carries
    per-stage diagnostics, the failing stage (if any), and on success the
    factor, verified in the union of the three rounds' sparsifications.
    Out-of-range mu or alpha raise ValueError before any draw.
    """
    if mu <= 0:
        raise ValueError("mu must be positive")
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")
    g = instance.host
    r, n, k = g.r, g.n, instance.k
    gamma = instance.params.gamma
    base = as_seed(seed)
    p_round = split_rounds(p, 3)
    params = {
        "p": p,
        "p_round": p_round,
        "alpha": alpha,
        "mu": mu,
        "r": r,
        "n": n,
        "k": k,
        "gamma": gamma,
        "seed": [base.seed, base.stream],
    }
    stages: dict = {}

    def fail(stage: str, error) -> PipelineReport:
        return PipelineReport(False, stage, str(error), params, stages)

    bmask = instance.exceptional_mask()
    # --- reserve selection ------------------------------------------------
    if instance.reserved is not None:
        inst_w, attempts = instance, 0
        _, diag = _reserve_conditions(instance, instance.reserved_mask(), alpha)
    else:
        eligible = sorted(v for part in instance.clusters for cl in part for v in cl)
        for attempt in range(RESERVE_ATTEMPTS):
            gen = base.substream(0).substream(attempt).generator()
            coins = gen.random(len(eligible)) < 0.5
            reserved = tuple(v for keep, v in zip(coins, eligible) if keep)
            ok, diag = _reserve_conditions(instance, mask_of(reserved), alpha)
            if ok:
                break
        else:
            stages["reserve"] = {"attempts": RESERVE_ATTEMPTS, "conditions": diag}
            return fail(
                "reserve_selection",
                f"retry budget exhausted after {RESERVE_ATTEMPTS} reserve draws",
            )
        inst_w, attempts = replace(instance, reserved=reserved), attempt + 1
    wmask = inst_w.reserved_mask()
    stages["reserve"] = {"size": wmask.bit_count(), "attempts": attempts, "conditions": diag}
    # --- round 1: cover the exceptional set --------------------------------
    roots = instance.exceptional
    quotas = [instance.clusters[i][c] for i in range(r) for c in range(k)]
    try:
        cover = cover_exceptional(
            g, roots, mu, quotas, base.substream(1), p=p_round, allowed=bmask | wmask
        )
    except CoverError as exc:
        stages["cover"] = {"error": str(exc)}
        return fail("cover_exceptional", exc)
    k1 = cover.tiling
    stages["cover"] = {
        "cliques": len(k1),
        "quota_usage": list(cover.quota_usage),
        "warnings": list(cover.warnings),
    }
    used1 = k1.covered_mask
    if bmask & ~used1:
        return fail("cover_exceptional", "internal: an exceptional vertex was left uncovered")
    # --- round 2: weights on the reduced graph, then extraction ------------
    residue = residual_instance(inst_w, used1)
    target = ffloor(9 * n / (10 * k))
    lam = [len(cl) - target for part in residue.clusters for cl in part]
    if any(x < 0 for x in lam):
        return fail(
            "balance_weights",
            f"some cluster fell below the residue target {target}: lambdas {lam}",
        )
    # substream 2 is retired; 3, 4 and 5 keep their numbers, so seeds keep their coins
    reduced, densities = build_reduced_graph(instance)
    stages["reduced"] = {"edges": reduced.edge_count(), "pairs_checked": len(densities)}
    try:
        wa = balance_weights(reduced, lam, gamma)
    except (BalanceError, BudgetExceededError) as exc:
        stages["weights"] = {
            "lambda": lam,
            "checks": getattr(exc, "checks", None),
            "error": str(exc),
        }
        return fail("balance_weights", exc)
    stages["weights"] = {
        "lambda": lam,
        "checks": wa.checks,
        "tuples": sum(1 for w in wa.omega.values() if w > 0),
    }
    g2 = sparsify(g, p_round, base.substream(3))
    g3 = sparsify(g, p_round, base.substream(5))
    # a residue that round 3 cannot finish sends round 2 back for another
    # choice of cliques; G2 and G3 stay fixed, only the choice is redrawn
    for attempt in range(ROUND2_ATTEMPTS):
        choice = base.substream(4)
        if attempt:
            choice = choice.substream(attempt)
        try:
            k2 = balance_tuples(g2, residue, wa.omega, target, choice)
        except (BalanceTuplesError, BudgetExceededError) as exc:
            # a choice that cannot be balanced is one more spent choice; the
            # strand of the last round 3, if any, stands
            residue_stage = stages.setdefault("residue", {"target": target, "error": str(exc)})
            residue_stage["attempts"] = attempt + 1
            continue
        stages["residue"] = {"target": target, "cliques": len(k2), "attempts": attempt + 1}
        # --- round 3: finish each cluster tuple ----------------------------
        k3: list[tuple[int, ...]] = []
        tuple_sizes = []
        for c in range(k):
            masks = [residue.cluster_mask(i, c) & ~k2.covered_mask for i in range(r)]
            sizes = [m.bit_count() for m in masks]
            if sizes != [target] * r:
                return fail(
                    "round3", f"internal: tuple {c} residues {sizes} != target {target}"
                )
            try:
                sol = solve_restricted(g3, masks)
            except BudgetExceededError as exc:
                stages["round3"] = {"error": str(exc)}
                return fail("round3", exc)
            if sol is None:
                break
            k3.extend(sol)
            tuple_sizes.append(len(sol))
        else:
            break
    else:
        if "error" in stages["residue"]:
            return fail("balance_tuples", stages["residue"]["error"])
        # c is the tuple the last round 3 stranded
        stages["round3"] = {"failed_tuple": c, "tuple_sizes": tuple_sizes}
        return fail(
            "round3",
            f"no factor found on cluster tuple {c} after {ROUND2_ATTEMPTS} round-2 choices",
        )
    stages["round3"] = {"tuples": k, "cliques": len(k3), "per_tuple": tuple_sizes}
    # --- union and independent verification in G1 ∪ G2 ∪ G3 ----------------
    cliques = tuple(sorted(k1.cliques + k2.cliques + tuple(k3)))
    union = [a | b | c for a, b, c in zip(k1.host.adj, g2.adj, g3.adj)]
    ok, reason = verify_factor(PartiteGraph.from_masks(r, n, union), cliques)
    if not ok:
        return fail("verify", f"internal: assembled factor rejected: {reason}")
    return PipelineReport(True, None, None, params, stages, cliques, True)
