"""Brute-force reference implementations the tests pin the package against.

Everything here is written for obviousness, not speed: plain recursion over
explicit clique lists, double loops over clique pairs, full subset scans.
None of it shares code with the package's solvers.
"""

import math
from itertools import combinations, product


def brute_cliques(g):
    """All one-vertex-per-part cliques, ascending tuples, by direct product scan."""
    out = []
    for combo in product(*(g.part_range(i) for i in range(g.r))):
        if all(g.has_edge(a, b) for a, b in combinations(combo, 2)):
            out.append(tuple(combo))
    return out


def brute_has_factor(g) -> bool:
    """Does a set of disjoint cliques cover every vertex? First-free-vertex recursion."""
    cliques = brute_cliques(g)
    total = g.vertex_count

    def rec(covered):
        if len(covered) == total:
            return True
        v = min(set(range(total)) - covered)
        for K in cliques:
            if v in K and not covered & set(K):
                if rec(covered | set(K)):
                    return True
        return False

    return rec(frozenset())


class _PlainPartite:
    """Balanced r-partite graph on parts of size n, edges as a set of pairs."""

    def __init__(self, r, n, edges):
        self.r, self.n, self.vertex_count = r, n, r * n
        self.edges = edges

    def part_range(self, i):
        return range(i * self.n, (i + 1) * self.n)

    def has_edge(self, a, b):
        return (min(a, b), max(a, b)) in self.edges


def brute_weights_exist(reduced, lam) -> bool:
    """Do nonnegative integer clique weights with sum_{K ∋ v} w(K) = lam[v] exist?

    Builds the lam blow-up (lam[v] copies of v, copies joined iff the
    originals are) with plain loops and asks brute_has_factor.
    """
    r, k = reduced.r, reduced.n
    sums = {sum(lam[i * k : (i + 1) * k]) for i in range(r)}
    if len(sums) != 1:
        return False
    owner = []
    for v in range(r * k):
        owner.extend([v] * lam[v])
    edges = set()
    for a in range(len(owner)):
        for b in range(a + 1, len(owner)):
            if owner[a] // k != owner[b] // k and reduced.has_edge(owner[a], owner[b]):
                edges.add((a, b))
    return brute_has_factor(_PlainPartite(r, sums.pop(), edges))


def brute_count_factors(g) -> int:
    """Exact factor count; each factor is counted once because the recursion
    always extends the lowest uncovered vertex."""
    cliques = brute_cliques(g)
    total = g.vertex_count

    def rec(covered):
        if len(covered) == total:
            return 1
        v = min(set(range(total)) - covered)
        return sum(
            rec(covered | set(K)) for K in cliques if v in K and not covered & set(K)
        )

    return rec(frozenset())


def brute_factors(g):
    """Every factor, as a sorted tuple of cliques."""
    cliques = brute_cliques(g)
    total = g.vertex_count
    out = []

    def rec(covered, chosen):
        if len(covered) == total:
            out.append(tuple(sorted(chosen)))
            return
        v = min(set(range(total)) - covered)
        for K in cliques:
            if v in K and not covered & set(K):
                rec(covered | set(K), chosen + [K])

    rec(frozenset(), [])
    return out


def brute_min_star(g) -> int:
    best = math.inf
    for i in range(g.r):
        for j in range(g.r):
            if i == j:
                continue
            for v in g.part_range(i):
                d = sum(1 for u in g.part_range(j) if g.has_edge(v, u))
                best = min(best, d)
    return int(best)


def brute_janson(cliques, p):
    """(lambda, delta_bar) from first principles.

    lambda sums survival probabilities; delta_bar sums, over ordered clique
    pairs sharing at least one vertex (diagonal included), the probability
    that both survive, i.e. p to the size of the union of their edge sets.
    """
    esets = [frozenset(frozenset(e) for e in combinations(K, 2)) for K in cliques]
    lam = sum(p ** len(es) for es in esets)
    delta = 0.0
    for a, A in enumerate(cliques):
        for b, B in enumerate(cliques):
            if set(A) & set(B):
                delta += p ** len(esets[a] | esets[b])
    return lam, delta


def brute_survival_variance(cliques, p):
    """Exact variance of the surviving-clique count under edge percolation."""
    esets = [frozenset(frozenset(e) for e in combinations(K, 2)) for K in cliques]
    second = 0.0
    for a in range(len(cliques)):
        for b in range(len(cliques)):
            second += p ** len(esets[a] | esets[b])
    mean = sum(p ** len(es) for es in esets)
    return second - mean * mean


def brute_regular_pair(g, X, Y, epsilon) -> bool:
    """Full scan over all admissible subset pairs. Sides of ~7 at most."""
    X, Y = list(X), list(Y)
    lx, ly = len(X), len(Y)
    density = sum(g.has_edge(x, y) for x in X for y in Y) / (lx * ly)
    a_min = max(1, math.ceil(epsilon * lx - 1e-9))
    b_min = max(1, math.ceil(epsilon * ly - 1e-9))
    cols = []
    for y in Y:
        m = 0
        for t, x in enumerate(X):
            if g.has_edge(x, y):
                m |= 1 << t
        cols.append(m)
    for amask in range(1, 1 << lx):
        sa = amask.bit_count()
        if sa < a_min:
            continue
        degs = [(c & amask).bit_count() for c in cols]
        for bmask in range(1, 1 << ly):
            sb = bmask.bit_count()
            if sb < b_min:
                continue
            e_ab = sum(degs[t] for t in range(ly) if (bmask >> t) & 1)
            if abs(e_ab / (sa * sb) - density) >= epsilon:
                return False
    return True


def pair_density(g, A, B) -> float:
    return sum(g.has_edge(a, b) for a in A for b in B) / (len(A) * len(B))


def brute_exact_covers(n_cols, rows):
    """Every exact cover of columns 0..n_cols-1 by `rows` (column lists), as
    tuples of row indices, in Algorithm X order: branch on the open column
    with the fewest usable rows, leftmost on ties, usable rows in list order.
    A row is usable while it shares no column with a chosen row."""
    sets = [set(cols) for cols in rows]

    def rec(open_cols, usable, chosen):
        if not open_cols:
            yield tuple(chosen)
            return
        col = min(sorted(open_cols), key=lambda c: sum(c in sets[i] for i in usable))
        for i in [i for i in usable if col in sets[i]]:
            rest = [j for j in usable if not sets[j] & sets[i]]
            yield from rec(open_cols - sets[i], rest, chosen + [i])

    yield from rec(set(range(n_cols)), list(range(len(rows))), [])


def ref_sparsify(g, p, seed):
    """Adjacency masks of `sparsify(g, p, seed)`, one coin per edge.

    Draws the package's coins, one per edge in `g.edges()` order, and keeps
    an edge when its coin falls below p.
    """
    from krfactor.rng import as_seed

    edges = list(g.edges())
    coins = as_seed(seed).generator().random(len(edges))
    masks = [0] * g.vertex_count
    for (u, v), coin in zip(edges, coins):
        if coin < p:
            masks[u] |= 1 << v
            masks[v] |= 1 << u
    return tuple(masks)


def ref_min_degree_instance(r, n, gamma, edge_keep, seed):
    """Adjacency masks of `gen_min_degree_instance`, by a per-cell walk.

    Each pair's permutation is walked one numpy scalar at a time against a
    full per-(vertex, part) degree table, removing an edge whenever both
    endpoints stay at or above the floor. Uses the package's seed streams, so
    the two draw the same coins.
    """
    from krfactor._num import fceil
    from krfactor.rng import as_seed

    floor = fceil((1.0 - 1.0 / r + gamma) * n)
    base = as_seed(seed)
    universe = (1 << (r * n)) - 1
    pm = [((1 << n) - 1) << (i * n) for i in range(r)]
    masks = [universe ^ pm[v // n] for v in range(r * n)]
    deg = [[n] * r for _ in range(r * n)]
    for rank, (i, j) in enumerate(combinations(range(r), 2)):
        total = n * n
        remove_target = total - round(edge_keep * total)
        if remove_target <= 0:
            continue
        gen = base.substream(rank).generator()
        removed = 0
        for t in gen.permutation(total):
            if removed >= remove_target:
                break
            t = int(t)
            u = i * n + t // n
            v = j * n + t % n
            if deg[u][j] <= floor or deg[v][i] <= floor:
                continue
            masks[u] &= ~(1 << v)
            masks[v] &= ~(1 << u)
            deg[u][j] -= 1
            deg[v][i] -= 1
            removed += 1
    return tuple(masks)


def ref_planted_masks(r, n, k, cluster_size, d, b_attach, seed):
    """Adjacency masks of `gen_super_regular_instance`, set one edge at a time.

    Draws each pair's n x n coin matrix from the same stream as the package,
    then sets bit v of u and bit u of v for every coin below its threshold.
    """
    from krfactor.rng import as_seed

    core = k * cluster_size
    base = as_seed(seed)
    masks = [0] * (r * n)
    for rank, (i, j) in enumerate(combinations(range(r), 2)):
        coins = base.substream(rank).generator().random((n, n))
        for a in range(n):
            for b in range(n):
                thresh = b_attach if a >= core or b >= core else d
                if coins[a, b] < thresh:
                    masks[i * n + a] |= 1 << (j * n + b)
                    masks[j * n + b] |= 1 << (i * n + a)
    return tuple(masks)


def ref_cover_exceptional(g, roots, mu, quotas, seed, *, p=1.0, allowed=None, trace=None):
    """`cover_exceptional` as a per-quota-mask loop with an explicit saturated mask.

    An earlier implementation of the package, line for line: it lists each
    root's candidates, keys and sorts them, with a suffix mask of later
    roots, a saturated-vertex mask grown as quota sets fill, and usage
    counted by intersecting each pick with every quota mask. Returns the
    same CoverResult and raises the same errors, in the same order.

    A `trace` list gets one set per root naming the shapes its pick met:
    "r2", "root_last" (the root lies in the last part), "cap_inside" (the
    cap ends between two candidates that differ only in the last free part)
    and "two_levels" (the survivors' last-free-part vertices carry at least
    two finite loads).
    """
    import math
    from itertools import combinations, islice

    from krfactor._num import bit_indices, ffloor, mask_of
    from krfactor.cliques import _clique_stream
    from krfactor.errors import CoverError
    from krfactor.graphs import sparsify
    from krfactor.pipeline import CoverResult
    from krfactor.solver import Tiling

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
    for v in roots:
        if not (allowed >> v) & 1:
            raise ValueError(f"root {v} outside the allowed set")
    qmasks = []
    qsizes = []
    quota_of = [len(quotas)] * g.vertex_count  # quota set per vertex; none -> past the end
    taken = 0
    root_mask = mask_of(roots)
    for s, xs in enumerate(quotas):
        xs = [int(v) for v in xs]
        m = mask_of(xs)
        if m >> g.vertex_count:
            raise ValueError(f"quota set {s} has a vertex out of range")
        if m & root_mask:
            raise ValueError(f"quota set {s} contains a root")
        if m & taken:
            raise ValueError(f"quota set {s} overlaps another quota set")
        taken |= m
        for u in xs:
            quota_of[u] = s
        qmasks.append(m)
        qsizes.append(m.bit_count())
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
    thresholds = [4 * g.r * mu * sz for sz in qsizes]
    usage = [0] * len(qmasks)
    saturated = 0
    for s, thr in enumerate(thresholds):
        if 0 > thr - 1:
            saturated |= qmasks[s]
    suffix = [0] * (len(roots) + 1)
    for idx in range(len(roots) - 1, -1, -1):
        suffix[idx] = suffix[idx + 1] | (1 << roots[idx])
    used = 0
    chosen = []
    for idx, v in enumerate(roots):
        part_allowed = [allowed & g.part_mask(i) for i in range(g.r)]
        part_allowed[g.part_of(v)] = 1 << v
        more = list(islice(_clique_stream(g, part_allowed), cap + 1))
        cand = more[:cap]
        if len(cand) < cap:
            warnings.append(f"root {v}: only {len(cand)} candidates (cap {cap})")
        # a candidate's key sums its vertices' quota usage; blocked vertices weigh inf
        level = usage + [0]
        load = [level[s] for s in quota_of]
        for u in bit_indices(used | suffix[idx + 1] | saturated):
            load[u] = math.inf
        keys = [sum(map(load.__getitem__, K)) for K in cand]
        # stable sort of ascending indices: ties stay lexicographic
        order = sorted((i for i, key in enumerate(keys) if key < math.inf), key=keys.__getitem__)
        survivors = [cand[i] for i in order]
        if trace is not None:
            last = g.r - 2 if g.part_of(v) == g.r - 1 else g.r - 1  # last free part

            def prefix(K):
                return K[:last] + K[last + 1 :]

            shapes = set()
            if g.r == 2:
                shapes.add("r2")
            if g.part_of(v) == g.r - 1:
                shapes.add("root_last")
            if len(more) > cap and prefix(more[cap - 1]) == prefix(more[cap]):
                shapes.add("cap_inside")
            if len({load[K[last]] for K in survivors}) >= 2:
                shapes.add("two_levels")
            trace.append(shapes)
        pick = None
        for K in survivors:
            if all(gp.has_edge(a, b) for a, b in combinations(K, 2)):
                pick = K
                break
        if pick is None:
            raise CoverError(v, len(survivors))
        chosen.append(pick)
        km = mask_of(pick)
        used |= km
        for s, qm in enumerate(qmasks):
            inc = (km & qm).bit_count()
            if inc:
                usage[s] += inc
                if usage[s] > thresholds[s] - 1:
                    saturated |= qm
    for s, u in enumerate(usage):
        if u > thresholds[s] + g.r - 2 + 1e-9:
            raise RuntimeError(f"internal: quota set {s} over budget ({u})")
    return CoverResult(Tiling(gp, tuple(sorted(chosen))), tuple(usage), tuple(warnings))


def ref_build_cover(g, allowed, limit):
    """`solver._build_cover` row by row: (engine, clique tuples) or None.

    An earlier implementation of the package, line for line: it lists the
    cliques lazily, ORs their masks to check coverage, sorts them by the key
    (degree sum, clique) and hands each row to `ExactCover.add_row`.
    """
    from itertools import islice

    from krfactor._num import bit_indices, mask_of
    from krfactor.cliques import _clique_stream
    from krfactor.errors import BudgetExceededError
    from krfactor.exact_cover import ExactCover

    rows = list(islice(_clique_stream(g, allowed), limit + 1))
    if len(rows) > limit:
        raise BudgetExceededError(f"more than {limit} transversal cliques")
    target = 0
    for m in allowed:
        target |= m
    covered = 0
    for K in rows:
        covered |= mask_of(K)
    if covered != target:
        return None
    col_of = {v: idx for idx, v in enumerate(bit_indices(target))}
    deg = [g.degree(v) for v in range(g.vertex_count)]
    rows.sort(key=lambda K: (sum(deg[v] for v in K), K))
    dlx = ExactCover(len(col_of))
    for idx, K in enumerate(rows):
        dlx.add_row(idx, [col_of[v] for v in K])
    return dlx, rows


def ref_split_tally(inst, wmask):
    """`_reserve_conditions`' (split_checked, split_violations) by a loop over
    vertices, foreign parts and clusters, with big-int popcounts.

    A vertex counts against a foreign cluster when its degree into the
    cluster is at least epsilon times the cluster's size; it violates the
    split unless 1/4 to 3/4 of that degree lands in W.
    """
    g = inst.host
    cmasks = [[inst.cluster_mask(i, c) for c in range(inst.k)] for i in range(g.r)]
    split_checked = 0
    split_violations = 0
    eps = inst.params.epsilon
    for v in range(g.vertex_count):
        for i in range(g.r):
            if i == g.part_of(v):
                continue
            for cm in cmasks[i]:
                d_full = (g.adj[v] & cm).bit_count()
                if d_full < eps * cm.bit_count():
                    continue
                split_checked += 1
                d_w = (g.adj[v] & cm & wmask).bit_count()
                if not 0.25 * d_full <= d_w <= 0.75 * d_full:
                    split_violations += 1
    return split_checked, split_violations
