"""Output checkers for the benchmark, written apart from krfactor.

Nothing here imports the package. Graphs are read through their raw form
only: part count r, part size n and one adjacency bitmask per vertex
(`PartiteGraph.adj`), with part i holding the ids [i*n, (i+1)*n). Every
checker returns an empty string when the output is correct and a one-line
reason when it is not.

A "no factor" answer is confirmed either by an obstruction (a vertex that
lies in no transversal clique) or by `_has_cover`, an exhaustive search that
shares no code with the package's solver.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _mask(vertices) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def transversal_cliques(adj, r: int, n: int) -> list[tuple[int, ...]]:
    """Every clique with one vertex in each part, as ascending tuples."""
    part = [((1 << n) - 1) << (i * n) for i in range(r)]
    out: list[tuple[int, ...]] = []

    def extend(prefix: list[int], common: int):
        depth = len(prefix)
        if depth == r:
            out.append(tuple(prefix))
            return
        for v in _bits(common & part[depth]):
            prefix.append(v)
            extend(prefix, common & adj[v])
            prefix.pop()

    extend([], (1 << (r * n)) - 1)
    return out


def _partition_problem(r: int, n: int, cliques) -> str:
    """Do the cliques split the r*n vertices into transversal r-sets?"""
    covered = 0
    for K in cliques:
        K = tuple(K)
        if len(K) != r:
            return f"clique {K}: {len(K)} vertices, expected {r}"
        if sorted(v // n for v in K if 0 <= v < r * n) != list(range(r)):
            return f"clique {K}: not one vertex per part"
        for v in K:
            if (covered >> v) & 1:
                return f"vertex {v} covered twice"
            covered |= 1 << v
    if covered != (1 << (r * n)) - 1:
        missing = next(v for v in range(r * n) if not (covered >> v) & 1)
        return f"vertex {missing} not covered"
    return ""


def factor_problem(adj, r: int, n: int, cliques) -> str:
    """Is `cliques` a K_r-factor of the graph with masks `adj`?"""
    problem = _partition_problem(r, n, cliques)
    if problem:
        return problem
    for K in cliques:
        for a, b in combinations(K, 2):
            if not (adj[a] >> b) & 1:
                return f"clique {tuple(K)}: ({a}, {b}) is not an edge"
    return ""


def _has_cover(options, universe: int) -> bool:
    """Exhaustive search: can disjoint masks from `options` cover `universe`?

    options[v] lists the clique masks through vertex v. Branches on the free
    vertex with the fewest usable cliques and remembers sets that failed.
    """
    failed: set[int] = set()

    def search(free: int) -> bool:
        if not free:
            return True
        if free in failed:
            return False
        best = None
        for v in _bits(free):
            usable = [m for m in options[v] if m & free == m]
            if best is None or len(usable) < len(best):
                best = usable
                if not usable:
                    break
        for m in best:
            if search(free & ~m):
                return True
        failed.add(free)
        return False

    return search(universe)


def no_factor_certificate(adj, r: int, n: int) -> str:
    """How a "no factor" answer is confirmed: 'obstruction' or 'search'.

    Returns '' when the graph does have a factor, i.e. the answer was wrong.
    """
    options: list[list[int]] = [[] for _ in range(r * n)]
    for K in transversal_cliques(adj, r, n):
        m = _mask(K)
        for v in K:
            options[v].append(m)
    if any(not opts for opts in options):
        return "obstruction"
    return "" if _has_cover(options, (1 << (r * n)) - 1) else "search"


def lift_problem(member_adjs, r: int, n: int, cliques, assignment) -> str:
    """Is (cliques, assignment) a transversal factor of the family?

    The cliques must partition the vertices into transversal r-sets, the
    assignment must name one member for every clique edge and for nothing
    else, every member must be used exactly once, and every edge must be
    present in its member.
    """
    problem = _partition_problem(r, n, cliques)
    if problem:
        return problem
    pairs = {(min(a, b), max(a, b)) for K in cliques for a, b in combinations(K, 2)}
    named = {(min(a, b), max(a, b)) for a, b in assignment}
    if len(named) != len(assignment):
        return "an edge is assigned twice"
    if named != pairs:
        return f"assigned edges differ from the factor's edges at {sorted(named ^ pairs)[0]}"
    uses = Counter(assignment.values())
    for idx, count in sorted(uses.items()):
        if not 0 <= idx < len(member_adjs):
            return f"member index {idx} out of range"
        if count > 1:
            return f"member {idx} used {count} times"
    if len(uses) != len(member_adjs):
        unused = next(i for i in range(len(member_adjs)) if i not in uses)
        return f"member {unused} unused"
    for (a, b), idx in sorted(assignment.items()):
        if not (member_adjs[idx][a] >> b) & 1:
            return f"edge ({a}, {b}) absent from its member {idx}"
    return ""


def weights_problem(adj, r: int, k: int, lam, omega) -> str:
    """Do the clique weights realize lam on the reduced graph?

    Every key must be a transversal clique of the reduced graph (masks `adj`,
    parts of size k, vertices in part order) with a nonnegative integer
    weight, and the weights through each vertex v must sum to lam[v].
    """
    implied = [0] * (r * k)
    for key, w in omega.items():
        key = tuple(key)
        if not isinstance(w, int) or w < 0:
            return f"weight {w!r} of {key} is not a nonnegative integer"
        if len(key) != r or [v // k for v in key] != list(range(r)):
            return f"key {key} is not one vertex per part in part order"
        for a, b in combinations(key, 2):
            if not (adj[a] >> b) & 1:
                return f"key {key}: ({a}, {b}) is not an edge"
        for v in key:
            implied[v] += w
    for v, (got, want) in enumerate(zip(implied, lam)):
        if got != want:
            return f"vertex {v}: weights sum to {got}, lambda is {want}"
    return ""


def balance_checks(adj, r: int, k: int, lam, gamma: float) -> dict:
    """The hypothesis diagnostics of weight balancing, recomputed."""
    part_sums = [sum(lam[i * k : (i + 1) * k]) for i in range(r)]
    mean = sum(lam) / len(lam)
    min_star = min(
        (adj[v] & (((1 << k) - 1) << (j * k))).bit_count()
        for v in range(r * k)
        for j in range(r)
        if j != v // k
    )
    return {
        "part_sums_equal": len(set(part_sums)) == 1,
        "lambda_in_range": all(
            (1 - gamma / 4) * mean - 1e-9 <= x <= (1 + gamma / 4) * mean + 1e-9
            for x in lam
        ),
        "min_star_degree_ok": min_star >= (1 - 1 / r + gamma / 2) * k - 1e-9,
    }


def pipeline_problem(adj, r: int, n: int, k: int, exceptional, report) -> str:
    """Criterion 11's shape checks on a successful pipeline report.

    One cover clique per exceptional vertex, each in its own clique of the
    final factor; the residue target floor(9n / 10k) on every cluster tuple;
    and a final union that is a factor of the host.
    """
    if not report.success:
        return f"failed at {report.failure_stage}: {report.error}"
    target = (9 * n) // (10 * k)
    stages = report.stages
    if stages["cover"]["cliques"] != len(exceptional):
        return f"{stages['cover']['cliques']} cover cliques for {len(exceptional)} exceptional vertices"
    if stages["residue"]["target"] != target:
        return f"residue target {stages['residue']['target']} != {target}"
    if stages["round3"]["per_tuple"] != [target] * k:
        return f"round-3 tuples {stages['round3']['per_tuple']} != {[target] * k}"
    owner = {v: tuple(K) for K in report.factor for v in K}
    if len({owner.get(v) for v in exceptional}) != len(exceptional):
        return "exceptional vertices share a factor clique"
    return factor_problem(adj, r, n, report.factor)
