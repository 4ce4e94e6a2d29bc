"""Self-tests of the benchmark's checkers and tracing.

    python3 -m pytest bench -q

Valid outputs come from krfactor; each checker must accept them and reject
a corrupted copy: a dropped clique, a member used twice, a weight off by one.
"""

import random
import sys
from itertools import combinations, permutations, product
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import krfactor as kr  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402


def _factor_graph():
    g = kr.sparsify(kr.gen_min_degree_instance(3, 6, 0.2, 0.9, 1), 0.9, 2)
    factor = kr.find_factor(g)
    assert factor is not None
    return g, list(factor.cliques)


def test_factor_checker_accepts_a_factor_and_rejects_corruptions():
    g, cliques = _factor_graph()
    assert checks.factor_problem(g.adj, g.r, g.n, cliques) == ""
    assert "not covered" in checks.factor_problem(g.adj, g.r, g.n, cliques[1:])
    a, b = cliques[0], cliques[1]
    twice = [(a[0], a[1], b[2]), b] + cliques[2:]
    assert "covered twice" in checks.factor_problem(g.adj, g.r, g.n, twice)
    u, v = a[0], a[1]
    without_uv = list(g.adj)
    without_uv[u] &= ~(1 << v)
    without_uv[v] &= ~(1 << u)
    assert "not an edge" in checks.factor_problem(without_uv, g.r, g.n, cliques)


def _brute_has_factor(g) -> bool:
    """Match parts 1..r-1 to part 0 through every tuple of permutations."""
    n = g.n
    for perms in product(permutations(range(n)), repeat=g.r - 1):
        cliques = [(i, *(j * n + perm[i] for j, perm in enumerate(perms, 1))) for i in range(n)]
        if all(g.has_edge(u, v) for K in cliques for u, v in combinations(K, 2)):
            return True
    return False


def test_no_factor_certificate_matches_brute_force():
    rng = random.Random(5)
    seen = set()
    for _ in range(300):
        r, n = rng.choice([(2, 3), (3, 2), (3, 3)])
        edges = [(u, v) for u in range(r * n) for v in range(u + 1, r * n)
                 if u // n != v // n and rng.random() < 0.6]
        g = kr.PartiteGraph(r, n, edges)
        how = checks.no_factor_certificate(g.adj, r, n)
        assert (how == "") == _brute_has_factor(g)
        seen.add(how)
    assert seen == {"", "obstruction", "search"}


def test_lift_checker_rejects_a_member_used_twice():
    fam = kr.GraphFamily(3, 4, tuple(kr.gen_min_degree_instance(3, 4, 0.2, 1.0, t) for t in range(12)))
    aux = kr.build_b_pi(fam, kr.sample_bundle(fam, 3))
    lifted = kr.lift_factor(aux, kr.find_factor(aux.graph))
    adjs = [m.adj for m in fam.graphs]
    assert checks.lift_problem(adjs, 3, 4, lifted.cliques, lifted.assignment) == ""
    edges = sorted(lifted.assignment)
    reused = dict(lifted.assignment)
    reused[edges[1]] = reused[edges[0]]
    assert "used 2 times" in checks.lift_problem(adjs, 3, 4, lifted.cliques, reused)
    assert "not covered" in checks.lift_problem(adjs, 3, 4, lifted.cliques[1:], lifted.assignment)
    u, v = edges[0]
    idx = lifted.assignment[(u, v)]
    member = list(adjs[idx])
    member[u] &= ~(1 << v)
    member[v] &= ~(1 << u)
    stripped = adjs[:idx] + [member] + adjs[idx + 1 :]
    assert "absent from its member" in checks.lift_problem(stripped, 3, 4, lifted.cliques, lifted.assignment)


def test_weights_checker_rejects_an_omega_off_by_one():
    g = kr.PartiteGraph(3, 5, [(u, v) for u in range(15) for v in range(u + 1, 15)
                               if u // 5 != v // 5 and (u, v) != (4, 9)])
    lam = [6, 7, 5, 6, 6] * 3
    wa = kr.balance_weights(g, lam, 0.2)
    assert checks.weights_problem(g.adj, 3, 5, lam, wa.omega) == ""
    assert checks.balance_checks(g.adj, 3, 5, lam, 0.2) == wa.checks
    key = next(iter(wa.omega))
    assert "weights sum to" in checks.weights_problem(g.adj, 3, 5, lam, {**wa.omega, key: wa.omega[key] + 1})
    assert "weights sum to" in checks.weights_problem(g.adj, 3, 5, lam, {**wa.omega, key: wa.omega[key] - 1})
    assert "not an edge" in checks.weights_problem(g.adj, 3, 5, lam, {(4, 9, 10): 1})


def test_pipeline_checker_rejects_a_dropped_clique():
    inst = kr.gen_super_regular_instance(3, 2, 30, 0.6, 3, 0, epsilon=0.25)
    rep = kr.run_pipeline(inst, 1.0, 0)
    g = inst.host
    assert checks.pipeline_problem(g.adj, 3, g.n, 2, inst.exceptional, rep) == ""
    rep.factor = rep.factor[1:]
    assert checks.pipeline_problem(g.adj, 3, g.n, 2, inst.exceptional, rep) != ""


def test_tracing_counts_and_uninstalls():
    original = kr.find_factor
    rec = tracing.Recorder()
    uninstall, absent = tracing.install(rec)
    try:
        assert absent == []
        assert kr.find_factor is not original
        kr.find_factor(kr.PartiteGraph.complete(3, 3))
    finally:
        uninstall()
    assert kr.find_factor is original
    assert rec.get("solver.calls") == 1 and rec.get("solver.greedy_hits") == 1
    assert vars(kr.exact_cover.ExactCover)["add_row"].__name__ == "add_row"


def test_tracing_reports_a_missing_function_as_absent(monkeypatch):
    monkeypatch.delattr(kr.transversal, "lift_factor")
    rec = tracing.Recorder()
    uninstall, absent = tracing.install(rec)
    uninstall()
    assert absent == ["transversal.lift_factor_s"]
    assert "transversal.lift_factor_s" not in tracing.layer_metrics(rec, absent, 1.0)


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
