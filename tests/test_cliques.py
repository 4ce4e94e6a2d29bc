import random
from itertools import combinations
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import krfactor.cliques
from krfactor import (
    BudgetExceededError,
    CliqueFamily,
    PartiteGraph,
    enumerate_kr,
    sparsify,
)
from krfactor._num import bit_indices, mask_of
from krfactor.cliques import _clique_count, _clique_list, _clique_rows, _restrict, _walk
from oracles import brute_cliques


def test_enumerate_complete_k222():
    fam = enumerate_kr(PartiteGraph.complete(3, 2))
    assert len(fam) == 8
    assert fam[0] == (0, 2, 4)
    assert fam[-1] == (1, 3, 5)
    assert list(fam) == sorted(fam)  # lexicographic


def test_enumerate_counts_on_complete_hosts():
    assert len(enumerate_kr(PartiteGraph.complete(2, 3))) == 9
    assert len(enumerate_kr(PartiteGraph.complete(3, 3))) == 27
    assert len(enumerate_kr(PartiteGraph.complete(4, 2))) == 16


def test_enumerate_edgeless_is_empty():
    assert len(enumerate_kr(PartiteGraph(3, 2))) == 0


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.floats(0.2, 1.0), st.integers(2, 3), st.integers(2, 3))
def test_enumerate_matches_brute_force(seed, p, r, n):
    g = sparsify(PartiteGraph.complete(r, n), p, seed)
    assert list(enumerate_kr(g)) == brute_cliques(g)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.floats(0.2, 1.0), st.integers(2, 4), st.integers(1, 5))
def test_count_matches_surviving_family_cliques(seed, keep, r, n):
    # janson-report's Monte Carlo count: the cliques of g that survive in G(p)
    g = sparsify(PartiteGraph.complete(r, n), keep, seed)
    family = enumerate_kr(g)
    assert _clique_count(g) == len(family)
    for p in (0.0, 0.3, 0.7, 1.0):
        gp = sparsify(g, p, seed + 1)
        survivors = sum(
            1 for K in family if all(gp.has_edge(a, b) for a, b in combinations(K, 2))
        )
        assert _clique_count(gp) == survivors


def _random_allowed(g, rnd):
    """One mask per part keeping each vertex with probability 3/4; one part
    in five is left empty."""
    allowed = [mask_of(v for v in g.part_range(i) if rnd.random() < 0.75) for i in range(g.r)]
    if rnd.random() < 0.2:
        allowed[rnd.randrange(g.r)] = 0
    return allowed


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.floats(0.2, 1.0), st.sampled_from([2, 3, 4]), st.integers(1, 9))
def test_restricted_view_lists_allowed_vertices_and_their_edges(seed, p, r, n):
    g = sparsify(PartiteGraph.complete(r, n), p, seed)
    for allowed in (_random_allowed(g, random.Random(seed)), [0] * r):
        verts, adj = _restrict(g, allowed)
        # part by part, ascending within each part
        assert verts.tolist() == [v for m in allowed for v in bit_indices(m)]
        assert adj.dtype == bool and adj.shape == (len(verts), len(verts))
        assert adj.tolist() == [[g.has_edge(u, v) for v in verts.tolist()] for u in verts.tolist()]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.floats(0.2, 1.0), st.sampled_from([2, 3, 4]), st.integers(1, 5))
def test_rows_match_brute_force_on_allowed_subsets(seed, p, r, n):
    g = sparsify(PartiteGraph.complete(r, n), p, seed)
    allowed = _random_allowed(g, random.Random(seed))
    want = [
        K for K in brute_cliques(g) if all((allowed[i] >> v) & 1 for i, v in enumerate(K))
    ]
    # one-cell blocks split every join into many, the default into one
    for cells in (1, 3, krfactor.cliques._JOIN_CELLS):
        with mock.patch.object(krfactor.cliques, "_JOIN_CELLS", cells):
            rows = _clique_rows(g, allowed, None)
            got = _clique_list(g, allowed, len(want))
        assert rows.shape == (len(want), r)
        assert rows.tolist() == [list(K) for K in want]
        assert got == want
        assert all(type(v) is int for K in got for v in K)


def test_rows_budget_boundary():
    # exactly `limit` cliques pass; one more raises, whichever join block holds it
    g = sparsify(PartiteGraph.complete(3, 4), 0.8, 5)
    rnd = random.Random(5)
    for _ in range(20):
        allowed = _random_allowed(g, rnd)
        count = len(brute_cliques(g, allowed))
        for cells in (1, krfactor.cliques._JOIN_CELLS):
            with mock.patch.object(krfactor.cliques, "_JOIN_CELLS", cells):
                assert len(_clique_rows(g, allowed, count)) == count
                assert len(_clique_list(g, allowed, count)) == count
                if count:
                    with pytest.raises(BudgetExceededError, match=f"more than {count - 1} "):
                        _clique_rows(g, allowed, count - 1)


def _walked(adj, common, masks, stop_at=None):
    """The cliques `_walk` hands over, expanded from (prefix, ext) pairs, the
    number of visits, and the walk's return value; the visit numbered
    `stop_at` returns True."""
    out, calls = [], 0

    def visit(prefix, ext):
        nonlocal calls
        calls += 1
        out.extend((*prefix, x) for x in bit_indices(ext))
        return calls == stop_at

    stopped = _walk(adj, common, masks, visit)
    return out, calls, stopped


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.floats(0.2, 1.0), st.integers(2, 5), st.integers(1, 8))
def test_walk_meets_the_cliques_in_order(seed, p, r, n):
    g = sparsify(PartiteGraph.complete(r, n), p, seed)
    rnd = random.Random(seed)
    allowed = _random_allowed(g, rnd)
    got, _, stopped = _walked(g.adj, (1 << g.vertex_count) - 1, allowed)
    assert got == _clique_list(g, allowed, None)
    assert stopped is False
    # anchored at a root: its neighbourhood is the start, its part is left out
    v = rnd.randrange(g.vertex_count)
    i = g.part_of(v)
    got, _, _ = _walked(g.adj, g.adj[v], allowed[:i] + allowed[i + 1 :])
    rooted = allowed[:i] + [1 << v] + allowed[i + 1 :]
    assert [tuple(sorted(K + (v,))) for K in got] == _clique_list(g, rooted, None)


def test_walk_stops_at_the_first_true_visit():
    g = sparsify(PartiteGraph.complete(3, 4), 0.7, 2)
    common = (1 << g.vertex_count) - 1
    _, prefixes, stopped = _walked(g.adj, common, g.part_masks)
    assert prefixes > 1 and stopped is False
    for j in range(1, prefixes + 1):
        _, calls, stopped = _walked(g.adj, common, g.part_masks, stop_at=j)
        assert (calls, stopped) == (j, True)


def test_enumerate_budget_guard():
    g = PartiteGraph.complete(3, 2)
    with pytest.raises(BudgetExceededError):
        enumerate_kr(g, max_cliques=7)
    assert len(enumerate_kr(g, max_cliques=8)) == 8


class TestCliqueFamily:
    def test_validation(self):
        g = PartiteGraph.complete(3, 2)
        CliqueFamily(g, ((0, 2, 4),))  # fine
        with pytest.raises(ValueError):
            CliqueFamily(g, ((0, 2, 4), (0, 2, 4)))  # duplicate
        with pytest.raises(ValueError):
            CliqueFamily(g, ((2, 0, 4),))  # out of part order
        with pytest.raises(ValueError):
            CliqueFamily(g, ((0, 2),))  # too short
        sparse = PartiteGraph(3, 2, [(0, 2)])
        with pytest.raises(ValueError):
            CliqueFamily(sparse, ((0, 2, 4),))  # missing edges

    def test_sequence_protocol(self):
        g = PartiteGraph.complete(3, 2)
        fam = enumerate_kr(g)
        assert fam[2] in list(fam)
        assert len(fam) == 8


def test_enumerate_rejects_negative_budget():
    for g in (PartiteGraph.complete(3, 2), PartiteGraph(3, 2)):
        with pytest.raises(ValueError, match="max_cliques must be nonnegative"):
            enumerate_kr(g, max_cliques=-1)
    assert len(enumerate_kr(PartiteGraph(3, 2), max_cliques=0)) == 0
