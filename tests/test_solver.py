import math
import random
import sys
import time
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import krfactor.solver
from krfactor import (
    BudgetExceededError,
    Factor,
    FileFormatError,
    PartiteGraph,
    RandomSeed,
    ThresholdParams,
    Tiling,
    count_factors,
    estimate_spread,
    find_factor,
    gen_min_degree_instance,
    gen_no_factor_witness,
    read_factor_certificate,
    sample_factor_uniform,
    solve_restricted,
    sparsify,
    threshold_p,
    verify_factor,
    write_factor_certificate,
)
from krfactor._num import mask_of
from krfactor.solver import DEFAULT_ROW_BUDGET, _build_cover, _matching_cover
from oracles import brute_count_factors, brute_factors, brute_has_factor, ref_build_cover


class TestTilingTypes:
    def test_tiling_accepts_disjoint_cliques(self):
        g = PartiteGraph.complete(3, 2)
        t = Tiling(g, ((0, 2, 4),))
        assert len(t) == 1
        assert t.covered_mask == 0b010101

    def test_tiling_rejects_bad_structure(self):
        g = PartiteGraph.complete(3, 2)
        with pytest.raises(ValueError):
            Tiling(g, ((0, 2, 4), (0, 3, 5)))  # overlap at 0
        with pytest.raises(ValueError):
            Tiling(g, ((2, 0, 4),))  # out of part order
        with pytest.raises(ValueError):
            Tiling(PartiteGraph(3, 2), ((0, 2, 4),))  # no such edges

    def test_factor_requires_full_coverage(self):
        g = PartiteGraph.complete(3, 2)
        Factor(g, ((0, 2, 4), (1, 3, 5)))
        with pytest.raises(ValueError, match="not covered"):
            Factor(g, ((0, 2, 4),))


class TestFindFactor:
    def test_complete_hosts(self):
        for r in (2, 3, 4):
            for n in (1, 2, 3):
                g = PartiteGraph.complete(r, n)
                f = find_factor(g)
                assert f is not None and len(f) == n
                assert verify_factor(g, f.cliques) == (True, "")

    def test_witness_has_none(self):
        assert find_factor(gen_no_factor_witness(3, 3, 0).graph) is None

    def test_deterministic(self):
        g = sparsify(PartiteGraph.complete(3, 4), 0.6, 12)
        a, b = find_factor(g), find_factor(g)
        assert (a is None) == (b is None)
        if a is not None:
            assert a.cliques == b.cliques

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 100_000), st.floats(0.2, 0.9))
    def test_matches_brute_force_existence(self, seed, p):
        g = sparsify(PartiteGraph.complete(3, 2), p, seed)
        f = find_factor(g)
        assert (f is not None) == brute_has_factor(g)
        if f is not None:
            assert verify_factor(g, f.cliques) == (True, "")

    def test_thousand_vertex_parts_at_c4(self):
        # 1000 cliques per factor: past Python's default recursion limit for
        # any search that recurses once per clique or per matched vertex.
        started = time.monotonic()
        for seed in (1, 2, 3):
            g = sparsify(
                PartiteGraph.complete(3, 1000),
                threshold_p(ThresholdParams(3, 1000, 4)).p,
                RandomSeed(seed),
            )
            f = find_factor(g)
            assert isinstance(f, Factor)
            assert verify_factor(g, f.cliques) == (True, "")
        assert time.monotonic() - started < 60.0

    def test_exact_search_decides_when_matching_fails(self):
        # near the threshold the matching often fails on hosts with a factor
        p = threshold_p(ThresholdParams(3, 30, 2)).p
        rescued = 0
        for t in range(10):
            base = RandomSeed(5).substream(t)
            g = sparsify(gen_min_degree_instance(3, 30, 0.2, 0.9, base.substream(0)), p, base.substream(1))
            if _matching_cover(g, [g.part_mask(i) for i in range(3)]) is None:
                f = find_factor(g)
                if f is not None:
                    assert verify_factor(g, f.cliques) == (True, "")
                    rescued += 1
        assert rescued >= 1

    def test_built_engine_matches_row_by_row_reference(self):
        # random allowed subsets of small hosts, then whole near-threshold
        # hosts where the matching misses
        rnd = random.Random(3)
        cases = []
        for t in range(150):
            r, n = rnd.choice([2, 3, 4]), rnd.randint(1, 5)
            g = sparsify(PartiteGraph.complete(r, n), rnd.uniform(0.3, 1.0), t)
            keep = rnd.choice([0.5, 0.9, 1.0])
            cases.append(
                (g, [mask_of(v for v in g.part_range(i) if rnd.random() < keep) for i in range(r)])
            )
        p = threshold_p(ThresholdParams(3, 30, 2)).p
        for t in range(5):
            base = RandomSeed(5).substream(t)
            g = sparsify(gen_min_degree_instance(3, 30, 0.2, 0.9, base.substream(0)), p, base.substream(1))
            cases.append((g, list(g.part_masks)))
        hopeless = 0
        for g, allowed in cases:
            built = _build_cover(g, allowed)
            ref = ref_build_cover(g, allowed, DEFAULT_ROW_BUDGET)
            if ref is None:
                assert built is None
                hopeless += 1
                continue
            (dlx, rows), (ref_dlx, ref_rows) = built, ref
            assert dlx.col_rows == ref_dlx.col_rows
            assert dlx.row_cols == ref_dlx.row_cols
            assert dlx.row_ids == ref_dlx.row_ids
            assert rows.tolist() == [list(K) for K in ref_rows]
        assert 0 < hopeless < len(cases)

    def test_budget_stops_a_build_before_its_coverage_check(self, monkeypatch):
        # vertex 0 lies in no clique, and the other 18 cliques exceed the budget
        g = PartiteGraph(3, 3, [e for e in PartiteGraph.complete(3, 3).edges() if 0 not in e])
        monkeypatch.setattr("krfactor.solver.DEFAULT_ROW_BUDGET", 18)
        assert _build_cover(g, g.part_masks) is None
        monkeypatch.setattr("krfactor.solver.DEFAULT_ROW_BUDGET", 17)
        with pytest.raises(BudgetExceededError, match="more than 17 transversal cliques"):
            _build_cover(g, g.part_masks)
        with pytest.raises(BudgetExceededError):
            find_factor(g)

    def test_augmenting_path_beyond_recursion_limit(self):
        # part-0 vertex i sees part-1 vertices i and i+1, the last one only
        # part-1 vertex 0: the greedy pass leaves it unmatched, and the one
        # augmenting path shifts every other part-0 vertex up by one
        n = sys.getrecursionlimit() + 100
        edges = [(i, n + j) for i in range(n - 1) for j in (i, i + 1)] + [(n - 1, n)]
        g = PartiteGraph(2, n, edges)
        assert _matching_cover(g, [g.part_mask(0), g.part_mask(1)]) is not None
        f = find_factor(g)
        assert f.cliques == tuple((i, n + i + 1) for i in range(n - 1)) + ((n - 1, n),)


def _relabel(g, allowed):
    """The balanced subgraph induced by `allowed`, and its vertex relabelling."""
    size = allowed[0].bit_count()
    kept = [[v for v in g.part_range(i) if allowed[i] >> v & 1] for i in range(g.r)]
    new_id = {v: i * size + j for i, vs in enumerate(kept) for j, v in enumerate(vs)}
    edges = [(new_id[u], new_id[v]) for u, v in g.edges() if u in new_id and v in new_id]
    return PartiteGraph(g.r, size, edges), new_id


def test_differential_against_brute_force():
    rng = random.Random(20231)
    for _ in range(300):
        r, n, p = rng.choice((2, 3, 4)), rng.randint(1, 4), rng.uniform(0.2, 0.9)
        g = sparsify(PartiteGraph.complete(r, n), p, rng.randrange(1 << 30))
        f = find_factor(g)
        assert (f is not None) == brute_has_factor(g)
        if f is not None:
            assert verify_factor(g, f.cliques) == (True, "")
        if rng.random() < 0.8:
            k = rng.randint(1, n)
            allowed = [sum(1 << v for v in rng.sample(g.part_range(i), k)) for i in range(r)]
        else:
            allowed = [g.part_mask(i) & rng.getrandbits(g.vertex_count) for i in range(r)]
        sol = solve_restricted(g, allowed)
        if len({m.bit_count() for m in allowed}) > 1:
            assert sol is None
        elif allowed[0] == 0:
            assert sol == ()
        else:
            sub, new_id = _relabel(g, allowed)
            assert (sol is not None) == brute_has_factor(sub)
            if sol is not None:
                mapped = [tuple(new_id[v] for v in K) for K in sol]
                assert verify_factor(sub, mapped) == (True, "")


class TestSolveRestricted:
    def test_full_masks_give_a_factor(self):
        g = PartiteGraph.complete(3, 3)
        sol = solve_restricted(g, [g.part_mask(i) for i in range(3)])
        assert sol is not None and len(sol) == 3

    def test_sub_block(self):
        g = PartiteGraph.complete(3, 4)
        masks = [0b0011 << (i * 4) for i in range(3)]
        sol = solve_restricted(g, masks)
        assert sol is not None and len(sol) == 2
        used = {v for K in sol for v in K}
        assert used == {0, 1, 4, 5, 8, 9}

    def test_unbalanced_masks_are_uncoverable(self):
        g = PartiteGraph.complete(3, 4)
        assert solve_restricted(g, [0b0011, 0b0001 << 4, 0b0011 << 8]) is None

    def test_empty_masks(self):
        g = PartiteGraph.complete(3, 4)
        assert solve_restricted(g, [0, 0, 0]) == ()

    def test_validation(self):
        g = PartiteGraph.complete(3, 4)
        with pytest.raises(ValueError):
            solve_restricted(g, [1, 1 << 4])
        with pytest.raises(ValueError):
            solve_restricted(g, [1 << 4, 1 << 4, 1 << 8])


class TestCountFactors:
    def test_reference_counts(self):
        assert count_factors(PartiteGraph.complete(3, 1)) == 1
        assert count_factors(PartiteGraph.complete(3, 2)) == 4
        assert count_factors(PartiteGraph.complete(3, 3)) == 36
        assert count_factors(PartiteGraph.complete(4, 3)) == 216

    def test_complete_formula(self):
        # complete hosts: (n!)^(r-1) factors
        for r in (2, 3, 4):
            for n in (1, 2, 3):
                got = count_factors(PartiteGraph.complete(r, n))
                assert got == math.factorial(n) ** (r - 1)

    def test_witness_counts_zero(self):
        assert count_factors(gen_no_factor_witness(3, 2, 1).graph) == 0

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 100_000), st.floats(0.3, 0.9))
    def test_matches_brute_force(self, seed, p):
        g = sparsify(PartiteGraph.complete(3, 2), p, seed)
        assert count_factors(g) == brute_count_factors(g)

    def test_row_budget(self, monkeypatch):
        monkeypatch.setattr(krfactor.solver, "DEFAULT_ROW_BUDGET", 10)
        with pytest.raises(BudgetExceededError, match="more than 10 transversal cliques"):
            count_factors(PartiteGraph.complete(3, 4))


class TestSampleFactorUniform:
    def test_unique_factor_host(self):
        g = PartiteGraph.complete(3, 1)
        assert sample_factor_uniform(g, 0).cliques == ((0, 1, 2),)

    def test_uniform_over_k222(self):
        g = PartiteGraph.complete(3, 2)
        base = RandomSeed(23)
        counts = Counter(
            sample_factor_uniform(g, base.substream(t)).cliques for t in range(10_000)
        )
        assert set(counts) == set(brute_factors(g))
        band = 3 * math.sqrt(0.25 * 0.75 / 10_000)
        for c in counts.values():
            assert abs(c / 10_000 - 0.25) <= band

    def test_no_factor_rejected(self):
        with pytest.raises(ValueError, match="no factor"):
            sample_factor_uniform(gen_no_factor_witness(3, 2, 3).graph, 0)

    def test_depth_beyond_recursion_limit(self):
        # n disjoint triangles (i, n+i, 2n+i): the count table is n levels deep
        n = sys.getrecursionlimit() + 100
        g = PartiteGraph(
            3, n, [e for i in range(n) for e in ((i, n + i), (i, 2 * n + i), (n + i, 2 * n + i))]
        )
        f = sample_factor_uniform(g, 0)
        assert f.cliques == tuple((i, n + i, 2 * n + i) for i in range(n))


class TestEstimateSpread:
    def test_exact_reference_values(self):
        est = estimate_spread(PartiteGraph.complete(3, 2), 2)
        assert est.mode == "exact"
        assert est.sample_count == 4
        assert est.values[1] == 0.25
        assert est.values[2] == 0.5  # (1/4) ** (1/2)
        est3 = estimate_spread(PartiteGraph.complete(3, 3), 1)
        assert est3.values[1] == 4 / 36

    def test_subset_size_is_capped_at_n(self):
        est = estimate_spread(PartiteGraph.complete(3, 2), 5)
        assert set(est.values) == {1, 2}

    def test_sampled_mode_agrees_roughly(self):
        g = PartiteGraph.complete(3, 2)
        est = estimate_spread(g, 1, mode="sampled", seed=3, samples=800)
        assert est.mode == "sampled" and est.sample_count == 800
        assert abs(est.values[1] - 0.25) < 0.08
        # the same draws as sample_factor_uniform on the same substreams
        counts = Counter(
            K
            for t in range(800)
            for K in sample_factor_uniform(g, RandomSeed(3).substream(t)).cliques
        )
        assert est.values == {1: max(counts.values()) / 800}

    def test_error_paths(self, monkeypatch):
        with pytest.raises(ValueError, match="no factor"):
            estimate_spread(gen_no_factor_witness(3, 2, 5).graph, 1)
        with pytest.raises(ValueError):
            estimate_spread(PartiteGraph.complete(3, 2), 0)
        with pytest.raises(ValueError):
            estimate_spread(PartiteGraph.complete(3, 2), 1, mode="guess")
        monkeypatch.setattr(krfactor.solver, "SPREAD_FACTOR_BUDGET", 10)
        with pytest.raises(BudgetExceededError, match="more than 10 factors"):
            estimate_spread(PartiteGraph.complete(3, 3), 1)


class TestVerifyFactor:
    def test_accepts_valid(self):
        g = PartiteGraph.complete(3, 2)
        assert verify_factor(g, [(0, 2, 4), (1, 3, 5)]) == (True, "")

    def test_rejection_reasons(self):
        g = PartiteGraph.complete(3, 2)
        ok, why = verify_factor(g, [(0, 2, 4)])
        assert not ok and "not covered" in why
        ok, why = verify_factor(g, [(0, 2, 4), (0, 3, 5), (1, 3, 5)])
        assert not ok and "covered twice" in why
        ok, why = verify_factor(g, [(0, 2), (1, 3, 5)])
        assert not ok and "expected 3" in why
        ok, why = verify_factor(g, [(0, 2, 9), (1, 3, 5)])
        assert not ok and "out of range" in why
        ok, why = verify_factor(g, [(0, 1, 4), (2, 3, 5)])
        assert not ok and "one vertex per part" in why
        sparse = PartiteGraph(3, 2, [(0, 2), (1, 3), (1, 5), (3, 5)])
        ok, why = verify_factor(sparse, [(0, 2, 4), (1, 3, 5)])
        assert not ok and "missing edge" in why

    @staticmethod
    def _mutate(rnd, cliques, vertex_count):
        cl = [list(K) for K in cliques]
        for _ in range(rnd.randrange(3)):
            op = rnd.randrange(6)
            if op == 2:
                rnd.shuffle(cl)
            elif not cl:
                continue
            elif op == 0:
                cl.pop(rnd.randrange(len(cl)))
            elif op == 1:
                cl.append(list(rnd.choice(cl)))
            elif op == 3:
                rnd.shuffle(rnd.choice(cl))
            elif op == 4:
                K = rnd.choice(cl)
                K.insert(rnd.randrange(len(K) + 1), rnd.choice([-1, vertex_count]))
            elif op == 5:
                del rnd.choice(cl)[-1:]
        return cl

    @pytest.mark.parametrize("r", [2, 3, 4])
    def test_agrees_with_brute_force_and_factor(self, r):
        rnd = random.Random(r)
        for n in (1, 2, 3):
            complete = PartiteGraph.complete(r, n)
            for t, p in enumerate((1.0, 0.8, 0.6)):
                g = sparsify(complete, p, RandomSeed(t))
                factors = set(brute_factors(g))
                base = (find_factor(g) or find_factor(complete)).cliques
                for _ in range(30):
                    cl = self._mutate(rnd, base, g.vertex_count)
                    ok, why = verify_factor(g, cl)
                    assert ok == (tuple(sorted(map(tuple, cl))) in factors)
                    try:
                        Factor(g, cl)
                    except ValueError as exc:
                        assert (ok, why) == (False, str(exc))
                    else:
                        assert (ok, why) == (True, "")


class TestCertificates:
    def test_round_trip(self, tmp_path):
        g = PartiteGraph.complete(3, 3)
        f = find_factor(g)
        path = tmp_path / "cert.txt"
        write_factor_certificate(f.cliques, path)
        assert read_factor_certificate(path) == f.cliques
        assert verify_factor(g, read_factor_certificate(path)) == (True, "")

    def test_empty_and_comments(self, tmp_path):
        path = tmp_path / "cert.txt"
        write_factor_certificate((), path)
        assert read_factor_certificate(path) == ()
        path.write_text("# comment\n0 2 4\n\n1 3 5\n")
        assert read_factor_certificate(path) == ((0, 2, 4), (1, 3, 5))

    def test_malformed(self, tmp_path):
        path = tmp_path / "cert.txt"
        path.write_text("0 2 x\n")
        with pytest.raises(FileFormatError, match="line 1"):
            read_factor_certificate(path)
        with pytest.raises(FileFormatError):
            read_factor_certificate(tmp_path / "missing.txt")
