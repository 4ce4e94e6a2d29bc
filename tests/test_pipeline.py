import hashlib
import json
import math
import random
from collections import Counter

import pytest

import krfactor.pipeline
from krfactor import (
    BalanceError,
    BalanceTuplesError,
    BudgetExceededError,
    CoverError,
    PartiteGraph,
    PartitionedInstance,
    RandomSeed,
    RegularityParams,
    Tiling,
    balance_tuples,
    balance_weights,
    cover_exceptional,
    gen_super_regular_instance,
    run_pipeline,
    solve_restricted,
    sparsify,
    split_rounds,
    verify_factor,
)
from krfactor.pipeline import WeightAssignment
from krfactor._num import mask_of
from oracles import (
    brute_weights_exist,
    ref_balance_tuples,
    ref_cover_exceptional,
    ref_reserve_conditions,
)


def _full_part_instance(r, n, *, epsilon=0.1, d=0.5, gamma=0.5, reserved=None):
    """k=1 instance whose single clusters are the full parts of a complete host."""
    g = PartiteGraph.complete(r, n)
    clusters = tuple((tuple(g.part_range(i)),) for i in range(r))
    params = RegularityParams(epsilon=epsilon, d=d, gamma=gamma)
    if reserved is None:
        reserved = tuple(range(g.vertex_count))
    return PartitionedInstance(g, clusters, params, reserved=tuple(reserved))


class TestCoverExceptional:
    def test_empty_roots(self):
        g = PartiteGraph.complete(3, 4)
        res = cover_exceptional(g, [], 0.5, [], 0)
        assert res.tiling.cliques == ()
        assert res.quota_usage == ()
        assert res.warnings == ()

    def test_single_root_takes_first_candidate(self):
        g = PartiteGraph.complete(3, 4)
        quotas = [(1, 2, 3), tuple(range(4, 8)), tuple(range(8, 12))]
        res = cover_exceptional(g, [0], 0.5, quotas, 3)
        assert res.tiling.cliques == ((0, 4, 8),)
        assert res.quota_usage == (0, 1, 1)
        again = cover_exceptional(g, [0], 0.5, quotas, 3)
        assert again.tiling == res.tiling

    def test_roots_prefer_least_used_quota_sets(self):
        # after (0, 4, 8) uses quota sets 0 and 2, root 1 skips the
        # lexicographically first (1, 5, 9) for a clique in unused sets
        g = PartiteGraph.complete(3, 4)
        quotas = [(4, 5), (6, 7), (8, 9), (10, 11)]
        res = cover_exceptional(g, [0, 1], 0.5, quotas, 0)
        assert res.tiling.cliques == ((0, 4, 8), (1, 6, 10))
        assert res.quota_usage == (1, 1, 1, 1)

    def test_dead_reveal_raises_cover_error(self):
        g = PartiteGraph.complete(3, 4)
        with pytest.raises(CoverError) as exc:
            cover_exceptional(g, [0], 0.5, [], 3, p=0.0)
        assert exc.value.root == 0
        assert exc.value.survivors == 16  # every clique through 0 survived the filter

    def test_survival_law_on_single_edge(self):
        # K(2,1): the root's only candidate survives iff its one edge does
        g = PartiteGraph.complete(2, 1)
        hits = 0
        trials = 3000
        for seed in range(trials):
            try:
                cover_exceptional(g, [0], 0.5, [], seed, p=0.4)
            except CoverError:
                continue
            hits += 1
        sigma = math.sqrt(0.4 * 0.6 / trials)
        assert abs(hits / trials - 0.4) <= 3 * sigma

    def test_cliques_lie_in_the_sparsified_host(self):
        g = PartiteGraph.complete(3, 6)
        res = cover_exceptional(g, [0, 6], 0.5, [], 4, p=0.6)
        gp = sparsify(g, 0.6, 4)
        assert res.tiling.host == gp
        assert gp != g
        assert len(res.tiling) == 2
        for K in res.tiling.cliques:
            assert all(gp.has_edge(a, b) for a in K for b in K if a < b)

    def test_saturated_quotas_block_roots(self):
        # singleton quotas with tiny mu saturate before any use
        g = PartiteGraph.complete(3, 4)
        quotas = [(v,) for v in range(4, 12)]
        with pytest.raises(CoverError) as exc:
            cover_exceptional(g, [0], 0.05, quotas, 5)
        assert exc.value.survivors == 0

    def test_cap_clamp_warning(self):
        g = PartiteGraph.complete(2, 2)
        res = cover_exceptional(g, [0], 0.1, [(2, 3)], 7)
        assert any("clamped" in w for w in res.warnings)
        assert any("exceeds" in w for w in res.warnings)

    def test_short_candidate_warning(self):
        g = PartiteGraph.complete(2, 2)
        res = cover_exceptional(g, [0], 0.9, [(2, 3)], 11)
        assert any("only 2 candidates" in w for w in res.warnings)

    def test_quota_accounting_matches_tiling(self):
        for seed in range(30):
            r = 3 + seed % 2
            n = 8 + seed % 3
            g = PartiteGraph.complete(r, n)
            roots = [0, n, 2 * n][: 1 + seed % 3]
            quotas = [
                tuple(range(i * n + n // 2, (i + 1) * n)) for i in range(r)
            ]
            res = cover_exceptional(g, roots, 0.12, quotas, seed, p=0.9)
            covered = res.tiling.covered_mask
            for v in roots:
                assert (covered >> v) & 1
            recount = [0] * len(quotas)
            for K in res.tiling.cliques:
                for v in K:
                    owners = [s for s, q in enumerate(quotas) if v in q]
                    assert len(owners) <= 1
                    if owners:
                        recount[owners[0]] += 1
            assert tuple(recount) == res.quota_usage
            for s, usage in enumerate(res.quota_usage):
                assert usage <= 4 * r * 0.12 * len(quotas[s]) + r - 2 + 1e-9

    def test_validation(self):
        g = PartiteGraph.complete(3, 4)
        with pytest.raises(ValueError, match="distinct"):
            cover_exceptional(g, [0, 0], 0.5, [], 0)
        with pytest.raises(ValueError, match="out of range"):
            cover_exceptional(g, [99], 0.5, [], 0)
        with pytest.raises(ValueError, match="contains a root"):
            cover_exceptional(g, [4], 0.5, [(4, 5)], 0)
        with pytest.raises(ValueError, match="overlaps"):
            cover_exceptional(g, [0], 0.5, [(4, 5), (5, 6)], 0)
        with pytest.raises(ValueError, match="quota set 1 has a vertex out of range"):
            cover_exceptional(g, [0], 0.5, [(4, 5), (6, 12)], 0)
        with pytest.raises(ValueError, match="mu"):
            cover_exceptional(g, [0], 0.0, [], 0)
        with pytest.raises(ValueError, match="p must"):
            cover_exceptional(g, [0], 0.5, [], 0, p=1.5)
        with pytest.raises(ValueError, match="allowed"):
            cover_exceptional(
                g, [0], 0.5, [], 0, allowed=g.part_mask(1) | g.part_mask(2)
            )
        with pytest.raises(ValueError, match="allowed has a vertex out of range"):
            cover_exceptional(g, [0], 0.5, [], 0, allowed=(1 << 20) - 1)

    def test_matches_reference(self):
        def outcome(fn, *args, **kwargs):
            try:
                res = fn(*args, **kwargs)
            except Exception as exc:  # the error itself is what gets compared
                return type(exc), str(exc)
            return res.tiling.host.adj, res.tiling.cliques, res.quota_usage, res.warnings

        cases = []
        rng = random.Random(2024)

        def random_case(r, n):
            total = r * n
            keep = rng.choice((1.0, 0.8, 0.5))
            g = sparsify(PartiteGraph.complete(r, n), keep, rng.randrange(99))
            roots = rng.sample(range(total), rng.randint(0, 3))
            rest = [v for v in range(total) if v not in roots]
            rng.shuffle(rest)
            quotas, start = [], 0
            for _ in range(rng.randint(0, 3 * r)):
                size = rng.randint(1, n // 2)
                quotas.append(tuple(sorted(rest[start : start + size])))
                start += size
            allowed = None
            flaw = rng.randrange(16)
            if flaw == 0 and roots:
                roots.append(roots[0])
            elif flaw == 1:
                roots.append(total + rng.randrange(3))
            elif flaw == 2 and roots and quotas:
                quotas[-1] += (roots[0],)
            elif flaw == 3 and len(quotas) > 1 and quotas[0]:
                quotas[-1] += (quotas[0][0],)
            elif flaw == 4 and quotas:
                quotas[-1] += (total,)
            elif flaw in (5, 6):
                allowed = rng.getrandbits(total)
            kwargs = {"p": rng.choice((0.7, 1.0)), "allowed": allowed}
            return g, roots, rng.uniform(0.02, 0.3), quotas, rng.randrange(10**6), kwargs

        for _ in range(320):
            cases.append(random_case(rng.randint(3, 4), rng.randint(6, 14)))
        # r = 2 and small parts, where roots often lie in the last part
        for _ in range(120):
            cases.append(random_case(rng.randint(2, 3), rng.randint(3, 8)))
        # criterion 06's shapes, every fourth run
        shapes = [(3, 10), (3, 13), (3, 16), (4, 10), (4, 11), (4, 12)]
        for i in range(0, 240, 4):
            r, n = shapes[i % len(shapes)]
            roots = tuple(j * n for j in range(r))[: 1 + i % 3]
            quotas = tuple(tuple(range(j * n + n // 2, (j + 1) * n)) for j in range(r))
            mu, p = (0.05, 0.08, 0.12)[i % 3], (0.8, 1.0)[i % 2]
            g = PartiteGraph.complete(r, n)
            cases.append((g, roots, mu, quotas, RandomSeed(100 + i), {"p": p}))
        kinds = Counter()
        reached = Counter()
        for g, roots, mu, quotas, seed, kwargs in cases:
            trace = []
            want = outcome(ref_cover_exceptional, g, roots, mu, quotas, seed, **kwargs, trace=trace)
            assert outcome(cover_exceptional, g, roots, mu, quotas, seed, **kwargs) == want
            kinds[want[0].__name__ if isinstance(want[0], type) else "covered"] += 1
            reached.update(shape for pick in trace for shape in pick)
        # the comparison reaches covers, cover failures and validation errors
        assert kinds["covered"] >= 100
        assert kinds["CoverError"] >= 10
        assert kinds["ValueError"] >= 30
        # and the pick's edge cases: r = 2, a root in the last part, a cap
        # that ends inside a last-part mask, two finite load levels in a pick
        for shape in ("r2", "root_last", "cap_inside", "two_levels"):
            assert reached[shape] >= 10, shape


class TestBalanceWeights:
    def test_single_triangle(self):
        reduced = PartiteGraph.complete(3, 1)
        res = balance_weights(reduced, [5, 5, 5], 0.6)
        assert res.omega == {(0, 1, 2): 5}
        assert res.checks == {
            "part_sums_equal": True,
            "lambda_in_range": True,
            "min_star_degree_ok": True,
        }

    def test_skewed_weights_flag_lambda_range(self):
        reduced = PartiteGraph.complete(2, 2)
        res = balance_weights(reduced, [5, 0, 0, 5], 1.0)
        assert res.omega == {(0, 3): 5}
        assert res.checks["part_sums_equal"] is True
        assert res.checks["lambda_in_range"] is False

    def test_identity_property_on_random_targets(self):
        import random

        rng = random.Random(4)
        for _ in range(25):
            r = rng.choice([2, 3])
            k = rng.randint(1, 3)
            gamma = {2: 1.0, 3: 0.6}[r]
            total = rng.randint(k, 6 * k)
            lam = []
            for _ in range(r):
                cuts = sorted(rng.randint(0, total) for _ in range(k - 1))
                parts = [b - a for a, b in zip([0] + cuts, cuts + [total])]
                lam.extend(parts)
            reduced = PartiteGraph.complete(r, k)
            res = balance_weights(reduced, lam, gamma)
            for v in range(r * k):
                assert sum(w for K, w in res.omega.items() if v in K) == lam[v]
            assert all(w > 0 for w in res.omega.values())

    def test_unequal_part_sums(self):
        reduced = PartiteGraph.complete(2, 1)
        with pytest.raises(BalanceError) as exc:
            balance_weights(reduced, [2, 3], 1.0)
        assert exc.value.checks["part_sums_equal"] is False

    def test_no_cliques_available(self):
        reduced = PartiteGraph(2, 1)
        with pytest.raises(BalanceError, match="no factor"):
            balance_weights(reduced, [1, 1], 1.0)

    def test_no_instance_past_budget(self):
        reduced = PartiteGraph(2, 1)
        with pytest.raises(BudgetExceededError):
            balance_weights(reduced, [1, 1], 1.0, max_rows=0)

    def test_deep_search_has_no_recursion_limit(self):
        res = balance_weights(PartiteGraph.complete(2, 1), [3000, 3000], 1.0)
        assert res.omega == {(0, 1): 3000}

    def test_matches_blowup_oracle(self):
        import random

        rng = random.Random(11)
        answers = []
        for _ in range(300):
            r, k = rng.choice([2, 3]), rng.randint(1, 2)
            edges = [
                (u, v)
                for u in range(r * k)
                for v in range(u + 1, r * k)
                if u // k != v // k and rng.random() < 0.7
            ]
            reduced = PartiteGraph(r, k, edges)
            head = [rng.randint(0, 2) for _ in range(k)]
            head[rng.randrange(k)] = rng.randint(1, 2)
            lam = list(head)
            for _ in range(r - 1):
                while True:
                    part = [rng.randint(0, 2) for _ in range(k)]
                    if sum(part) == sum(head):
                        break
                lam.extend(part)
            exists = brute_weights_exist(reduced, lam)
            answers.append(exists)
            if not exists:
                with pytest.raises(BalanceError, match="no factor"):
                    balance_weights(reduced, lam, 1.0)
                continue
            res = balance_weights(reduced, lam, 1.0)
            for v in range(r * k):
                assert sum(w for K, w in res.omega.items() if v in K) == lam[v]
        assert answers.count(False) >= len(answers) // 5
        assert answers.count(True) >= len(answers) // 5

    def test_all_zero_targets(self):
        reduced = PartiteGraph.complete(2, 2)
        res = balance_weights(reduced, [0, 0, 0, 0], 1.0)
        assert res.omega == {}

    def test_validation(self):
        reduced = PartiteGraph.complete(2, 1)
        with pytest.raises(ValueError):
            balance_weights(reduced, [1], 1.0)
        with pytest.raises(ValueError):
            balance_weights(reduced, [1, -1], 1.0)
        with pytest.raises(ValueError):
            balance_weights(reduced, [1, 1], 0.0)


class TestWeightAssignment:
    def test_rejects_broken_accounting(self):
        reduced = PartiteGraph.complete(2, 1)
        with pytest.raises(ValueError, match="realize"):
            WeightAssignment(reduced, (1, 1), {(0, 1): 2}, {})
        with pytest.raises(ValueError, match="part order"):
            WeightAssignment(reduced, (1, 1), {(1, 0): 1}, {})
        with pytest.raises(ValueError, match="missing edge"):
            WeightAssignment(PartiteGraph(2, 1), (1, 1), {(0, 1): 1}, {})


def _round2_outcome(f, args):
    """f(*args)'s Tiling, or the type, text and tuple key of its round-2 error."""
    try:
        return f(*args)
    except (BalanceTuplesError, BudgetExceededError) as exc:
        return type(exc), str(exc), getattr(exc, "tuple_key", None)


def _stranding_gadget():
    # only disjoint pair is T1=(0,4,8), T2=(1,5,9); a first pick of the
    # decoy (0,5,9) blocks both, and the random pass strands the tuple
    edges = [(0, 4), (4, 8), (0, 8), (1, 5), (5, 9), (1, 9), (0, 5), (0, 9)]
    g = PartiteGraph(3, 4, edges)
    clusters = tuple((tuple(g.part_range(i)),) for i in range(3))
    params = RegularityParams(epsilon=0.1, d=0.2, gamma=0.5)
    return g, PartitionedInstance(g, clusters, params, reserved=tuple(range(12)))


class TestBalanceTuples:
    def test_single_pick(self):
        inst = _full_part_instance(3, 4)
        res = balance_tuples(inst.host, inst, {(0, 1, 2): 1}, 3, 0)
        assert len(res.cliques) == 1
        K = res.cliques[0]
        assert [inst.host.part_of(v) for v in K] == [0, 1, 2]
        assert all(v in inst.reserved for v in K)

    def test_zero_omega(self):
        inst = _full_part_instance(3, 4)
        res = balance_tuples(inst.host, inst, {}, 4, 0)
        assert res.cliques == ()

    def test_target_precheck_errors(self):
        inst = _full_part_instance(3, 4)
        with pytest.raises(BalanceTuplesError, match="not the target"):
            balance_tuples(inst.host, inst, {(0, 1, 2): 2}, 3, 0)
        short = _full_part_instance(3, 4, reserved=range(4, 12))
        with pytest.raises(BalanceTuplesError, match="smaller than required"):
            balance_tuples(short.host, short, {(0, 1, 2): 1}, 3, 0)

    def test_sparse_round_fails_with_tuple_key(self):
        inst = _full_part_instance(3, 4)
        empty = PartiteGraph(3, 4)
        with pytest.raises(BalanceTuplesError) as exc:
            balance_tuples(empty, inst, {(0, 1, 2): 1}, 3, 0)
        assert exc.value.tuple_key == (0, 1, 2)

    def test_stranded_choice_raises_with_tuple_key(self):
        g, inst = _stranding_gadget()
        outcomes = Counter()
        for seed in range(10):
            try:
                res = balance_tuples(g, inst, {(0, 1, 2): 2}, 2, seed)
            except BalanceTuplesError as exc:
                assert exc.tuple_key == (0, 1, 2)
                assert str(exc) == "the random choice stranded tuple (0, 1, 2) after 1 of 2 cliques"
                outcomes["stranded"] += 1
            else:
                assert set(res.cliques) == {(0, 4, 8), (1, 5, 9)}
                outcomes["balanced"] += 1
        assert outcomes["stranded"] and outcomes["balanced"]

    def test_omega_key_validation(self):
        inst = _full_part_instance(3, 4)
        with pytest.raises(ValueError, match="negative"):
            balance_tuples(inst.host, inst, {(0, 1, 2): -1}, 4, 0)
        with pytest.raises(ValueError, match="expected 3"):
            balance_tuples(inst.host, inst, {(0, 1): 1}, 3, 0)
        with pytest.raises(ValueError, match="not a part-0 cluster"):
            balance_tuples(inst.host, inst, {(1, 1, 2): 1}, 3, 0)

    def test_budget(self, monkeypatch):
        inst = _full_part_instance(3, 4)
        monkeypatch.setattr(krfactor.pipeline, "DEFAULT_ROW_BUDGET", 0)
        with pytest.raises(BudgetExceededError, match="more than 0 transversal cliques"):
            balance_tuples(inst.host, inst, {(0, 1, 2): 1}, 3, 0)

    def test_matches_reference_on_planted_round2_calls(self, monkeypatch):
        # the calls run_pipeline makes at r = 2, 3 and 4, each replayed at its
        # own choice and at five more seeds
        calls = {}

        def record(*args):
            calls.setdefault(args[0].r, []).append(args)
            return balance_tuples(*args)

        monkeypatch.setattr(krfactor.pipeline, "balance_tuples", record)
        shapes = [((2, 3, 15, 0.6, 2), 0.7), ((3, 2, 45, 0.6, 3), 0.7), ((4, 2, 20, 0.7, 4), 0.8)]
        for shape, p in shapes:
            for cli_seed in range(10):
                inst = gen_super_regular_instance(*shape, RandomSeed(cli_seed).substream(999))
                run_pipeline(inst, p, cli_seed)
        assert sorted(calls) == [2, 3, 4]
        kinds = Counter()
        for args in (a for r in sorted(calls) for a in calls[r]):
            for seed in [args[4], *range(5)]:
                replay = (*args[:4], seed)
                got = _round2_outcome(balance_tuples, replay)
                assert got == _round2_outcome(ref_balance_tuples, replay)
                kinds[type(got) is Tiling] += 1
        assert kinds[True] and kinds[False]

    def test_matches_reference_on_the_stranding_gadget(self):
        g, inst = _stranding_gadget()
        for seed in range(10):
            args = (g, inst, {(0, 1, 2): 2}, 2, seed)
            assert _round2_outcome(balance_tuples, args) == _round2_outcome(ref_balance_tuples, args)

    def test_budget_boundary_matches_reference(self, monkeypatch):
        inst = _full_part_instance(3, 4)
        args = (inst.host, inst, {(0, 1, 2): 2}, 2, 0)
        count = 4 * 4 * 4  # every transversal of K_{4,4,4}
        monkeypatch.setattr(krfactor.pipeline, "DEFAULT_ROW_BUDGET", count)
        fits = _round2_outcome(balance_tuples, args)
        assert type(fits) is Tiling
        assert fits == _round2_outcome(ref_balance_tuples, args)
        monkeypatch.setattr(krfactor.pipeline, "DEFAULT_ROW_BUDGET", count - 1)
        over = _round2_outcome(balance_tuples, args)
        assert over == (BudgetExceededError, f"more than {count - 1} transversal cliques", None)
        assert over == _round2_outcome(ref_balance_tuples, args)


class TestRunPipeline:
    def test_dense_no_exceptional(self):
        inst = _full_part_instance(3, 10, gamma=0.6, d=0.8)
        rep = run_pipeline(inst, 1.0, 3)
        assert rep.success
        assert rep.failure_stage is None
        assert rep.stages["cover"]["cliques"] == 0
        assert rep.stages["residue"]["target"] == 9
        assert rep.stages["residue"]["cliques"] == 1
        assert rep.stages["round3"]["cliques"] == 9
        assert rep.stages["round3"]["per_tuple"] == [9]
        assert verify_factor(inst.host, rep.factor) == (True, "")

    def test_generated_instance_end_to_end(self):
        inst = gen_super_regular_instance(3, 2, 30, 0.6, 3, 42)
        rep = run_pipeline(inst, 1.0, 7)
        assert rep.success, rep.error
        assert verify_factor(inst.host, rep.factor) == (True, "")
        assert rep.stages["cover"]["cliques"] == 3

    def test_factor_lies_in_the_revealed_rounds(self):
        inst = gen_super_regular_instance(3, 2, 30, 0.6, 3, 42)
        rep = run_pipeline(inst, 0.9, 0)
        assert rep.success, rep.error
        assert rep.verified
        assert rep.stages["cover"]["cliques"] == 3
        g = inst.host
        rounds = [
            sparsify(g, split_rounds(0.9, 3), RandomSeed(0).substream(s)) for s in (1, 3, 5)
        ]
        union = PartiteGraph.from_masks(
            g.r, g.n, [a | b | c for a, b, c in zip(*(h.adj for h in rounds))]
        )
        assert union != g
        assert verify_factor(union, rep.factor) == (True, "")

    def test_host_only_round3_cliques_are_rejected(self, monkeypatch):
        # a round 3 that ignores its sparsification finds cliques of the host
        # that G1 ∪ G2 ∪ G3 lacks, and the final check must catch them
        inst = gen_super_regular_instance(3, 2, 30, 0.6, 3, 42)
        monkeypatch.setattr(
            "krfactor.pipeline.solve_restricted",
            lambda g3, masks, **kw: solve_restricted(inst.host, masks, **kw),
        )
        rep = run_pipeline(inst, 0.9, 0)
        assert not rep.success
        assert rep.failure_stage == "verify"
        assert rep.error.startswith("internal: assembled factor rejected: ")
        assert "missing edge" in rep.error

    def test_sparse_failure_is_staged(self):
        inst = _full_part_instance(3, 10, gamma=0.6, d=0.8)
        rep = run_pipeline(inst, 0.0, 3)
        assert not rep.success
        assert rep.factor is None
        assert rep.failure_stage == "balance_tuples"
        assert "error" in rep.stages["residue"]

    def test_sparse_failure_hits_cover_first_with_exceptional(self):
        inst = gen_super_regular_instance(3, 1, 12, 0.8, 3, 0)
        rep = run_pipeline(inst, 0.0, 0)
        assert not rep.success
        assert rep.failure_stage == "cover_exceptional"
        assert "error" in rep.stages["cover"]

    def test_reserve_exhaustion(self, monkeypatch):
        monkeypatch.setattr("krfactor.pipeline.RESERVE_ATTEMPTS", 5)
        # alpha so tight no integer cluster count can land in the band
        inst = gen_super_regular_instance(3, 1, 13, 0.9, 0, 2)
        rep = run_pipeline(inst, 1.0, 0, alpha=0.0001)
        assert not rep.success
        assert rep.failure_stage == "reserve_selection"
        assert rep.stages["reserve"]["attempts"] == 5

    def test_round_split_matches_success_rate(self):
        # single-edge host: success iff the one edge survives the round-2 reveal
        g = PartiteGraph.complete(2, 1)
        params = RegularityParams(epsilon=0.1, d=0.5, gamma=1.0)
        inst = PartitionedInstance(g, (((0,),), ((1,),)), params, reserved=(0, 1))
        p_round = split_rounds(0.4, 3)
        hits = 0
        trials = 3000
        for seed in range(trials):
            rep = run_pipeline(inst, 0.4, seed)
            if rep.success:
                hits += 1
            else:
                assert rep.failure_stage == "balance_tuples"
        rate = hits / trials
        sigma = math.sqrt(p_round * (1 - p_round) / trials)
        assert abs(rate - p_round) <= 3 * sigma

    def test_report_json_is_stable(self):
        inst = _full_part_instance(3, 6, gamma=0.6, d=0.8)
        a = run_pipeline(inst, 1.0, 5).to_json()
        b = run_pipeline(inst, 1.0, 5).to_json()
        assert a == b
        payload = json.loads(a)
        assert payload["success"] is True
        assert payload["verified"] is True
        assert set(payload["stages"]) == {
            "reserve",
            "cover",
            "reduced",
            "weights",
            "residue",
            "round3",
        }

    def test_bad_probability(self):
        inst = _full_part_instance(3, 6)
        with pytest.raises(ValueError):
            run_pipeline(inst, 1.5, 0)


def _bench_shape_report(cli_seed, p=0.9):
    """`pipeline-run --r 3 --k 2 --cluster-size 45 --d 0.6 --b-size 3 --p p --seed cli_seed`."""
    inst = gen_super_regular_instance(3, 2, 45, 0.6, 3, RandomSeed(cli_seed).substream(999))
    return run_pipeline(inst, p, cli_seed)


# sha256 of the report JSON; p 0.7 covers round-2 redraws and round-3 strands
PINNED_REPORTS = {
    ("bench", 0.9, 0): "ee4a21c3c8e0b1e8271da0756165e75abc1af052b6efc61cb8419a0cfc913f53",
    ("bench", 0.9, 1): "d843b100f2edd6a7776f6fad48e48e0871f631982ac88270aac5026223bcad05",
    ("bench", 0.9, 2): "3cb32d686868d3b1de9a7994e531d95aec0c8aa2b426bf39846248a3d4e8e822",
    ("bench", 0.9, 3): "97972146533577ae2cb2bcc5d5f8a758bf4901b97f9b82c4f01278daaad9360e",
    ("bench", 0.9, 4): "4a7c73d8ed007b7bdad3ba6a260c5365a9847bf3bb78988bf1d48e8e71e1b26f",
    ("bench", 0.7, 0): "bfe0f31c9a53e72aa370464c14395c0973f38596301d1cad7b07f55f391fa7b4",
    ("bench", 0.7, 1): "10ec7e732476d866de2c2ec13b92023e76cd730c4e499e89a0e67f375a67541f",
    ("bench", 0.7, 2): "d1aaac509fe485d801bef08663eee8b7a80b0a234f070cc462f2ba8903decb5b",
    ("bench", 0.7, 3): "619a0e43b733c3e02c4995ae18b5b3251b9311cac2411a10fdc93aa7247859bf",
    ("bench", 0.7, 4): "3dd5e0d0ce22aaca62ae4e30986baf3c4a68af7242467b78a0b3b2c655bc64e0",
    ("criterion 11", 1.0, 0): "d686e246dcf9660411dad0d96cf6ee1d460eb2a0141be8e02db836169eaa1ec6",
    ("criterion 11", 1.0, 1): "54a4d7fd8a8b53c4281a4a759ff6300e98caf6c1ede425b98eb866dd6aebb9a9",
    ("criterion 11", 1.0, 2): "a5fa6a30700f0a28a3b35481177169fa5b2aa766ba573f747bfbaceddccd980e",
}


@pytest.mark.parametrize("shape, p, seed", sorted(PINNED_REPORTS))
def test_report_bytes_are_pinned(shape, p, seed):
    if shape == "bench":
        rep = _bench_shape_report(seed, p)
    else:
        inst = gen_super_regular_instance(3, 2, 30, 0.6, 3, seed, epsilon=0.25)
        rep = run_pipeline(inst, p, seed)
    digest = hashlib.sha256(rep.to_json().encode()).hexdigest()
    assert digest == PINNED_REPORTS[shape, p, seed]


def test_criterion12_shape_succeeds_on_every_seed():
    # `pipeline-run --r 3 --k 1 --cluster-size 20 --d 0.8 --b-size 0 --p 1 --seed s`;
    # every planted pair clears params.d = 0.6 by ~10 sigma, so each reduced
    # graph is complete and no seed may fail at balance_weights
    for cli_seed in range(100):
        inst = gen_super_regular_instance(3, 1, 20, 0.8, 0, RandomSeed(cli_seed).substream(999))
        rep = run_pipeline(inst, 1.0, cli_seed)
        assert rep.success, (cli_seed, rep.error)
        assert rep.verified
        assert verify_factor(inst.host, rep.factor) == (True, "")


class TestReserveConditions:
    @pytest.mark.parametrize(
        # (r, k, cluster_size, d, b_size, b_attach); at b_attach 0.8 some
        # pools pass the cluster counts and fail on exceptional degrees alone
        "shape",
        [
            (3, 2, 45, 0.6, 3, 0.9),
            (2, 3, 10, 0.5, 2, 0.9),
            (4, 1, 8, 0.8, 0, 0.9),
            (3, 2, 45, 0.6, 3, 0.8),
        ],
    )
    def test_split_tally_matches_reference(self, shape):
        # reserve draws as run_pipeline makes them, plus the empty and full pools
        *planted, b_attach = shape
        verdicts = set()
        for cli_seed in range(3):
            inst = gen_super_regular_instance(
                *planted, RandomSeed(cli_seed).substream(999), b_attach=b_attach
            )
            eligible = sorted(v for part in inst.clusters for cl in part for v in cl)
            pools = [0, mask_of(eligible)]
            for attempt in range(3):
                gen = RandomSeed(cli_seed).substream(0).substream(attempt).generator()
                coins = gen.random(len(eligible)) < 0.5
                pools.append(mask_of(v for keep, v in zip(coins, eligible) if keep))
            for wmask in pools:
                got = krfactor.pipeline._reserve_conditions(inst, wmask, 0.25)
                assert got == ref_reserve_conditions(inst, wmask, 0.25)
                ok, diag = got
                assert type(ok) is bool
                assert all(type(x) is int for x in diag["cluster_counts"])
                assert {key: type(x) for key, x in diag.items()} == {
                    "cluster_counts": list,
                    "cluster_counts_ok": bool,
                    "exceptional_degrees_ok": bool,
                    "split_checked": int,
                    "split_violations": int,
                }
                verdicts.add((diag["cluster_counts_ok"], diag["exceptional_degrees_ok"]))
        assert (True, True) in verdicts
        if b_attach < 0.9:
            assert (True, False) in verdicts


class TestBenchShape:
    @pytest.mark.parametrize("cli_seed", [1000138, 3000287, 7000161, 48000050])
    def test_seeds_that_stranded_succeed(self, cli_seed):
        # all three cover cliques once came from cluster 0, leaving lambda 3 vs 5
        rep = _bench_shape_report(cli_seed)
        assert rep.success, rep.error
        assert rep.verified

    def test_cover_keeps_lambda_in_range(self):
        for cli_seed in range(20):
            rep = _bench_shape_report(cli_seed)
            assert rep.stages["weights"]["checks"]["lambda_in_range"], (
                cli_seed, rep.stages["weights"]["lambda"]
            )

    def test_round3_strand_is_recovered_by_another_round2_choice(self, monkeypatch):
        rep = _bench_shape_report(13000247)
        assert rep.success, rep.error
        assert rep.stages["residue"]["attempts"] == 2
        monkeypatch.setattr("krfactor.pipeline.ROUND2_ATTEMPTS", 1)
        rep = _bench_shape_report(13000247)
        assert not rep.success
        assert rep.failure_stage == "round3"
        assert rep.error == "no factor found on cluster tuple 1 after 1 round-2 choices"
        assert rep.stages["residue"]["attempts"] == 1
        assert rep.stages["round3"]["failed_tuple"] == 1

    def test_redraw_that_cannot_balance_is_a_spent_choice(self, monkeypatch):
        # every choice that cannot be balanced is a spent choice, so the last
        # round-3 strand remains the error
        calls = []

        def first_only(*args, **kwargs):
            calls.append(args)
            if len(calls) > 1:
                raise BalanceTuplesError("no disjoint cliques left")
            return balance_tuples(*args, **kwargs)

        monkeypatch.setattr("krfactor.pipeline.balance_tuples", first_only)
        rep = _bench_shape_report(13000247)
        assert len(calls) == 5
        assert not rep.success
        assert rep.failure_stage == "round3"
        assert rep.error == "no factor found on cluster tuple 1 after 5 round-2 choices"
        assert rep.stages["residue"]["attempts"] == 5
        assert rep.stages["round3"]["failed_tuple"] == 1

    def test_first_choice_that_cannot_balance_is_redrawn(self, monkeypatch):
        calls = []

        def all_but_first(*args, **kwargs):
            calls.append(args)
            if len(calls) == 1:
                raise BalanceTuplesError("stranded", tuple_key=(0, 2, 4))
            return balance_tuples(*args, **kwargs)

        monkeypatch.setattr("krfactor.pipeline.balance_tuples", all_but_first)
        rep = _bench_shape_report(0)
        assert rep.success, rep.error
        assert rep.stages["residue"]["attempts"] == 2
        assert "error" not in rep.stages["residue"]

    def test_half_density_spends_every_choice(self):
        # 126: no choice can be balanced; 180: the first choice cannot be
        # balanced, and the later ones that can strand in round 3
        rep = _bench_shape_report(126, 0.5)
        assert rep.failure_stage == "balance_tuples"
        assert rep.stages["residue"]["attempts"] == 5
        assert rep.error.startswith("the random choice stranded tuple ")
        rep = _bench_shape_report(180, 0.5)
        assert rep.failure_stage == "round3"
        assert rep.stages["residue"]["attempts"] == 5
        assert rep.error.endswith("after 5 round-2 choices")
