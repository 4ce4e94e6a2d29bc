import math
from itertools import combinations, permutations, product

import pytest

from krfactor import (
    AuxiliaryGraph,
    BudgetExceededError,
    Factor,
    FileFormatError,
    GraphFamily,
    PartiteGraph,
    PermutationBundle,
    TransversalFactor,
    bpi_min_degree_trial,
    build_b_pi,
    find_factor,
    governing_index,
    lift_factor,
    read_family,
    read_transversal_certificate,
    sample_bundle,
    sparsify,
    transversal_oracle,
    verify_transversal,
    write_family,
    write_transversal_certificate,
)


def complete_family(r, n):
    size = n * math.comb(r, 2)
    return GraphFamily(r, n, tuple(PartiteGraph.complete(r, n) for _ in range(size)))


def all_bundles(r, n):
    for perms in product(permutations(range(n)), repeat=r):
        yield PermutationBundle(tuple(perms))


class TestGraphFamily:
    def test_block_layout(self):
        # under identity permutations, source position s of pair (i, j)
        # reads member rank(i, j) * n + s: blocks of n in pair-rank order
        fam = complete_family(3, 2)
        assert fam.size == 6
        ident = PermutationBundle(((0, 1),) * 3)
        served = {
            governing_index(fam, ident, i * 2 + s, j * 2): (i, j)
            for i, j in combinations(range(3), 2)
            for s in range(2)
        }
        assert served == {0: (0, 1), 1: (0, 1), 2: (0, 2), 3: (0, 2), 4: (1, 2), 5: (1, 2)}

    def test_validation(self):
        g = PartiteGraph.complete(3, 2)
        with pytest.raises(ValueError, match="needs 6 members"):
            GraphFamily(3, 2, (g,) * 5)
        with pytest.raises(ValueError, match="expected a PartiteGraph"):
            GraphFamily(3, 2, (g,) * 5 + (PartiteGraph.complete(3, 3),))
        with pytest.raises(ValueError, match="r >= 2"):
            GraphFamily(1, 2, ())


class TestBundles:
    def test_validation(self):
        PermutationBundle(((0, 1), (1, 0)))
        with pytest.raises(ValueError, match="not a permutation"):
            PermutationBundle(((0, 0), (1, 0)))

    def test_sampling_is_deterministic(self):
        fam = complete_family(3, 6)
        a = sample_bundle(fam, 11)
        b = sample_bundle(fam, 11)
        c = sample_bundle(fam, 12)
        assert a == b
        assert a != c
        assert len(a.perms) == 3 and all(len(p) == 6 for p in a.perms)


class TestGoverningIndex:
    def test_source_vertex_governs(self):
        fam = complete_family(2, 2)
        ident = PermutationBundle(((0, 1), (0, 1)))
        swap = PermutationBundle(((1, 0), (0, 1)))
        assert governing_index(fam, ident, 0, 2) == 0
        assert governing_index(fam, ident, 1, 2) == 1
        assert governing_index(fam, ident, 2, 0) == 0  # argument order is free
        assert governing_index(fam, swap, 0, 2) == 1
        assert governing_index(fam, swap, 0, 3) == 1
        # the permutation of the non-source part never matters
        swap_j = PermutationBundle(((0, 1), (1, 0)))
        assert governing_index(fam, swap_j, 0, 2) == 0

    def test_higher_pairs_use_their_block(self):
        fam = complete_family(3, 2)
        ident = PermutationBundle(((0, 1),) * 3)
        assert governing_index(fam, ident, 0, 2) == 0  # pair (0,1), block 0
        assert governing_index(fam, ident, 0, 4) == 2  # pair (0,2), block 2
        assert governing_index(fam, ident, 3, 4) == 5  # pair (1,2), block 4, pos 1

    def test_same_part_rejected(self):
        fam = complete_family(2, 2)
        ident = PermutationBundle(((0, 1), (0, 1)))
        with pytest.raises(ValueError, match="cross-part"):
            governing_index(fam, ident, 0, 1)


class TestBuildBPi:
    def test_complete_family_gives_complete_aggregate(self):
        fam = complete_family(3, 3)
        aux = build_b_pi(fam, sample_bundle(fam, 0))
        assert aux.graph == PartiteGraph.complete(3, 3)
        assert aux.family is fam

    def test_hand_case_pins_indexing(self):
        m0 = PartiteGraph(2, 2, [(0, 2)])
        m1 = PartiteGraph(2, 2, [(1, 2), (1, 3)])
        fam = GraphFamily(2, 2, (m0, m1))
        ident = build_b_pi(fam, PermutationBundle(((0, 1), (0, 1))))
        assert sorted(ident.graph.edges()) == [(0, 2), (1, 2), (1, 3)]
        swapped = build_b_pi(fam, PermutationBundle(((1, 0), (0, 1))))
        assert sorted(swapped.graph.edges()) == []

    def test_every_pair_inherits_from_its_member(self):
        for seed in range(8):
            members = tuple(
                sparsify(PartiteGraph.complete(3, 2), 0.6, 100 * seed + t)
                for t in range(6)
            )
            fam = GraphFamily(3, 2, members)
            for bundle in all_bundles(3, 2):
                aux = build_b_pi(fam, bundle)
                for u in range(6):
                    for v in range(u + 1, 6):
                        if u // 2 == v // 2:
                            continue
                        idx = governing_index(fam, bundle, u, v)
                        assert aux.graph.has_edge(u, v) == fam.graphs[idx].has_edge(u, v)

    def test_validation(self):
        fam = complete_family(2, 2)
        with pytest.raises(ValueError, match="bundle shape"):
            build_b_pi(fam, PermutationBundle(((0, 1),)))


class TestLiftFactor:
    def test_complete_family_lift(self):
        fam = complete_family(3, 3)
        aux = build_b_pi(fam, sample_bundle(fam, 2))
        factor = find_factor(aux.graph)
        tf = lift_factor(aux, factor)
        assert sorted(tf.assignment.values()) == list(range(9))
        assert verify_transversal(fam, tf) == (True, "")

    def test_partial_factor_rejected(self):
        fam = complete_family(3, 3)
        aux = build_b_pi(fam, sample_bundle(fam, 2))
        with pytest.raises(ValueError, match="not a factor"):
            lift_factor(aux, [(0, 3, 6)])

    def test_inconsistent_aggregate_is_caught(self):
        fam = GraphFamily(2, 1, (PartiteGraph(2, 1),))
        fake = AuxiliaryGraph(
            PartiteGraph.complete(2, 1), fam, PermutationBundle(((0,), (0,)))
        )
        with pytest.raises(RuntimeError, match="missing from member"):
            lift_factor(fake, [(0, 1)])


class TestVerifyTransversal:
    def _valid(self):
        fam = complete_family(3, 2)
        aux = build_b_pi(fam, PermutationBundle(((0, 1),) * 3))
        # an explicit factor, so that (0, 3) below is a pair outside it
        tf = lift_factor(aux, Factor(aux.graph, ((0, 2, 4), (1, 3, 5))))
        assert verify_transversal(fam, tf) == (True, "")
        return fam, tf

    def test_rejections(self):
        fam, tf = self._valid()
        cases = []
        cases.append((TransversalFactor(((0, 2),), {}), "expected 3"))
        cases.append((TransversalFactor(((0, 2, 99), (1, 3, 5)), {}), "out of range"))
        cases.append((TransversalFactor(((0, 1, 4), (2, 3, 5)), {}), "one vertex per part"))
        cases.append(
            (TransversalFactor(((0, 2, 4), (0, 3, 5)), {}), "covered twice")
        )
        cases.append((TransversalFactor(((0, 2, 4),), {}), "not covered"))
        extra = dict(tf.assignment)
        extra[(0, 3)] = 0
        cases.append((TransversalFactor(tf.cliques, extra), "non-factor pair"))
        short = dict(tf.assignment)
        short.pop(sorted(short)[0])
        cases.append((TransversalFactor(tf.cliques, short), "no assigned member"))
        dup = dict(tf.assignment)
        ks = sorted(dup)
        dup[ks[0]] = dup[ks[1]]
        cases.append((TransversalFactor(tf.cliques, dup), "used twice"))
        for bad, needle in cases:
            ok, why = verify_transversal(fam, bad)
            assert not ok and needle in why, (needle, why)

    def test_absent_edge_detected(self):
        present = GraphFamily(2, 1, (PartiteGraph.complete(2, 1),))
        tf = TransversalFactor(((0, 1),), {(0, 1): 0})
        assert verify_transversal(present, tf) == (True, "")
        absent = GraphFamily(2, 1, (PartiteGraph(2, 1),))
        ok, why = verify_transversal(absent, tf)
        assert not ok and "absent from its assigned member" in why


class TestBpiTrial:
    def test_complete_family_always_passes(self):
        fam = complete_family(3, 2)
        rep = bpi_min_degree_trial(fam, 0.2, 10, 0)
        assert rep.frequency == 1.0
        assert rep.passes == rep.trials == 10
        assert rep.min_observed == 2
        assert math.isclose(rep.threshold, (1 - 1 / 3 + 0.1) * 2)

    def test_member_floor_enforced(self):
        good = PartiteGraph.complete(2, 2)
        fam = GraphFamily(2, 2, (good, PartiteGraph(2, 2)))
        with pytest.raises(ValueError, match="member 1"):
            bpi_min_degree_trial(fam, 0.5, 5, 0)

    def test_validation(self):
        fam = complete_family(2, 2)
        with pytest.raises(ValueError):
            bpi_min_degree_trial(fam, 0.5, 0, 0)
        with pytest.raises(ValueError):
            bpi_min_degree_trial(fam, 0.0, 5, 0)


class TestOracle:
    def test_complete_family(self):
        fam = complete_family(3, 2)
        tf = transversal_oracle(fam)
        assert tf is not None
        assert verify_transversal(fam, tf) == (True, "")

    def test_edgeless_family(self):
        fam = GraphFamily(3, 1, (PartiteGraph(3, 1),) * 3)
        assert transversal_oracle(fam) is None

    def test_one_dead_member_blocks_n1(self):
        # with n=1 every member must contribute an edge; an empty member
        # makes the bijection impossible even though the union is complete
        full = PartiteGraph.complete(3, 1)
        fam = GraphFamily(3, 1, (PartiteGraph(3, 1), full, full))
        assert transversal_oracle(fam) is None

    def test_budget_guards(self):
        with pytest.raises(BudgetExceededError):
            transversal_oracle(complete_family(3, 5))
        with pytest.raises(BudgetExceededError):
            transversal_oracle(complete_family(4, 1))

    def test_agrees_with_exhaustive_bundles(self):
        for seed in range(10):
            members = tuple(
                sparsify(PartiteGraph.complete(3, 2), 0.6, 1000 + 10 * seed + t)
                for t in range(6)
            )
            fam = GraphFamily(3, 2, members)
            oracle_tf = transversal_oracle(fam)
            if oracle_tf is not None:
                assert verify_transversal(fam, oracle_tf) == (True, "")
            found = False
            for bundle in all_bundles(3, 2):
                factor = find_factor(build_b_pi(fam, bundle).graph)
                if factor is None:
                    continue
                tf = lift_factor(build_b_pi(fam, bundle), factor)
                assert verify_transversal(fam, tf) == (True, "")
                found = True
            if found:
                assert oracle_tf is not None


class TestFamilyFiles:
    def test_round_trip(self, tmp_path):
        members = tuple(
            sparsify(PartiteGraph.complete(3, 2), 0.7, t) for t in range(6)
        )
        fam = GraphFamily(3, 2, members)
        manifest = write_family(fam, tmp_path / "fam")
        assert manifest.name == "manifest.json"
        assert read_family(manifest) == fam

    def test_malformed(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text("{bad json")
        with pytest.raises(FileFormatError, match="invalid JSON"):
            read_family(path)
        path.write_text('{"format": "other"}')
        with pytest.raises(FileFormatError, match="manifest"):
            read_family(path)
        fam = complete_family(2, 1)
        manifest = write_family(fam, tmp_path / "fam")
        (tmp_path / "fam" / "graphs" / "member0000.txt").unlink()
        with pytest.raises(FileFormatError):
            read_family(manifest)
        with pytest.raises(FileFormatError):
            read_family(tmp_path / "nowhere" / "manifest.json")

    def test_manifest_must_be_an_object(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text("[]")
        with pytest.raises(FileFormatError, match="expected a JSON object"):
            read_family(path)

    def test_plain_family_not_serializable(self, tmp_path):
        # plain adjacency masks never form a GraphFamily, so there is nothing to write
        plain = (PartiteGraph.complete(2, 2).adj,) * 2
        with pytest.raises(ValueError, match="expected a PartiteGraph"):
            write_family(GraphFamily(2, 2, plain), tmp_path)
        assert not (tmp_path / "manifest.json").exists()


class TestCertificates:
    def test_round_trip(self, tmp_path):
        fam = complete_family(3, 2)
        tf = transversal_oracle(fam)
        path = tmp_path / "cert.txt"
        write_transversal_certificate(tf, path)
        back = read_transversal_certificate(path)
        assert back.cliques == tf.cliques
        assert back.assignment == tf.assignment
        assert verify_transversal(fam, back) == (True, "")

    def test_comments_and_blanks(self, tmp_path):
        path = tmp_path / "cert.txt"
        path.write_text("# note\n\nclique 0 1\nedge 0 1 0\n")
        tf = read_transversal_certificate(path)
        assert tf.cliques == ((0, 1),)
        assert tf.assignment == {(0, 1): 0}

    def test_malformed(self, tmp_path):
        path = tmp_path / "cert.txt"
        path.write_text("edge 0 1\n")
        with pytest.raises(FileFormatError, match="line 1"):
            read_transversal_certificate(path)
        path.write_text("clique 0 1\nwat 1 2\n")
        with pytest.raises(FileFormatError, match="line 2"):
            read_transversal_certificate(path)
        path.write_text("clique a b\n")
        with pytest.raises(FileFormatError):
            read_transversal_certificate(path)
        with pytest.raises(FileFormatError):
            read_transversal_certificate(tmp_path / "missing.txt")
