import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import krfactor.graphs
from krfactor import (
    FileFormatError,
    PartiteGraph,
    RandomSeed,
    ThresholdParams,
    enumerate_kr,
    gen_min_degree_instance,
    gen_no_factor_witness,
    min_star_degree,
    read_factor_certificate,
    read_graph_file,
    read_transversal_certificate,
    sparsify,
    split_rounds,
    threshold_p,
    write_graph_file,
)
from oracles import brute_min_star, ref_min_degree_instance, ref_sparsify


class TestPartiteGraph:
    def test_construction_and_accessors(self):
        g = PartiteGraph(3, 2, [(0, 2), (2, 4), (0, 5)])
        assert g.vertex_count == 6
        assert g.part_of(3) == 1
        assert list(g.part_range(2)) == [4, 5]
        assert g.has_edge(2, 0) and g.has_edge(0, 2)
        assert not g.has_edge(1, 3)
        assert g.degree(0) == 2
        assert g.degree(0, part=1) == 1
        assert g.edge_count() == 3
        assert list(g.edges()) == [(0, 2), (0, 5), (2, 4)]

    def test_rejects_bad_edges(self):
        with pytest.raises(ValueError):
            PartiteGraph(2, 2, [(0, 1)])  # same part
        with pytest.raises(ValueError):
            PartiteGraph(2, 2, [(0, 4)])  # out of range
        with pytest.raises(ValueError):
            PartiteGraph(1, 3)
        with pytest.raises(ValueError):
            PartiteGraph(2, 0)

    def test_complete(self):
        g = PartiteGraph.complete(3, 2)
        assert g.edge_count() == 12
        assert min_star_degree(g) == 2
        assert g == PartiteGraph(3, 2, list(g.edges()))

    def test_part_masks(self):
        g = PartiteGraph(2, 3)
        assert g.part_mask(0) == 0b000111
        assert g.part_mask(1) == 0b111000


class TestMinStarDegree:
    def test_examples(self):
        assert min_star_degree(PartiteGraph.complete(4, 3)) == 3
        assert min_star_degree(PartiteGraph(2, 2)) == 0
        g = PartiteGraph(3, 2, [(0, 2), (0, 3), (0, 4), (0, 5), (2, 4)])
        assert min_star_degree(g) == 0

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000), st.floats(0.2, 1.0))
    def test_matches_brute_force(self, seed, p):
        g = sparsify(PartiteGraph.complete(3, 3), p, seed)
        assert min_star_degree(g) == brute_min_star(g)


class TestSparsify:
    def test_p_one_is_identity_and_p_zero_empty(self):
        g = PartiteGraph.complete(3, 3)
        assert sparsify(g, 1.0, 0) == g
        assert sparsify(g, 0.0, 0).edge_count() == 0

    def test_deterministic_per_seed(self):
        g = PartiteGraph.complete(3, 4)
        assert sparsify(g, 0.5, 42) == sparsify(g, 0.5, RandomSeed(42))
        assert sparsify(g, 0.5, 42) != sparsify(g, 0.5, 43)

    def test_rejects_bad_p(self):
        g = PartiteGraph.complete(2, 2)
        with pytest.raises(ValueError):
            sparsify(g, -0.1, 0)
        with pytest.raises(ValueError):
            sparsify(g, 1.1, 0)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000), st.floats(0.0, 1.0))
    def test_edges_are_a_subset(self, seed, p):
        g = PartiteGraph.complete(3, 3)
        sub = sparsify(g, p, seed)
        assert set(sub.edges()) <= set(g.edges())

    def test_matches_reference(self):
        rng = random.Random(33)
        for r in range(2, 6):
            for n in (1, 2, 5, 9):
                complete = PartiteGraph.complete(r, n)
                hosts = [complete, sparsify(complete, rng.uniform(0.3, 0.9), rng.randrange(99))]
                for g in hosts:
                    for p in (0.1, 0.5, 0.9):
                        seed = RandomSeed(rng.randrange(10**6))
                        assert sparsify(g, p, seed).adj == ref_sparsify(g, p, seed)

    def test_retention_rate(self):
        # mean kept-edge count of K_{3,3,3} at p = 1/2 is 13.5
        g = PartiteGraph.complete(3, 3)
        trials = 10_000
        total = sum(sparsify(g, 0.5, RandomSeed(0).substream(t)).edge_count() for t in range(trials))
        sigma = math.sqrt(27 * 0.25 / trials)
        assert abs(total / trials - 13.5) <= 3 * sigma


class TestSplitRounds:
    def test_three_round_example(self):
        assert abs(split_rounds(0.271, 3) - 0.1) < 1e-12

    def test_single_round_and_endpoints(self):
        assert split_rounds(0.37, 1) == 0.37
        assert split_rounds(0.0, 4) == 0.0
        assert split_rounds(1.0, 4) == 1.0

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            split_rounds(1.2, 3)
        with pytest.raises(ValueError):
            split_rounds(0.5, 0)
        with pytest.raises(ValueError):
            split_rounds(0.5, 2.0)

    @settings(max_examples=80, deadline=None)
    @given(st.floats(0.0, 1.0), st.integers(1, 6))
    def test_round_trip(self, p, rounds):
        q = split_rounds(p, rounds)
        assert 0.0 <= q <= p + 1e-12
        assert abs(1.0 - (1.0 - q) ** rounds - p) < 1e-9


class TestThresholdP:
    def test_reference_value(self):
        res = threshold_p(ThresholdParams(3, 1000, 1.0))
        assert not res.clamped
        assert round(res.p, 5) == 0.01904
        assert math.isclose(
            res.p, 1000 ** (-2.0 / 3) * math.log(1000) ** (1.0 / 3), rel_tol=1e-12
        )

    def test_clamping_and_degenerate_c(self):
        assert threshold_p(ThresholdParams(3, 30, 30.0)) == (1.0, True)
        assert threshold_p(ThresholdParams(3, 30, 0.0)) == (0.0, False)

    def test_scaling_in_c(self):
        p1 = threshold_p(ThresholdParams(4, 500, 1.0)).p
        p2 = threshold_p(ThresholdParams(4, 500, 2.0)).p
        assert math.isclose(p2, 2 * p1, rel_tol=1e-12)

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            threshold_p(ThresholdParams(1, 10, 1.0))
        with pytest.raises(ValueError):
            threshold_p(ThresholdParams(3, 0, 1.0))
        with pytest.raises(ValueError):
            threshold_p(ThresholdParams(3, 10, -1.0))


class TestGenMinDegreeInstance:
    def test_degree_floor_holds(self):
        for n, gamma in ((6, 0.1), (9, 0.2), (12, 0.3)):
            g = gen_min_degree_instance(3, n, gamma, 0.8, 0)
            floor = math.ceil(round((1 - 1 / 3 + gamma) * n, 9))
            assert min_star_degree(g) >= floor

    def test_broken_floor_raises_internal_error(self, monkeypatch):
        # the closing degree check stays on under python -O
        monkeypatch.setattr(krfactor.graphs, "min_star_degree", lambda g: 0)
        with pytest.raises(RuntimeError, match="internal: .*degree floor"):
            gen_min_degree_instance(3, 8, 0.2, 0.7, 5)

    def test_deterministic(self):
        a = gen_min_degree_instance(3, 8, 0.2, 0.7, 5)
        b = gen_min_degree_instance(3, 8, 0.2, 0.7, 5)
        c = gen_min_degree_instance(3, 8, 0.2, 0.7, 6)
        assert a == b
        assert a != c

    def test_full_keep_is_complete(self):
        assert gen_min_degree_instance(3, 5, 0.2, 1.0, 0) == PartiteGraph.complete(3, 5)

    def test_gamma_one_over_r_forces_complete(self):
        # floor = n leaves nothing removable
        assert gen_min_degree_instance(4, 6, 0.25, 0.5, 3) == PartiteGraph.complete(4, 6)

    def test_removal_budget_respected(self):
        g = gen_min_degree_instance(3, 10, 0.05, 0.9, 1)
        per_pair = 100
        kept_min = round(0.9 * per_pair)
        for i in range(3):
            for j in range(i + 1, 3):
                kept = sum(
                    1 for u in g.part_range(i) for v in g.part_range(j) if g.has_edge(u, v)
                )
                assert kept >= kept_min

    def test_matches_reference_walk(self):
        rng = random.Random(20)
        cases = []
        for r in (2, 3, 4):
            for n in range(1, 31):
                for edge_keep in (1.0, 0.9, 0.5, rng.uniform(0.01, 0.2)):
                    cases.append((r, n, rng.uniform(0.01, 1 / r - 0.01), edge_keep))
            for n in (1, 7, 30):
                cases.append((r, n, 1 / r, 0.3))  # floor == n: nothing removable
        cases += [(3, 200, 0.2, 0.9), (3, 200, 0.1, 0.5), (2, 200, 0.3, 0.05)]
        assert len(cases) >= 300
        mismatched = [
            (case, seed)
            for seed, case in enumerate(cases)
            if gen_min_degree_instance(*case, seed).adj != ref_min_degree_instance(*case, seed)
        ]
        assert mismatched == []

    def test_rejects_infeasible_gamma(self):
        with pytest.raises(ValueError):
            gen_min_degree_instance(3, 9, 0.5, 0.9, 0)
        with pytest.raises(ValueError):
            gen_min_degree_instance(3, 9, 0.0, 0.9, 0)
        with pytest.raises(ValueError):
            gen_min_degree_instance(3, 9, 0.1, 0.0, 0)


class TestWitness:
    def test_detached_vertex_sits_in_no_clique(self):
        wit = gen_no_factor_witness(3, 4, 11)
        g = wit.graph
        assert g.degree(wit.vertex, part=wit.missing_part) == 0
        assert all(wit.vertex not in K for K in enumerate_kr(g))
        # everything else is still complete, except the reverse side of the cut
        others = [v for v in range(g.vertex_count) if v != wit.vertex]
        for v in others:
            for j in range(g.r):
                if j == g.part_of(v):
                    continue
                lost = g.part_of(v) == wit.missing_part and j == g.part_of(wit.vertex)
                assert g.degree(v, part=j) == g.n - (1 if lost else 0)

    def test_deterministic(self):
        assert gen_no_factor_witness(3, 3, 2) == gen_no_factor_witness(3, 3, 2)


class TestGraphFiles:
    def test_round_trip(self, tmp_path):
        g = gen_min_degree_instance(3, 5, 0.2, 0.8, 9)
        path = tmp_path / "g.txt"
        write_graph_file(g, path)
        assert read_graph_file(path) == g

    def test_comments_and_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("# a comment\n\n2 2\n0 2\n# mid comment\n1 3\n")
        g = read_graph_file(path)
        assert g.edge_count() == 2 and g.has_edge(0, 2) and g.has_edge(1, 3)

    def test_malformed_files(self, tmp_path):
        cases = {
            "empty.txt": "",
            "short.txt": "3\n",
            "wide.txt": "3 2\n0 2 4\n",
            "alpha.txt": "3 2\n0 x\n",
            "sampepart.txt": "2 2\n0 1\n",
        }
        for name, text in cases.items():
            path = tmp_path / name
            path.write_text(text)
            with pytest.raises(FileFormatError):
                read_graph_file(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileFormatError):
            read_graph_file(tmp_path / "nope.txt")


@pytest.mark.parametrize(
    "reader, lines",
    [
        (read_graph_file, ["3 2", "0 2", "1 3"]),
        (read_factor_certificate, ["0 2 4", "1 3 5"]),
        (read_transversal_certificate, ["clique 0 2 4", "edge 0 2 1", "edge 2 4 0"]),
    ],
)
def test_text_readers_share_one_line_format(tmp_path, reader, lines):
    plain, noisy = tmp_path / "plain.txt", tmp_path / "noisy.txt"
    plain.write_text("\n".join(lines) + "\n")
    noisy.write_text("# header\n\n" + "\n  # note\n   \n".join(lines) + "\n# end")
    assert reader(noisy) == reader(plain)
    # the bad token sits on line 5 of the file
    bad = tmp_path / "bad.txt"
    bad.write_text("# header\n\n" + "\n".join(lines[:2] + ["7 x 9"] + lines[2:]) + "\n")
    with pytest.raises(FileFormatError, match="bad.txt, line 5: "):
        reader(bad)
    with pytest.raises(FileFormatError, match="nope.txt: "):
        reader(tmp_path / "nope.txt")
