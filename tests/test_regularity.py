import dataclasses
import json
import math
import random

import pytest

from krfactor import (
    FileFormatError,
    PartiteGraph,
    PartitionedInstance,
    RegularityParams,
    build_reduced_graph,
    check_regular_pair,
    gen_super_regular_instance,
    read_instance,
    sparsify,
    write_instance,
)
from krfactor.regularity import residual_instance
from oracles import (
    brute_regular_pair,
    pair_density,
    ref_planted_masks,
)


def _block_split(side):
    """side+side pair in parts of size 2*side: complete between matching halves, else empty."""
    half = side // 2
    edges = [(x, 2 * side + y) for x in range(half) for y in range(half)]
    edges += [(x, 2 * side + y) for x in range(half, side) for y in range(half, side)]
    return PartiteGraph(2, 2 * side, edges), range(side), range(2 * side, 3 * side)


def _hand_instance():
    """r=2, k=2, cluster size 2: one complete, one empty, one split cluster pair."""
    edges = [(0, 4), (0, 5), (1, 4), (1, 5)]  # (0,0) x (1,0) complete
    edges += [(2, 4), (3, 5)]  # (0,1) x (1,0) half split
    edges += [(2, 6), (2, 7), (3, 6), (3, 7)]  # (0,1) x (1,1) complete
    host = PartiteGraph(2, 4, edges)
    return PartitionedInstance(
        host=host,
        clusters=(((0, 1), (2, 3)), ((4, 5), (6, 7))),
        params=RegularityParams(epsilon=0.2, d=0.5, gamma=0.5),
    )


class TestRegularityParams:
    def test_validation(self):
        RegularityParams(0.1, 0.5, 0.2)
        for bad in (
            dict(epsilon=0.0, d=0.5, gamma=0.2),
            dict(epsilon=0.5, d=0.4, gamma=0.2),  # epsilon >= d
            dict(epsilon=0.1, d=1.2, gamma=0.2),
            dict(epsilon=0.1, d=0.5, gamma=0.0),
        ):
            with pytest.raises(ValueError):
                RegularityParams(**bad)


class TestPartitionedInstance:
    def test_masks_and_accessors(self):
        inst = _hand_instance()
        assert inst.clusters[0][1] == (2, 3)
        assert inst.cluster_mask(1, 0) == 0b00110000
        assert inst.exceptional_mask() == 0
        assert inst.reserved_mask() == 0

    def test_derived_k_and_exceptional(self):
        inst = _hand_instance()
        assert inst.k == 2
        assert inst.exceptional == ()
        host = PartiteGraph.complete(2, 3)
        inst = PartitionedInstance(
            host, (((2, 0), ()), ((4,), (3,))), RegularityParams(0.1, 0.5, 0.2)
        )
        assert inst.k == 2
        assert inst.clusters[0] == ((0, 2), ())
        assert inst.exceptional == (1, 5)
        assert inst.exceptional_mask() == 0b100010
        names = [f.name for f in dataclasses.fields(PartitionedInstance)]
        assert names == ["host", "clusters", "params", "reserved"]
        assert [f.name for f in dataclasses.fields(RegularityParams)] == ["epsilon", "d", "gamma"]

    def test_validation(self):
        host = PartiteGraph.complete(2, 2)
        params = RegularityParams(0.1, 0.5, 0.2)
        with pytest.raises(ValueError, match="outside part"):
            PartitionedInstance(host, (((0, 2),), ((3,),)), params)
        with pytest.raises(ValueError, match="two clusters"):
            PartitionedInstance(host, (((0, 0),), ((2, 3),)), params)
        with pytest.raises(ValueError, match="not in any cluster"):
            PartitionedInstance(host, (((0,),), ((2,),)), params, reserved=(1,))
        with pytest.raises(ValueError, match="part 1: expected 2 clusters, got 1"):
            PartitionedInstance(host, (((0,), (1,)), ((2, 3),)), params)
        with pytest.raises(ValueError, match="at least one cluster"):
            PartitionedInstance(host, ((), ()), params)
        with pytest.raises(ValueError, match="expected 2 parts"):
            PartitionedInstance(host, (((0,),),), params)


class TestGenerator:
    def test_d_one_is_complete_between_clusters(self):
        inst = gen_super_regular_instance(3, 2, 4, 1.0, 0, 0)
        assert inst.exceptional == ()
        assert inst.params.epsilon == 0.2
        assert inst.params.d == 0.8
        assert inst.host == PartiteGraph.complete(3, 8)
        assert all(v == 1.0 for v in build_reduced_graph(inst).densities.values())

    def test_planted_densities_concentrate(self):
        inst = gen_super_regular_instance(3, 2, 30, 0.6, 0, 0)
        sigma = math.sqrt(0.6 * 0.4) / 30
        densities = build_reduced_graph(inst).densities
        assert len(densities) == 12
        for dens in densities.values():
            assert abs(dens - 0.6) <= 4 * sigma

    def test_exceptional_attachment(self):
        inst = gen_super_regular_instance(3, 1, 8, 0.7, 3, 2)
        g = inst.host
        assert len(inst.exceptional) == 3
        for v in inst.exceptional:
            for j in range(3):
                if j == g.part_of(v):
                    continue
                assert g.degree(v, part=j) >= 6  # ~0.9 * 9 expected

    @pytest.mark.parametrize(
        "r, k, size, d, b_size, b_attach",
        [(3, 2, 45, 0.6, 3, 0.9), (3, 1, 20, 0.8, 0, 0.9), (2, 3, 7, 0.5, 4, 0.3), (4, 2, 5, 0.7, 8, 1.0)],
    )
    def test_masks_match_reference(self, r, k, size, d, b_size, b_attach):
        n = k * size + b_size // r
        for seed in range(3):
            inst = gen_super_regular_instance(r, k, size, d, b_size, seed, b_attach=b_attach)
            assert inst.host.adj == ref_planted_masks(r, n, k, size, d, b_attach, seed)

    def test_deterministic(self):
        a = gen_super_regular_instance(3, 2, 6, 0.5, 3, 7)
        b = gen_super_regular_instance(3, 2, 6, 0.5, 3, 7)
        assert a == b

    def test_validation(self):
        with pytest.raises(ValueError):
            gen_super_regular_instance(3, 2, 6, 0.5, 4, 0)  # b_size % r != 0
        with pytest.raises(ValueError):
            gen_super_regular_instance(3, 2, 6, 0.0, 3, 0)
        with pytest.raises(ValueError):
            gen_super_regular_instance(1, 2, 6, 0.5, 0, 0)
        with pytest.raises(ValueError):
            gen_super_regular_instance(3, 2, 6, 0.5, 3, 0, b_attach=0.0)


class TestCheckRegularPair:
    def test_complete_and_empty_pairs_are_regular(self):
        g = PartiteGraph.complete(2, 6)
        rep = check_regular_pair(g, range(6), range(6, 12), 0.3)
        assert rep.regular and rep.density == 1.0
        rep = check_regular_pair(PartiteGraph(2, 6), range(6), range(6, 12), 0.3)
        assert rep.regular and rep.density == 0.0

    def test_planted_block_split_is_irregular(self):
        edges = [(x, y) for x in range(4) for y in range(8, 12)]
        edges += [(x, y) for x in range(4, 8) for y in range(12, 16)]
        g = PartiteGraph(2, 8, edges)
        rep = check_regular_pair(g, range(8), range(8, 16), 0.4)
        assert not rep.regular
        assert rep.density == 0.5
        A, B, obs = rep.witness
        assert set(A) <= set(range(8)) and set(B) <= set(range(8, 16))
        assert math.isclose(obs, pair_density(g, A, B), abs_tol=1e-12)
        assert abs(obs - rep.density) >= 0.4

    def test_exhaustive_matches_brute_force(self):
        for seed in range(6):
            g = sparsify(PartiteGraph.complete(2, 7), 0.5 + 0.05 * seed, seed)
            for eps in (0.25, 0.4):
                rep = check_regular_pair(g, range(7), range(7, 14), eps)
                assert rep.regular == brute_regular_pair(g, range(7), range(7, 14), eps)

    def test_side_limit(self):
        g, X, Y = _block_split(12)
        rep = check_regular_pair(g, X, Y, 0.3)
        assert not rep.regular and rep.density == 0.5
        A, B, obs = rep.witness
        assert obs == pair_density(g, A, B)
        assert abs(obs - rep.density) >= 0.3
        g, X, Y = _block_split(13)
        with pytest.raises(ValueError, match="exhaustive check limited to side size 12"):
            check_regular_pair(g, X, Y, 0.3)

    def test_validation(self):
        g = PartiteGraph.complete(2, 6)
        with pytest.raises(ValueError, match="same part"):
            check_regular_pair(g, [0, 1], [2, 3], 0.3)
        with pytest.raises(ValueError, match="overlap"):
            check_regular_pair(g, [0, 1], [1, 6], 0.3)
        with pytest.raises(ValueError, match="nonempty"):
            check_regular_pair(g, [], [6, 7], 0.3)
        with pytest.raises(ValueError, match="spans"):
            check_regular_pair(PartiteGraph.complete(3, 6), [0, 6], [12], 0.3)
        with pytest.raises(ValueError):
            check_regular_pair(g, [0], [6], 1.5)


class TestReducedGraph:
    def test_hand_instance(self):
        inst = _hand_instance()
        res = build_reduced_graph(inst)
        assert res.densities == {
            (0, 0, 1, 0): 1.0,
            (0, 0, 1, 1): 0.0,
            (0, 1, 1, 0): 0.5,
            (0, 1, 1, 1): 1.0,
        }
        # the half split has density 0.5 = d, so the edge rule's >= keeps it
        edges = set(res.graph.edges())
        assert edges == {(0, 2), (1, 2), (1, 3)}

    def test_complete_instance_gives_complete_reduced(self):
        inst = gen_super_regular_instance(3, 2, 4, 1.0, 0, 1)
        res = build_reduced_graph(inst)
        assert res.graph == PartiteGraph.complete(3, 2)

    def test_planted_instance_keeps_cluster_pairs(self):
        inst = gen_super_regular_instance(3, 2, 30, 0.85, 0, 3, epsilon=0.25)
        res = build_reduced_graph(inst)
        # every planted density lies well within 0.25 of 0.85
        assert res.graph.edge_count() == 12

    def test_matches_pair_density(self):
        rnd = random.Random(11)
        edges = non_edges = 0
        for seed in range(60):
            r, k, size = rnd.randint(2, 4), rnd.randint(1, 3), rnd.randint(1, 15)
            inst = gen_super_regular_instance(r, k, size, rnd.uniform(0.3, 0.95), 0, seed)
            if seed % 2:
                inst = dataclasses.replace(
                    inst, host=sparsify(inst.host, rnd.uniform(0.5, 1.0), seed)
                )
            if seed % 3 == 0:  # uneven and empty clusters
                drop = sum(1 << v for v in range(inst.host.vertex_count) if rnd.random() < 0.3)
                inst = residual_instance(inst, drop)
            res = build_reduced_graph(inst)
            expected = {}
            for i in range(r):
                for j in range(i + 1, r):
                    for ci, X in enumerate(inst.clusters[i]):
                        for cj, Y in enumerate(inst.clusters[j]):
                            u, v = i * k + ci, j * k + cj
                            if not X or not Y:
                                assert not res.graph.has_edge(u, v)
                                continue
                            dens = expected[(i, ci, j, cj)] = pair_density(inst.host, X, Y)
                            assert res.graph.has_edge(u, v) == (dens >= inst.params.d), seed
                            edges += dens >= inst.params.d
                            non_edges += dens < inst.params.d
            assert res.densities == expected, seed
        assert edges and non_edges


class TestInstanceFiles:
    def test_round_trip(self, tmp_path):
        inst = gen_super_regular_instance(3, 2, 5, 0.7, 3, 4)
        path = tmp_path / "inst.json"
        write_instance(inst, path)
        back = read_instance(path)
        assert back == inst
        assert build_reduced_graph(back).densities == build_reduced_graph(inst).densities
        # files written with the old `densities` key still load; the key is ignored
        payload = json.loads(path.read_text())
        payload["densities"] = [[0, 0, 1, 0, 0.5]]
        path.write_text(json.dumps(payload))
        assert read_instance(path) == inst

    def test_round_trip_with_reserved(self, tmp_path):
        inst = gen_super_regular_instance(2, 2, 4, 0.9, 0, 0)
        inst = dataclasses.replace(inst, reserved=inst.clusters[0][0][:2])
        path = tmp_path / "inst.json"
        write_instance(inst, path)
        assert read_instance(path).reserved == inst.reserved

    def test_malformed(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(FileFormatError, match="invalid JSON"):
            read_instance(path)
        path.write_text("[]")
        with pytest.raises(FileFormatError, match="JSON object"):
            read_instance(path)
        path.write_text(json.dumps({"format": "something-else"}))
        with pytest.raises(FileFormatError, match="format"):
            read_instance(path)
        inst = gen_super_regular_instance(2, 1, 3, 0.9, 0, 0)
        write_instance(inst, path)
        payload = json.loads(path.read_text())
        del payload["params"]
        path.write_text(json.dumps(payload))
        with pytest.raises(FileFormatError, match="payload"):
            read_instance(path)
        with pytest.raises(FileFormatError):
            read_instance(tmp_path / "missing.json")

    def test_stored_k_and_exceptional_must_match_clusters(self, tmp_path):
        inst = gen_super_regular_instance(3, 2, 3, 0.9, 3, 1)
        path = tmp_path / "inst.json"
        write_instance(inst, path)
        good = json.loads(path.read_text())
        assert good["params"]["k"] == 2
        assert good["exceptional"] == [6, 13, 20]
        # the stored exceptional list is compared sorted
        good["exceptional"] = [20, 6, 13]
        path.write_text(json.dumps(good))
        assert read_instance(path) == inst
        for field, bad, message in (
            ("k", 1, "params.k is 1 but each part has 2 clusters"),
            ("k", 3, "params.k is 3 but each part has 2 clusters"),
            ("exceptional", [6, 13], "complement"),
            ("exceptional", [6, 13, 20, 0], "complement"),
            ("exceptional", [6, 13, 19], "complement"),
        ):
            payload = json.loads(json.dumps(good))
            if field == "k":
                payload["params"]["k"] = bad
            else:
                payload["exceptional"] = bad
            path.write_text(json.dumps(payload))
            with pytest.raises(FileFormatError, match=message):
                read_instance(path)
        payload = json.loads(json.dumps(good))
        del payload["params"]["k"]
        path.write_text(json.dumps(payload))
        with pytest.raises(FileFormatError, match="payload"):
            read_instance(path)


class TestResidualInstance:
    def test_removal_moves_vertices_to_exceptional(self):
        inst = gen_super_regular_instance(3, 2, 4, 1.0, 0, 5)
        victims = inst.clusters[0][0][:2]
        mask = sum(1 << v for v in victims)
        res = residual_instance(inst, mask)
        assert res.clusters[0][0] == inst.clusters[0][0][2:]
        assert set(res.exceptional) == set(victims)
        assert res.host is inst.host

    def test_reserved_is_filtered(self):
        inst = gen_super_regular_instance(2, 1, 4, 1.0, 0, 6)
        inst = dataclasses.replace(inst, reserved=inst.clusters[0][0])
        mask = 1 << inst.reserved[0]
        res = residual_instance(inst, mask)
        assert inst.reserved[0] not in res.reserved
