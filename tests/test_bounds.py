import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from krfactor import (
    CliqueFamily,
    PartiteGraph,
    chernoff_bound,
    enumerate_kr,
    janson_lambda_delta,
    janson_lower_bound,
    sparsify,
)
from oracles import brute_janson


class TestChernoff:
    def test_reference_values(self):
        assert chernoff_bound(3.0, 1.0, "upper") == math.exp(-1.0)
        assert chernoff_bound(2.0, 0.5, "lower") == math.exp(-0.25)
        assert chernoff_bound(0.0, 0.5, "upper") == 1.0

    def test_domains(self):
        with pytest.raises(ValueError):
            chernoff_bound(1.0, 1.5, "upper")
        with pytest.raises(ValueError):
            chernoff_bound(1.0, 1.0, "lower")
        with pytest.raises(ValueError):
            chernoff_bound(1.0, 0.0, "upper")
        with pytest.raises(ValueError):
            chernoff_bound(-1.0, 0.5, "upper")
        with pytest.raises(ValueError):
            chernoff_bound(1.0, 0.5, "sideways")

    @settings(max_examples=50, deadline=None)
    @given(st.floats(0.01, 100.0), st.floats(0.01, 0.99))
    def test_bounds_lie_in_unit_interval(self, lam, a):
        for tail in ("upper", "lower"):
            b = chernoff_bound(lam, a, tail)
            assert 0.0 < b <= 1.0


class TestJansonMoments:
    def test_complete_k222_at_half(self):
        fam = enumerate_kr(PartiteGraph.complete(3, 2))
        lam, delta = janson_lambda_delta(fam, 0.5)
        assert lam == 1.0
        assert delta == 2.125

    def test_counting_structure_at_p_one(self):
        fam = enumerate_kr(PartiteGraph.complete(3, 2))
        lam, delta = janson_lambda_delta(fam, 1.0)
        assert lam == 8.0
        # ordered vertex-sharing pairs: 8 diagonal + 24 edge-sharing + 24 vertex-only
        assert delta == 56.0

    def test_p_zero(self):
        fam = enumerate_kr(PartiteGraph.complete(3, 2))
        assert janson_lambda_delta(fam, 0.0) == (0.0, 0.0)

    def test_single_and_disjoint_families(self):
        g = PartiteGraph.complete(3, 3)
        one = CliqueFamily(g, ((0, 3, 6),))
        lam, delta = janson_lambda_delta(one, 0.7)
        assert math.isclose(lam, 0.7**3, rel_tol=1e-12)
        assert math.isclose(delta, lam, rel_tol=1e-12)
        # vertex-disjoint cliques contribute only their diagonal terms
        two = CliqueFamily(g, ((0, 3, 6), (1, 4, 7)))
        lam2, delta2 = janson_lambda_delta(two, 0.7)
        assert math.isclose(delta2, lam2, rel_tol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(2, 4),
        st.integers(1, 4),
        st.integers(0, 10_000),
        st.floats(0.3, 1.0),
        st.floats(0.0, 1.0),
        st.floats(0.01, 0.99),
    )
    def test_matches_brute_force(self, r, n, seed, keep, share, p):
        # the overlap count must hold for any family, not only all cliques
        g = sparsify(PartiteGraph.complete(r, n), keep, seed)
        rng = random.Random(seed)
        fam = CliqueFamily(g, [K for K in enumerate_kr(g) if rng.random() < share])
        for q in (0.0, 0.5, 1.0):  # every term and partial sum is exact
            assert janson_lambda_delta(fam, q) == brute_janson(list(fam), q)
        lam, delta = janson_lambda_delta(fam, p)
        blam, bdelta = brute_janson(list(fam), p)
        assert math.isclose(lam, blam, rel_tol=1e-12, abs_tol=1e-12)
        assert math.isclose(delta, bdelta, rel_tol=1e-9, abs_tol=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000), st.floats(0.0, 1.0))
    def test_delta_dominates_lambda(self, seed, p):
        g = sparsify(PartiteGraph.complete(3, 3), 0.8, seed)
        lam, delta = janson_lambda_delta(enumerate_kr(g), p)
        assert delta >= lam - 1e-12

    def test_rejects_bad_p(self):
        fam = enumerate_kr(PartiteGraph.complete(3, 2))
        with pytest.raises(ValueError):
            janson_lambda_delta(fam, 1.5)


class TestJansonLowerBound:
    def test_reference_value(self):
        val = janson_lower_bound(lambda_exp=1.0, delta_bar=2.125, a=0.5)
        assert math.isclose(val, math.exp(-1.0 / 17.0), rel_tol=1e-12)

    def test_domains(self):
        with pytest.raises(TypeError):
            janson_lower_bound(lambda_exp=1.0, delta_bar=2.0)
        with pytest.raises(ValueError):
            janson_lower_bound(lambda_exp=1.0, delta_bar=2.0, a=1.0)
        with pytest.raises(ValueError):
            janson_lower_bound(lambda_exp=1.0, delta_bar=0.0, a=0.5)
        with pytest.raises(ValueError):
            janson_lower_bound(lambda_exp=-1.0, delta_bar=2.0, a=0.5)

    def test_tightens_with_smaller_correlation(self):
        loose = janson_lower_bound(lambda_exp=4.0, delta_bar=16.0, a=0.5)
        tight = janson_lower_bound(lambda_exp=4.0, delta_bar=4.0, a=0.5)
        assert tight < loose
