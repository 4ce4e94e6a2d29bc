"""Closed-form tail bounds for clique-survival counts under edge sparsification.

All bounds are plain formula evaluations with domain validation; the only
computation of substance is the correlation sum over vertex-sharing clique
pairs feeding the lower-tail bound.
"""

from __future__ import annotations

import math
from itertools import combinations

from .cliques import CliqueFamily
from .errors import BudgetExceededError

PAIR_CHECK_BUDGET = 2_000_000  # vertex-sharing clique pairs janson_lambda_delta may visit


def chernoff_bound(lambda_exp: float, a: float, tail: str) -> float:
    """exp(-a^2 * lambda / 3) above the mean, exp(-a^2 * lambda / 2) below."""
    if lambda_exp < 0:
        raise ValueError("lambda_exp must be nonnegative")
    if tail == "upper":
        if not 0 < a < 1.5:
            raise ValueError("upper tail needs 0 < a < 3/2")
        return math.exp(-a * a * lambda_exp / 3.0)
    if tail == "lower":
        if not 0 < a < 1:
            raise ValueError("lower tail needs 0 < a < 1")
        return math.exp(-a * a * lambda_exp / 2.0)
    raise ValueError("tail must be 'upper' or 'lower'")


def janson_lambda_delta(family: CliqueFamily, p: float) -> tuple[float, float]:
    """(lambda, delta_bar) for the surviving-clique count at edge probability p.

    lambda = |F| * p^C(r,2). delta_bar sums p^{|E(F) ∪ E(F')|} over ordered
    clique pairs sharing at least one vertex, diagonal included, so
    delta_bar >= lambda always. Pairs are found through per-vertex incidence
    lists; more than PAIR_CHECK_BUDGET of them raise BudgetExceededError.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    cliques = family.cliques
    edges_per = math.comb(family.host.r, 2)
    lam = len(cliques) * p**edges_per
    by_vertex: dict[int, list[int]] = {}
    esets = []
    for idx, K in enumerate(cliques):
        esets.append(frozenset(combinations(K, 2)))
        for v in K:
            by_vertex.setdefault(v, []).append(idx)
    delta = 0.0
    checks = 0
    for a_idx, K in enumerate(cliques):
        seen = set()
        ea = esets[a_idx]
        for v in K:
            for b_idx in by_vertex[v]:
                if b_idx in seen:
                    continue
                seen.add(b_idx)
                checks += 1
                if checks > PAIR_CHECK_BUDGET:
                    raise BudgetExceededError(
                        f"more than {PAIR_CHECK_BUDGET} vertex-sharing clique pairs"
                    )
                union = edges_per if b_idx == a_idx else len(ea | esets[b_idx])
                delta += p**union
    return lam, delta


def janson_lower_bound(lambda_exp: float, delta_bar: float, a: float) -> float:
    """exp(-a^2 * lambda^2 / (2 * delta_bar)) for the event X <= (1-a) * lambda."""
    if lambda_exp < 0:
        raise ValueError("lambda_exp must be nonnegative")
    if not 0 < a < 1:
        raise ValueError("needs 0 < a < 1")
    if delta_bar <= 0:
        raise ValueError("delta_bar must be positive")
    return math.exp(-a * a * lambda_exp * lambda_exp / (2.0 * delta_bar))
