"""Closed-form tail bounds for clique-survival counts under edge sparsification.

All bounds are plain formula evaluations with domain validation; the only
computation of substance is the correlation sum feeding the lower-tail bound,
counted from clique overlaps rather than pair by pair.
"""

from __future__ import annotations

import math
from collections import Counter

from .cliques import CliqueFamily


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

    lambda = |F| * p^C(r,2). delta_bar sums p^{|E(K) ∪ E(K')|} over ordered
    clique pairs sharing at least one vertex, diagonal included, so delta_bar
    >= lambda. Cliques sharing s vertices share C(s,2) edges, so delta_bar =
    sum_s N_s * p^(2*C(r,2) - C(s,2)), N_s counting the pairs that share exactly
    s. With c(S) the cliques through vertex set S, T_j = sum_{|S|=j} c(S)^2 =
    sum_pairs C(|K ∩ K'|, j) and N_s = sum_{j>=s} (-1)^(j-s) C(j,s) T_j: exact
    integers from |F| * (2^r - 1) counter updates.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    r = family.host.r
    edges_per = math.comb(r, 2)
    lam = len(family) * p**edges_per
    slots = [[i for i in range(r) if mask >> i & 1] for mask in range(1, 1 << r)]
    through = Counter(tuple(K[i] for i in sub) for K in family for sub in slots)
    T = [0] * (r + 1)
    for S, c in through.items():
        T[len(S)] += c * c
    delta = math.fsum(
        sum((-1) ** (j - s) * math.comb(j, s) * T[j] for j in range(s, r + 1))
        * p ** (2 * edges_per - math.comb(s, 2))
        for s in range(1, r + 1)
    )
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
