"""The benchmark's four workloads.

A workload turns the benchmark seed into rounds of operations. Round j is
the same list of operations every time it is built, and each operation is
one call chain through krfactor's public functions, looked up on the package
namespace at call time so that the traced run's wrappers see it. Every
operation comes with a check that judges its output with `checks`, which
does not use the package.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from functools import partial
from typing import Callable

import krfactor as kr

import checks


@dataclass(frozen=True)
class Op:
    run: Callable[[], object]
    # output -> (problem, fingerprint); problem is '' when the output is right
    check: Callable[[object], tuple[str, object]]


class ThresholdSweep:
    """Threshold-sweep trials as the CLI runs them, at criterion 04's sizes.

    Round j holds trials 2j and 2j+1 at every point where p < 1 and trials
    3j to 3j+2 at the three points where p clamps to 1. Trials fall into
    three modes: greedy hits at p = 1 (~1 ms), the quick "no" answers at
    C <= 1.4 (~2 ms) and greedy misses at p = 1 (~180 ms). With one trial per
    point p50 sits between the first two modes and p90 at the lower edge of
    the slow one, so both jump from seed to seed; with these counts p50 lies
    inside the ~2 ms mode and p90 inside the slow mode.
    """

    name = "threshold_sweep"
    R, N, GAMMA, EDGE_KEEP = 3, 30, 0.2, 0.9
    C_GRID = (0.3, 0.65, 1.4, 3, 6.5, 14, 30)
    trace_rounds_per_s = 1.2

    def __init__(self, seed: int):
        self.seed = seed
        self.points = [
            (point, c, kr.threshold_p(kr.ThresholdParams(self.R, self.N, c)).p)
            for point, c in enumerate(self.C_GRID)
        ]
        self.trials: Counter = Counter()
        self.successes: Counter = Counter()
        self.no_answers: Counter = Counter()

    def ops(self, j: int):
        for point, c, p in self.points:
            per = 3 if p == 1.0 else 2
            for t in range(j * per, (j + 1) * per):
                yield Op(partial(self._trial, point, p, t), partial(self._check, c))

    def _trial(self, point: int, p: float, t: int):
        # the CLI's per-(point, trial) seed
        base = kr.RandomSeed(self.seed).substream(point).substream(t)
        g = kr.gen_min_degree_instance(self.R, self.N, self.GAMMA, self.EDGE_KEEP, base.substream(0))
        gp = kr.sparsify(g, p, base.substream(1))
        return gp, kr.find_factor(gp)

    def _check(self, c: float, out):
        gp, factor = out
        self.trials[c] += 1
        if factor is not None:
            self.successes[c] += 1
            return checks.factor_problem(gp.adj, gp.r, gp.n, factor.cliques), factor.cliques
        how = checks.no_factor_certificate(gp.adj, gp.r, gp.n)
        self.no_answers[how] += 1
        return ("" if how else "answered no, but the graph has a factor"), None

    def final_problems(self) -> list[str]:
        low, high = self.C_GRID[0], self.C_GRID[-1]
        problems = []
        if self.successes[low] > 0.2 * self.trials[low]:
            problems.append(f"success rate at C={low} above 0.2")
        if self.successes[high] < 0.9 * self.trials[high]:
            problems.append(f"success rate at C={high} below 0.9")
        return problems


def _uniform_lambda(r: int, k: int, base: int, rng: random.Random) -> list[int]:
    # criterion 05's recipe: one +1/-1 swap per part keeps part sums equal
    lam = []
    for _ in range(r):
        delta = [0] * k
        if k >= 2:
            i, j = rng.sample(range(k), 2)
            delta[i], delta[j] = 1, -1
        lam.extend(base + d for d in delta)
    return lam


class WeightBalance:
    """`balance_weights` on criterion 05's cases, with lambda lowered.

    A round is 175 complete reduced graphs (r in {2, 3, 4}, as in criterion
    05) and K(3,5) minus each of its 75 edges once, in shuffled order.
    Whether the greedy cover dead-ends on the blow-up depends strongly on
    which edge is dropped (three edges always dead-end at lambda 6), so
    dropping every edge once per round steadies the number of dead ends per
    round. Lambda for the K(3,5) cases sits at 6 instead of 20, so a dead end
    costs ~0.2 s instead of ~11 s and dead ends still take most of the run.
    """

    name = "weight_balance"
    COMPLETE_CASES = 175
    K35_BASE = 6
    trace_rounds_per_s = 0.3

    def __init__(self, seed: int):
        self.seed = seed
        self.k35_edges = [(u, v) for u in range(15) for v in range(u + 1, 15) if u // 5 != v // 5]

    def ops(self, j: int):
        rng = random.Random(f"weight_balance/{self.seed}/{j}")
        cases = []
        for _ in range(self.COMPLETE_CASES):
            r = rng.choice([2, 3, 4])
            if r == 2:
                k, gamma, base = rng.choice([2, 3, 4]), 1.0, rng.randint(4, 9)
            elif r == 3:
                k, gamma, base = rng.choice([2, 3]), 0.6, rng.randint(7, 12)
            else:
                k, gamma, base = 2, 0.5, rng.randint(8, 14)
            cases.append((kr.PartiteGraph.complete(r, k), gamma, _uniform_lambda(r, k, base, rng)))
        for drop in self.k35_edges:
            g = kr.PartiteGraph(3, 5, [e for e in self.k35_edges if e != drop])
            cases.append((g, 0.2, _uniform_lambda(3, 5, self.K35_BASE, rng)))
        rng.shuffle(cases)
        for g, gamma, lam in cases:
            yield Op(
                partial(kr.balance_weights, g, lam, gamma, max_rows=2_000_000),
                partial(self._check, g, lam, gamma),
            )

    @staticmethod
    def _check(g, lam, gamma, wa):
        problem = checks.weights_problem(g.adj, g.r, g.n, lam, wa.omega)
        expected = checks.balance_checks(g.adj, g.r, g.n, lam, gamma)
        if not problem and wa.checks != expected:
            problem = f"hypothesis checks {wa.checks} != recomputed {expected}"
        return problem, tuple(sorted(wa.omega.items()))

    def final_problems(self) -> list[str]:
        return []


class PipelineRun:
    """`pipeline-run --r 3 --k 2 --cluster-size 45 --d 0.6 --b-size 3 --p 0.9`.

    One operation per CLI seed: the planted instance comes from the seed's
    substream 999, as in the CLI, and the pipeline runs with the seed itself.
    """

    name = "pipeline_run"
    R, K, CLUSTER_SIZE, D, B_SIZE, P = 3, 2, 45, 0.6, 3, 0.9
    trace_rounds_per_s = 1.8

    def __init__(self, seed: int):
        self.seed = seed

    def ops(self, j: int):
        cli_seed = self.seed * 1_000_000 + j
        yield Op(partial(self._run, cli_seed), self._check)

    def _run(self, cli_seed: int):
        inst = kr.gen_super_regular_instance(
            self.R, self.K, self.CLUSTER_SIZE, self.D, self.B_SIZE,
            kr.RandomSeed(cli_seed).substream(999), b_attach=0.9, gamma=0.2,
        )
        return inst, kr.run_pipeline(inst, self.P, cli_seed)

    def _check(self, out):
        inst, report = out
        g = inst.host
        problem = checks.pipeline_problem(g.adj, g.r, g.n, self.K, inst.exceptional, report)
        return problem, report.factor

    def final_problems(self) -> list[str]:
        return []


class TransversalSweep:
    """Transversal-sweep trials as the CLI runs them, r=3, n=20, p in 0.5/0.7/0.9.

    Round j holds trial j at every grid point.
    """

    name = "transversal_sweep"
    R, N, GAMMA, EDGE_KEEP = 3, 20, 0.2, 0.9
    P_GRID = (0.5, 0.7, 0.9)
    trace_rounds_per_s = 2.0

    def __init__(self, seed: int):
        self.seed = seed
        self.no_answers: Counter = Counter()

    def ops(self, j: int):
        for point, p in enumerate(self.P_GRID):
            yield Op(partial(self._trial, point, p, j), self._check)

    def _trial(self, point: int, p: float, t: int):
        base = kr.RandomSeed(self.seed).substream(point).substream(t)
        members = tuple(
            kr.gen_min_degree_instance(self.R, self.N, self.GAMMA, self.EDGE_KEEP, base.substream(10 + i))
            for i in range(self.N * 3)
        )
        family = kr.GraphFamily(self.R, self.N, members)
        aux = kr.build_b_pi(family, kr.sample_bundle(family, base.substream(0)))
        gp = kr.sparsify(aux.graph, p, base.substream(1))
        factor = kr.find_factor(gp)
        if factor is None:
            return family, gp, None, None, False
        lifted = kr.lift_factor(aux, factor)
        ok, _ = kr.verify_transversal(family, lifted)
        return family, gp, factor, lifted, ok

    def _check(self, out):
        family, gp, factor, lifted, ok = out
        if factor is None:
            how = checks.no_factor_certificate(gp.adj, gp.r, gp.n)
            self.no_answers[how] += 1
            return ("" if how else "answered no, but the graph has a factor"), None
        problem = checks.factor_problem(gp.adj, gp.r, gp.n, factor.cliques) or checks.lift_problem(
            [m.adj for m in family.graphs], family.r, family.n, lifted.cliques, lifted.assignment
        )
        if not problem and not ok:
            problem = "verify_transversal rejected a correct lift"
        return problem, tuple(sorted(lifted.assignment.items()))

    def final_problems(self) -> list[str]:
        return []


WORKLOADS = {
    cls.name: cls for cls in (ThresholdSweep, WeightBalance, PipelineRun, TransversalSweep)
}
