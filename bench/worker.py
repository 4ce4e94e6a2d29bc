"""One workload in one fresh process; started by run.py, not by hand.

Prints "ready" once the package is imported and the first round's inputs
are built, right before the first timed operation. Unless --setup-only is
given it then runs the workload and prints one JSON object.

Untraced (--trace 0): rounds run until another round would pass --seconds
and at least MIN_OPS operations have run. Traced (--trace 1): a fixed number
of rounds, set by --seconds, runs first untraced and then again with the
per-layer wrappers installed; the two passes must give identical outputs.
After every round the host-speed probe runs once per PROBE_EVERY_S of
operation time, and timings are normalised by the pass's slowdown.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

import hostspeed

ROOT = Path(__file__).resolve().parent.parent
MIN_OPS = 100
MAX_PROBLEMS = 5
PROBE_EVERY_S = 0.2


def _import_package():
    sys.path.insert(0, str(ROOT / "src"))
    import krfactor

    if Path(krfactor.__file__).resolve().parent != ROOT / "src" / "krfactor":
        raise ImportError(f"krfactor imported from {krfactor.__file__}, not from this checkout")
    return krfactor


class Phase:
    """Latencies, problems and, if asked, output fingerprints of one pass."""

    def __init__(self, keep_fingerprints: bool = False):
        self.latencies: list[float] = []
        self.probes: list[float] = []
        self.fingerprints: list[object] | None = [] if keep_fingerprints else None
        self.problems: list[str] = []
        self.errors: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.rounds = 0

    def run_round(self, ops) -> None:
        first = len(self.latencies)
        for op in ops:
            self.attempted += 1
            t0 = perf_counter()
            try:
                out = op.run()
            except Exception as exc:  # a failed operation is counted, not fatal
                self.latencies.append(perf_counter() - t0)
                self.failed += 1
                self._keep(("failed", type(exc).__name__))
                self.errors.append(f"operation raised {exc!r}")
                continue
            self.latencies.append(perf_counter() - t0)
            problem, fingerprint = op.check(out)
            self._keep(fingerprint)
            if problem:
                self.problems.append(problem)
        self.rounds += 1
        spent = sum(self.latencies[first:])
        for _ in range(max(1, round(spent / PROBE_EVERY_S))):
            self.probes.append(hostspeed.probe())

    def slowdown(self) -> float:
        return hostspeed.slowdown(self.probes)

    def _keep(self, fingerprint) -> None:
        if self.fingerprints is not None:
            self.fingerprints.append(fingerprint)


def run_timed(workload, first_round, seconds: float) -> Phase:
    phase = Phase()
    start = perf_counter()
    ops = first_round
    while True:
        phase.run_round(ops)
        elapsed = perf_counter() - start
        if phase.attempted >= MIN_OPS and elapsed * (phase.rounds + 1) / phase.rounds > seconds:
            return phase
        ops = workload.ops(phase.rounds)


def run_rounds(workload, first_round, rounds: int) -> Phase:
    phase = Phase(keep_fingerprints=True)
    phase.run_round(first_round)
    while phase.rounds < rounds:
        phase.run_round(workload.ops(phase.rounds))
    return phase


def end_to_end(phase: Phase, slowdown: float) -> dict:
    """Metrics with times divided by `slowdown` (1 gives the raw figures)."""
    lat_ms = sorted(x * 1000 / slowdown for x in phase.latencies)
    completed = phase.attempted - phase.failed
    return {
        "ops_per_s": {"value": completed / sum(lat_ms) * 1000, "unit": "ops/s"},
        "op_p50_ms": {"value": statistics.median(lat_ms), "unit": "ms"},
        "op_p90_ms": {
            "value": statistics.quantiles(lat_ms, n=10, method="inclusive")[8],
            "unit": "ms",
        },
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "unit": "MB",
        },
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    kr = _import_package()
    import numpy

    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    first_round = list(workload.ops(0))
    print("ready", flush=True)
    if args.setup_only:
        return 0

    if args.trace:
        import tracing

        rounds = max(1, math.ceil(args.seconds * workload.trace_rounds_per_s))
        plain = run_rounds(workload, first_round, rounds)
        rec = tracing.Recorder()
        uninstall, absent = tracing.install(rec)
        try:
            traced = run_rounds(workload, list(workload.ops(0)), rounds)
        finally:
            uninstall()
        metrics = tracing.layer_metrics(rec, absent, traced.slowdown())
        plain_s = sum(plain.latencies) / plain.slowdown()
        traced_s = sum(traced.latencies) / traced.slowdown()
        metrics["trace.overhead_pct"] = {"value": (traced_s / plain_s - 1) * 100, "unit": "%"}
        slowdowns = [plain.slowdown(), traced.slowdown()]
        raw = {}
        phases = [plain, traced]
        problems = plain.problems + traced.problems
        if plain.fingerprints != traced.fingerprints:
            problems.append("traced outputs differ from untraced outputs")
    else:
        phase = run_timed(workload, first_round, args.seconds)
        slowdowns = [phase.slowdown()]
        metrics = end_to_end(phase, slowdowns[0])
        raw = end_to_end(phase, 1.0)
        phases, absent = [phase], []
        problems = list(phase.problems)
    problems += workload.final_problems()

    result = {
        "correct": not problems,
        "attempted": sum(p.attempted for p in phases),
        "failed": sum(p.failed for p in phases),
        "metrics": metrics,
        "problems": problems[:MAX_PROBLEMS],
        "absent": absent,
        "rounds": [p.rounds for p in phases],
        "slowdown": slowdowns,
        "raw_metrics": raw,
        "errors": [e for p in phases for e in p.errors][:MAX_PROBLEMS],
        "no_answers": dict(getattr(workload, "no_answers", {})),
        "env": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "krfactor": kr.__version__,
        },
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
