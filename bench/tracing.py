"""Per-layer counters and timers for the traced benchmark run.

`install` wraps each timed public function of krfactor at every module that
holds a reference to it (the defining module, the modules that import it and
the package namespace), and wraps the methods of `ExactCover` on the class.
A timed function that no longer exists is skipped and its metrics are
reported as absent; the untraced run never installs any wrapper.
"""

from __future__ import annotations

import importlib
import sys
from time import perf_counter

# metric name -> unit, in report order
METRICS = {
    "graphs.gen_s": "s",
    "graphs.gen_calls": "count",
    "graphs.sparsify_s": "s",
    "graphs.sparsify_calls": "count",
    "graphs.sparsify_edges_in": "count",
    "solver.calls": "count",
    "solver.total_s": "s",
    "solver.row_build_s": "s",
    "solver.greedy_hits": "count",
    "solver.greedy_hit_ratio": "ratio",
    "solver.verify_s": "s",
    "exact_cover.instances": "count",
    "exact_cover.rows": "count",
    "exact_cover.add_row_s": "s",
    "exact_cover.search_s": "s",
    "pipeline.balance_weights_s": "s",
    "pipeline.balance_weights_calls": "count",
    "pipeline.run_s": "s",
    "pipeline.cover_exceptional_s": "s",
    "pipeline.balance_tuples_s": "s",
    "pipeline.reserve_attempts": "count",
    "regularity.gen_instance_s": "s",
    "regularity.reduced_graph_s": "s",
    "regularity.pair_checks": "count",
    "regularity.subsets_checked": "count",
    "transversal.build_b_pi_s": "s",
    "transversal.lift_factor_s": "s",
    "transversal.verify_s": "s",
    "trace.overhead_pct": "%",
}


class Recorder:
    """Sums of named counters and timers."""

    def __init__(self):
        self.values: dict[str, float] = {}

    def add(self, name: str, amount: float) -> None:
        self.values[name] = self.values.get(name, 0.0) + amount

    def get(self, name: str) -> float:
        return self.values.get(name, 0.0)


def _rebind(original, wrapper) -> None:
    """Point every krfactor module attribute bound to `original` at `wrapper`."""
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "krfactor" or name.startswith("krfactor.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)


def _timed(rec: Recorder, seconds: str | None, calls: str | None = None, after=None):
    def make(fn):
        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                if seconds:
                    rec.add(seconds, perf_counter() - t0)
                if calls:
                    rec.add(calls, 1)
            if after is not None:
                after(result, args, kwargs)
            return result

        return wrapper

    return make


def _solver_wrapper(rec: Recorder):
    def make(fn):
        def wrapper(*args, **kwargs):
            instances = rec.get("exact_cover.instances")
            search = rec.get("exact_cover.search_s")
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                spent = perf_counter() - t0
                rec.add("solver.calls", 1)
                rec.add("solver.total_s", spent)
                rec.add("solver.row_build_s", spent - (rec.get("exact_cover.search_s") - search))
            if result is not None and rec.get("exact_cover.instances") == instances:
                rec.add("solver.greedy_hits", 1)
            return result

        return wrapper

    return make


def _function_hooks(rec: Recorder):
    """(module, function name, wrapper factory, metrics it feeds)."""

    def edges_in(result, args, kwargs):
        rec.add("graphs.sparsify_edges_in", args[0].edge_count())

    def reserve(result, args, kwargs):
        rec.add("pipeline.reserve_attempts", result.stages.get("reserve", {}).get("attempts", 0))

    def subsets(result, args, kwargs):
        rec.add("regularity.subsets_checked", result.pairs_checked)

    return [
        ("krfactor.graphs", "gen_min_degree_instance",
         _timed(rec, "graphs.gen_s", "graphs.gen_calls"),
         ["graphs.gen_s", "graphs.gen_calls"]),
        ("krfactor.graphs", "sparsify",
         _timed(rec, "graphs.sparsify_s", "graphs.sparsify_calls", edges_in),
         ["graphs.sparsify_s", "graphs.sparsify_calls", "graphs.sparsify_edges_in"]),
        ("krfactor.solver", "find_factor", _solver_wrapper(rec),
         ["solver.calls", "solver.total_s", "solver.row_build_s", "solver.greedy_hits",
          "solver.greedy_hit_ratio"]),
        ("krfactor.solver", "solve_restricted", _solver_wrapper(rec), []),
        ("krfactor.solver", "verify_factor", _timed(rec, "solver.verify_s"),
         ["solver.verify_s"]),
        ("krfactor.pipeline", "balance_weights",
         _timed(rec, "pipeline.balance_weights_s", "pipeline.balance_weights_calls"),
         ["pipeline.balance_weights_s", "pipeline.balance_weights_calls"]),
        ("krfactor.pipeline", "run_pipeline", _timed(rec, "pipeline.run_s", after=reserve),
         ["pipeline.run_s", "pipeline.reserve_attempts"]),
        ("krfactor.pipeline", "cover_exceptional", _timed(rec, "pipeline.cover_exceptional_s"),
         ["pipeline.cover_exceptional_s"]),
        ("krfactor.pipeline", "balance_tuples", _timed(rec, "pipeline.balance_tuples_s"),
         ["pipeline.balance_tuples_s"]),
        ("krfactor.regularity", "gen_super_regular_instance",
         _timed(rec, "regularity.gen_instance_s"), ["regularity.gen_instance_s"]),
        ("krfactor.regularity", "build_reduced_graph",
         _timed(rec, "regularity.reduced_graph_s"), ["regularity.reduced_graph_s"]),
        ("krfactor.regularity", "check_regular_pair",
         _timed(rec, None, "regularity.pair_checks", subsets),
         ["regularity.pair_checks", "regularity.subsets_checked"]),
        ("krfactor.transversal", "build_b_pi", _timed(rec, "transversal.build_b_pi_s"),
         ["transversal.build_b_pi_s"]),
        ("krfactor.transversal", "lift_factor", _timed(rec, "transversal.lift_factor_s"),
         ["transversal.lift_factor_s"]),
        ("krfactor.transversal", "verify_transversal", _timed(rec, "transversal.verify_s"),
         ["transversal.verify_s"]),
    ]


_EXACT_COVER_METRICS = [
    "exact_cover.instances",
    "exact_cover.rows",
    "exact_cover.add_row_s",
    "exact_cover.search_s",
]


def _wrap_exact_cover(rec: Recorder, cls):
    """Replace ExactCover's methods on the class; returns the originals."""
    saved = {name: cls.__dict__[name] for name in ("__init__", "add_row", "solutions")}
    init, add_row, solutions = saved["__init__"], saved["add_row"], saved["solutions"]

    def traced_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        rec.add("exact_cover.instances", 1)

    def traced_add_row(self, *args, **kwargs):
        t0 = perf_counter()
        try:
            return add_row(self, *args, **kwargs)
        finally:
            rec.add("exact_cover.add_row_s", perf_counter() - t0)
            rec.add("exact_cover.rows", 1)

    def traced_solutions(self, *args, **kwargs):
        gen = solutions(self, *args, **kwargs)
        try:
            while True:
                t0 = perf_counter()
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    rec.add("exact_cover.search_s", perf_counter() - t0)
                yield item
        finally:
            t0 = perf_counter()
            gen.close()
            rec.add("exact_cover.search_s", perf_counter() - t0)

    cls.__init__ = traced_init
    cls.add_row = traced_add_row
    cls.solutions = traced_solutions
    return saved


def install(rec: Recorder):
    """Install every wrapper; returns (uninstall, names of absent metrics)."""
    undo = []
    absent: list[str] = []
    for module, name, make, metrics in _function_hooks(rec):
        try:
            original = getattr(importlib.import_module(module), name)
        except (ImportError, AttributeError):
            absent.extend(metrics)
            continue
        wrapper = make(original)
        _rebind(original, wrapper)
        undo.append((wrapper, original))
    try:
        cls = importlib.import_module("krfactor.exact_cover").ExactCover
        saved = _wrap_exact_cover(rec, cls)
    except (ImportError, AttributeError, KeyError):
        absent.extend(_EXACT_COVER_METRICS)
        cls, saved = None, {}

    def uninstall():
        for wrapper, original in undo:
            _rebind(wrapper, original)
        for name, method in saved.items():
            setattr(cls, name, method)

    return uninstall, absent


def layer_metrics(rec: Recorder, absent, slowdown: float) -> dict:
    """Per-layer values, times divided by `slowdown`, absent metrics left out."""
    out = {}
    for name, unit in METRICS.items():
        if name in absent or name == "trace.overhead_pct":
            continue
        if name == "solver.greedy_hit_ratio":
            calls = rec.get("solver.calls")
            value = rec.get("solver.greedy_hits") / calls if calls else 0.0
        else:
            value = rec.get(name) / (slowdown if unit == "s" else 1)
        out[name] = {"value": value if unit != "count" else int(value), "unit": unit}
    return out
