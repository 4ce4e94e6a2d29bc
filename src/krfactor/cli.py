"""Command-line experiments and verification.

Subcommands: threshold-sweep, transversal-sweep, pipeline-run, janson-report,
verify, gen. Sweeps emit CSV (default), JSON, or a self-contained SVG plot.
Exit codes: 0 success, 1 experiment/verification failure, 2 bad inputs.

Outputs are byte-identical across reruns with the same arguments: trial seeds
are derived per (point, trial) from the base seed, aggregation is
order-independent, and the wall_ms column stays 0 unless --timing is given.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from contextlib import contextmanager
from itertools import product
from pathlib import Path

from .bounds import chernoff_bound, janson_lambda_delta, janson_lower_bound
from .cliques import _clique_count, enumerate_kr
from .errors import BudgetExceededError, FileFormatError
from .graphs import (
    ThresholdParams,
    gen_min_degree_instance,
    gen_no_factor_witness,
    read_graph_file,
    sparsify,
    threshold_p,
    write_graph_file,
)
from .pipeline import run_pipeline
from .regularity import gen_super_regular_instance, read_instance, write_instance
from .rng import RandomSeed
from .solver import find_factor, read_factor_certificate, verify_factor
from .transversal import (
    GraphFamily,
    build_b_pi,
    lift_factor,
    read_family,
    read_transversal_certificate,
    sample_bundle,
    verify_transversal,
    write_family,
)

SWEEP_HEADER = "mode,r,n,gamma,C,p,trials,successes,success_rate,seed,wall_ms,skipped"
_ROW_FIELDS = SWEEP_HEADER.split(",")


def _fmt_num(x) -> str:
    if x is None:
        return ""
    if isinstance(x, (int, str)):
        return str(x)
    return format(x, ".10g")


def _parse_list(text: str, what: str, convert=float) -> list:
    try:
        vals = [convert(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise FileFormatError(f"bad {what} list {text!r}: {exc}") from exc
    if not vals:
        raise FileFormatError(f"empty {what} list")
    return vals


def _write_out(text: str, out: str | None):
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


# --- sweep trials (top level so worker pools can pickle them) ---------------


def _trial_seed(seed: int, point: int, trial: int) -> tuple[int, int]:
    s = RandomSeed(seed).substream(point).substream(trial)
    return s.seed, s.stream


def _threshold_trial(task) -> bool | None:
    r, n, gamma, edge_keep, p, seed, stream = task
    base = RandomSeed(seed, stream)
    try:
        g = gen_min_degree_instance(r, n, gamma, edge_keep, base.substream(0))
        return find_factor(sparsify(g, p, base.substream(1))) is not None
    except BudgetExceededError:
        return None


def _min_degree_family(r, n, gamma, edge_keep, seed: RandomSeed, offset: int) -> GraphFamily:
    """The n * C(r,2) degree-floor members; member t draws from substream offset + t."""
    members = tuple(
        gen_min_degree_instance(r, n, gamma, edge_keep, seed.substream(offset + t))
        for t in range(n * math.comb(r, 2))
    )
    return GraphFamily(r, n, members)


def _transversal_trial(task) -> bool | None:
    r, n, gamma, edge_keep, p, seed, stream = task
    base = RandomSeed(seed, stream)
    try:
        family = _min_degree_family(r, n, gamma, edge_keep, base, 10)
        aux = build_b_pi(family, sample_bundle(family, base.substream(0)))
        factor = find_factor(sparsify(aux.graph, p, base.substream(1)))
        if factor is None:
            return False
        try:
            lifted = lift_factor(aux, factor)
        except ValueError as exc:  # find_factor's own answer, so not bad input
            raise RuntimeError(f"internal: {exc}") from exc
        ok, _ = verify_transversal(family, lifted)
        return ok
    except BudgetExceededError:
        return None


_TRIALS = {"threshold": _threshold_trial, "transversal": _transversal_trial}


@contextmanager
def _trial_map(workers: int):
    """One `map(fn, tasks)` for a whole sweep: in-process, or one worker pool."""
    if workers == 1:
        yield lambda fn, tasks: [fn(t) for t in tasks]
        return
    import multiprocessing as mp

    with mp.Pool(workers) as pool:
        yield pool.map


def _run_sweep(mode: str, args) -> tuple[dict, list[dict]]:
    if args.trials < 1:
        raise FileFormatError("--trials must be positive")
    cpus = os.cpu_count() or 1
    if not 1 <= args.workers <= cpus:
        raise FileFormatError(f"--workers must be in 1..{cpus}")
    n_list = _parse_list(args.n, "n", int)
    if args.p_grid is not None:
        grid_kind, grid = "p", _parse_list(args.p_grid, "p grid")
        for p in grid:
            if not 0.0 <= p <= 1.0:
                raise FileFormatError(f"p={p} outside [0, 1]")
    else:
        grid_kind, grid = "C", _parse_list(args.c_grid, "C grid")
    # every point as (n, p, C or None), resolved before the first trial runs
    if grid_kind == "C":
        points = [
            (n, threshold_p(ThresholdParams(args.r, n, c)).p, c) for n, c in product(n_list, grid)
        ]
    else:
        points = [(n, p, None) for n, p in product(n_list, grid)]
    config = {
        "mode": mode,
        "r": args.r,
        "n": n_list,
        "gamma": args.gamma,
        "edge_keep": args.edge_keep,
        "grid_kind": grid_kind,
        "grid": grid,
        "trials": args.trials,
        "seed": args.seed,
        "timing": bool(args.timing),
    }
    trial_fn = _TRIALS[mode]
    rows = []
    with _trial_map(args.workers) as run_trials:
        for point, (n, p, c_val) in enumerate(points):
            tasks = [
                (args.r, n, args.gamma, args.edge_keep, p)
                + _trial_seed(args.seed, point, t)
                for t in range(args.trials)
            ]
            started = time.monotonic()
            results = run_trials(trial_fn, tasks)
            wall = int((time.monotonic() - started) * 1000) if args.timing else 0
            skipped = sum(1 for x in results if x is None)
            if skipped:
                print(
                    f"warning: point {point}: {skipped} trials skipped (budget)",
                    file=sys.stderr,
                )
            completed = len(results) - skipped
            successes = sum(1 for x in results if x)
            rows.append(
                {
                    "mode": mode,
                    "r": args.r,
                    "n": n,
                    "gamma": args.gamma,
                    "C": c_val,
                    "p": p,
                    "trials": completed,
                    "successes": successes,
                    "success_rate": successes / completed if completed else 0.0,
                    "seed": args.seed,
                    "wall_ms": wall,
                    "skipped": skipped,
                }
            )
    return config, rows


def render_csv(config: dict, rows: list[dict]) -> str:
    lines = [
        "# config " + json.dumps(config, sort_keys=True, separators=(",", ":")),
        SWEEP_HEADER,
    ]
    for row in rows:
        lines.append(",".join(_fmt_num(row[f]) for f in _ROW_FIELDS))
    return "\n".join(lines) + "\n"


def render_json(config: dict, rows: list[dict]) -> str:
    return json.dumps({"config": config, "rows": rows}, sort_keys=True, indent=2) + "\n"


_SVG_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b", "#e377c2")


def render_svg(config: dict, rows: list[dict]) -> str:
    """Minimal self-contained plot: success rate vs the sweep grid, one line per n."""
    width, height = 640, 420
    left, right, top, bottom = 60, 20, 30, 50
    plot_w = width - left - right
    plot_h = height - top - bottom
    xs_kind = config["grid_kind"]
    xvals = sorted({row["C"] if xs_kind == "C" else row["p"] for row in rows})
    if xs_kind == "C":
        tf = lambda x: math.log10(x) if x > 0 else -6.0
    else:
        tf = lambda x: x
    lo, hi = tf(xvals[0]), tf(xvals[-1])
    span = hi - lo if hi > lo else 1.0

    def px(x) -> float:
        return left + (tf(x) - lo) / span * plot_w

    def py(rate) -> float:
        return top + (1.0 - rate) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{left}" y1="{top}" x2="{left}" y2="{top + plot_h}" stroke="black"/>',
        f'<line x1="{left}" y1="{top + plot_h}" x2="{left + plot_w}" y2="{top + plot_h}" stroke="black"/>',
    ]
    for frac in (0.0, 0.5, 1.0):
        y = py(frac)
        parts.append(
            f'<text x="{left - 8:.1f}" y="{y + 4:.1f}" font-size="11" text-anchor="end">{frac:.1f}</text>'
        )
        parts.append(
            f'<line x1="{left - 4}" y1="{y:.1f}" x2="{left}" y2="{y:.1f}" stroke="black"/>'
        )
    for x in xvals:
        parts.append(
            f'<text x="{px(x):.1f}" y="{top + plot_h + 16}" font-size="11" '
            f'text-anchor="middle">{_fmt_num(x)}</text>'
        )
    title = f"{config['mode']} sweep: success rate vs {xs_kind}"
    parts.append(
        f'<text x="{width / 2:.0f}" y="18" font-size="13" text-anchor="middle">{title}</text>'
    )
    parts.append(
        f'<text x="{width / 2:.0f}" y="{height - 12}" font-size="12" '
        f'text-anchor="middle">{xs_kind}</text>'
    )
    n_list = sorted({row["n"] for row in rows})
    for pos, n in enumerate(n_list):
        color = _SVG_COLORS[pos % len(_SVG_COLORS)]
        pts = [
            (row["C"] if xs_kind == "C" else row["p"], row["success_rate"])
            for row in rows
            if row["n"] == n
        ]
        pts.sort()
        coords = " ".join(f"{px(x):.2f},{py(rate):.2f}" for x, rate in pts)
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{coords}"/>'
        )
        for x, rate in pts:
            parts.append(
                f'<circle cx="{px(x):.2f}" cy="{py(rate):.2f}" r="2.5" fill="{color}"/>'
            )
        parts.append(
            f'<text x="{left + plot_w - 4}" y="{top + 14 + 14 * pos}" font-size="11" '
            f'text-anchor="end" fill="{color}">n={n}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


_RENDER = {"csv": render_csv, "json": render_json, "svg": render_svg}


def _cmd_sweep(mode: str):
    def run(args) -> int:
        config, rows = _run_sweep(mode, args)
        _write_out(_RENDER[args.format](config, rows), args.out)
        return 0

    return run


def _bound_or_none(bound, *args):
    """bound(*args), or None where the bound rejects its arguments."""
    try:
        return bound(*args)
    except ValueError:
        return None


def cmd_janson_report(args) -> int:
    if not 0.0 <= args.p <= 1.0:
        raise FileFormatError(f"p={args.p} outside [0, 1]")
    if args.mc_trials < 0:
        raise FileFormatError("--mc-trials must be nonnegative")
    deviations = _parse_list(args.deviations, "deviations")
    bad = [a for a in deviations if not math.isfinite(a)]
    if bad:
        raise FileFormatError(f"--deviations must be finite, got {bad[0]}")
    g = read_graph_file(args.graph)
    family = enumerate_kr(g, max_cliques=args.max_cliques)
    lam, delta_bar = janson_lambda_delta(family, args.p)
    bounds = [
        {
            "a": a,
            "janson_lower": _bound_or_none(janson_lower_bound, lam, delta_bar, a),
            "chernoff_upper": _bound_or_none(chernoff_bound, lam, a, "upper"),
            "chernoff_lower": _bound_or_none(chernoff_bound, lam, a, "lower"),
        }
        for a in deviations
    ]
    monte_carlo = None
    if args.mc_trials > 0:
        # the family is every clique of g, so its survivors are G(p)'s cliques
        base = RandomSeed(args.seed)
        total = sum(
            _clique_count(sparsify(g, args.p, base.substream(t)))
            for t in range(args.mc_trials)
        )
        monte_carlo = {"trials": args.mc_trials, "mean": total / args.mc_trials}
    payload = {
        "format": "janson-report",
        "graph": str(args.graph),
        "p": args.p,
        "seed": args.seed,
        "clique_count": len(family),
        "lambda": lam,
        "delta_bar": delta_bar,
        "bounds": bounds,
        "monte_carlo": monte_carlo,
    }
    _write_out(json.dumps(payload, sort_keys=True, indent=2) + "\n", args.out)
    return 0


def _gen_instance(args, needs: str):
    """Planted pipeline instance from the shape flags, drawn from substream 999
    of --seed (so `gen --kind pipeline` writes what `pipeline-run` plants);
    `needs` prefixes the list of missing flags in the error."""
    missing = [
        flag
        for flag, val in (
            ("--r", args.r),
            ("--k", args.k),
            ("--cluster-size", args.cluster_size),
            ("--d", args.d),
            ("--b-size", args.b_size),
        )
        if val is None
    ]
    if missing:
        raise FileFormatError(needs + ", ".join(missing))
    return gen_super_regular_instance(
        args.r,
        args.k,
        args.cluster_size,
        args.d,
        args.b_size,
        RandomSeed(args.seed).substream(999),
        b_attach=args.b_attach,
        gamma=args.gamma,
    )


def cmd_pipeline_run(args) -> int:
    if args.instance is not None:
        inst = read_instance(args.instance)
    else:
        inst = _gen_instance(args, "pipeline-run needs --instance or all of ")
    report = run_pipeline(inst, args.p, args.seed, alpha=args.alpha, mu=args.mu)
    _write_out(report.to_json(), args.out)
    if not report.success:
        print(
            f"pipeline failed at stage {report.failure_stage}: {report.error}",
            file=sys.stderr,
        )
        return 1
    return 0


def cmd_verify(args) -> int:
    if args.family is not None:
        family = read_family(args.family)
        tf = read_transversal_certificate(args.certificate)
        ok, reason = verify_transversal(family, tf)
    else:
        g = read_graph_file(args.graph)
        cliques = read_factor_certificate(args.certificate)
        ok, reason = verify_factor(g, cliques)
    if ok:
        print("ok")
        return 0
    print(f"reject: {reason}")
    return 1


def cmd_gen(args) -> int:
    seed = RandomSeed(args.seed)
    if args.kind == "min-degree":
        g = gen_min_degree_instance(args.r, args.n, args.gamma, args.edge_keep, seed)
        write_graph_file(g, args.out)
    elif args.kind == "witness":
        wit = gen_no_factor_witness(args.r, args.n, seed)
        write_graph_file(wit.graph, args.out)
        Path(args.out).write_text(
            f"# witness vertex {wit.vertex} detached from part {wit.missing_part}\n"
            + Path(args.out).read_text()
        )
    elif args.kind == "family":
        family = _min_degree_family(args.r, args.n, args.gamma, args.edge_keep, seed, 0)
        manifest = write_family(family, args.out)
        print(manifest)
        return 0
    elif args.kind == "pipeline":
        write_instance(_gen_instance(args, "gen --kind pipeline needs "), args.out)
    else:  # pragma: no cover - argparse restricts choices
        raise FileFormatError(f"unknown kind {args.kind}")
    print(args.out)
    return 0


def _add_sweep_args(sp, mode: str):
    sp.add_argument("--r", type=int, default=3, help="number of parts")
    sp.add_argument("--n", default="30", help="comma-separated part sizes")
    sp.add_argument("--gamma", type=float, default=0.2, help="degree-floor margin")
    sp.add_argument(
        "--edge-keep",
        type=float,
        default=0.9,
        help="edge fraction kept by the instance generator",
    )
    grid = sp.add_mutually_exclusive_group()
    grid.add_argument(
        "--c-grid",
        default="0.3,1,3,10",
        help="comma-separated C values (p derived per n)",
    )
    grid.add_argument("--p-grid", default=None, help="comma-separated raw p values")
    sp.add_argument("--trials", type=int, default=200, help="trials per grid point")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--workers", type=int, default=1, help="worker processes, 1..CPU count")
    sp.add_argument("--timing", action="store_true", help="record real wall_ms")
    sp.add_argument("--out", default=None, help="output path (default stdout)")
    sp.add_argument("--format", choices=("csv", "json", "svg"), default="csv")
    sp.set_defaults(func=_cmd_sweep(mode))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="krfactor",
        description="Clique-factor experiments on balanced multipartite graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    _add_sweep_args(
        sub.add_parser(
            "threshold-sweep",
            help="factor success rate of sparsified degree-floor instances",
        ),
        "threshold",
    )
    _add_sweep_args(
        sub.add_parser(
            "transversal-sweep",
            help="lifted-factor success rate over random graph families",
        ),
        "transversal",
    )

    pr = sub.add_parser("pipeline-run", help="run the three-round pipeline once")
    pr.add_argument("--instance", default=None, help="partitioned-instance JSON")
    pr.add_argument("--r", type=int, default=None)
    pr.add_argument("--k", type=int, default=None)
    pr.add_argument("--cluster-size", type=int, default=None)
    pr.add_argument("--d", type=float, default=None)
    pr.add_argument("--b-size", type=int, default=None)
    pr.add_argument("--b-attach", type=float, default=0.9)
    pr.add_argument("--gamma", type=float, default=0.2)
    pr.add_argument("--p", type=float, required=True)
    pr.add_argument("--alpha", type=float, default=0.25)
    pr.add_argument("--mu", type=float, default=0.05)
    pr.add_argument("--seed", type=int, default=0)
    pr.add_argument("--out", default=None, help="report path (default stdout)")
    pr.set_defaults(func=cmd_pipeline_run)

    jr = sub.add_parser("janson-report", help="survival-count bounds for one graph")
    jr.add_argument("--graph", required=True)
    jr.add_argument("--p", type=float, required=True)
    jr.add_argument("--deviations", default="0.25,0.5,0.75")
    jr.add_argument("--mc-trials", type=int, default=10000)
    jr.add_argument("--max-cliques", type=int, default=200_000)
    jr.add_argument("--seed", type=int, default=0)
    jr.add_argument("--out", default=None)
    jr.set_defaults(func=cmd_janson_report)

    vf = sub.add_parser("verify", help="check a factor or lifted-factor certificate")
    target = vf.add_mutually_exclusive_group(required=True)
    target.add_argument("--graph", default=None, help="host graph file")
    target.add_argument("--family", default=None, help="family manifest.json")
    vf.add_argument("--certificate", required=True)
    vf.set_defaults(func=cmd_verify)

    gn = sub.add_parser("gen", help="generate instances to files")
    gn.add_argument(
        "--kind",
        choices=("min-degree", "witness", "family", "pipeline"),
        required=True,
    )
    gn.add_argument("--r", type=int, default=3)
    gn.add_argument("--n", type=int, default=9)
    gn.add_argument("--gamma", type=float, default=0.2)
    gn.add_argument("--edge-keep", type=float, default=0.9)
    gn.add_argument("--k", type=int, default=None)
    gn.add_argument("--cluster-size", type=int, default=None)
    gn.add_argument("--d", type=float, default=None)
    gn.add_argument("--b-size", type=int, default=None)
    gn.add_argument("--b-attach", type=float, default=0.9)
    gn.add_argument("--seed", type=int, default=0)
    gn.add_argument("--out", required=True)
    gn.set_defaults(func=cmd_gen)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:  # a valid run that failed, budget stops included
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
