"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/spread.py --seeds 0-9 [--workloads a,b] [--seconds S] [--tag NAME]

For every workload and end-to-end metric it prints the median, the first
and third quartiles (statistics.quantiles(values, n=4)) and the distance
between the quartiles as a share of the median, next to the metric's bound
in BENCHMARK.json, and the same for the raw timings before normalising by
host speed. The runs go one after another, each through run.py, and
the summary is written to bench/results/spread-TAG.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(x) for x in text.split(",")]


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seeds", default="0-9")
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--tag", default="last")
    args = ap.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {}
    for workload in args.workloads.split(","):
        runs, raws = [], []
        for seed in _seeds(args.seeds):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                capture_output=True, text=True, cwd=ROOT,
            )
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
            runs.append(json.loads(lines[-1]))
            record = json.loads((HERE / "results" / f"{workload}-seed{seed}-trace0.json").read_text())
            raws.append(record["raw_metrics"])
        failed_share = {r["failed"] / r["attempted"] for r in runs}
        rows = {}
        for name in bounds:
            values = [r["metrics"][name]["value"] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            raw = [r[name]["value"] for r in raws]
            rq1, rmedian, rq3 = statistics.quantiles(raw, n=4)
            rows[name] = {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
                          "bound": bounds[name], "values": values,
                          "raw_median": rmedian, "raw_spread": (rq3 - rq1) / rmedian, "raw_values": raw}
            print(f"{workload:18s} {name:12s} median {median:12.4f}  q1 {q1:12.4f}  q3 {q3:12.4f}"
                  f"  spread {rows[name]['spread']:6.3f}  bound {bounds[name]}"
                  f"  (raw median {rmedian:.4f}, spread {rows[name]['raw_spread']:.3f})")
        print(f"{workload:18s} correct {all(r['correct'] for r in runs)}"
              f"  attempted {sorted(r['attempted'] for r in runs)}  failed share {sorted(failed_share)}")
        summary[workload] = {"metrics": rows, "attempted": [r["attempted"] for r in runs],
                             "failed": [r["failed"] for r in runs],
                             "correct": all(r["correct"] for r in runs)}
    out = HERE / "results" / f"spread-{args.tag}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({"seeds": _seeds(args.seeds), "seconds": args.seconds, "workloads": summary}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
