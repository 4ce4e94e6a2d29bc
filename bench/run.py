"""Benchmark of krfactor's experiment workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py                      # all four workloads, one by one

Each workload runs in a fresh single-threaded process (bench/worker.py).
`setup_s` is the time from starting such a process until it is ready for
its first timed operation (interpreter, imports, first round of inputs); it
is sampled SETUP_SAMPLES times per run, the last sample being the measured
process itself, and reported as the median. Unlike the workers' timings it
is not normalised by host speed: the probe in bench/hostspeed.py does not
track process start-up. The last line of standard output is the result as
one JSON object. The full record, with the raw timings, nproc, the Python
and numpy versions and the commit, goes to bench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("threshold_sweep", "weight_balance", "pipeline_run", "transversal_sweep")
SETUP_SAMPLES = 7
TIMEOUT_S = 170
_SINGLE_THREAD = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


class BenchError(RuntimeError):
    pass


def _commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _start(argv: list[str]) -> tuple[subprocess.Popen, float]:
    """Start a worker and wait for its 'ready' line; returns (process, setup seconds)."""
    env = dict(os.environ, **_SINGLE_THREAD)
    t0 = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *argv],
        stdout=subprocess.PIPE, text=True, cwd=ROOT, env=env,
    )
    line = proc.stdout.readline()
    setup = perf_counter() - t0
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise BenchError(f"worker did not get ready (said {line.strip()!r})")
    return proc, setup


def _finish(proc: subprocess.Popen) -> str:
    try:
        out, _ = proc.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"worker ran past {TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return out


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    argv = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    setups = []
    for sample in range(SETUP_SAMPLES):
        last = sample == SETUP_SAMPLES - 1
        proc, setup = _start(argv if last else argv + ["--setup-only"])
        setups.append(setup)
        if not last:
            _finish(proc)
    record = json.loads(_finish(proc).strip().splitlines()[-1])
    if not trace:
        setup_s = {"value": statistics.median(setups), "unit": "s"}
        record["metrics"]["setup_s"] = record["raw_metrics"]["setup_s"] = setup_s
    record["env"].update(nproc=os.cpu_count(), commit=_commit())
    record.update(workload=name, seed=seed, seconds=seconds, trace=trace, setup_samples_s=setups)
    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{name}-seed{seed}-trace{trace}.json").write_text(json.dumps(record, indent=1) + "\n")
    return record


def _result_line(record: dict) -> dict:
    return {key: record[key] for key in ("correct", "attempted", "failed", "metrics")}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "krfactor" / "__init__.py").is_file():
        print(f"error: no krfactor sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    records = []
    try:
        for name in names:
            record = run_workload(name, args.seed, args.seconds, args.trace)
            records.append(record)
            for line in record["problems"] + record["errors"]:
                print(f"{name}: {line}", file=sys.stderr)
            print("# " + json.dumps({"workload": name, "env": record["env"], "absent": record["absent"]}))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(records) == 1:
        result = _result_line(records[0])
    else:
        for record in records:
            print(json.dumps({"workload": record["workload"], **_result_line(record)}))
        result = {
            "correct": all(r["correct"] for r in records),
            "attempted": sum(r["attempted"] for r in records),
            "failed": sum(r["failed"] for r in records),
            "metrics": {
                f"{r['workload']}/{name}": value
                for r in records
                for name, value in r["metrics"].items()
            },
        }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
