"""Record the benchmark's end-to-end metrics for one tree in BENCH_<pr>.json.

Usage, from the repository root:

    python3 tools/bench_record.py --pr 14 --seeds 1 2 3
    python3 tools/bench_record.py --pr 14 --workloads voice-dense --seeds 5

For every workload and seed given, one after the other, this runs

    python3 perfbench/run.py --workload W --seed S --seconds 40 --trace 0

and keeps the last JSON line it prints (the metrics and whether the run was
correct) with its export sha256 and replica-count sha256 lines. Then it runs

    python3 perfbench/run.py --workload W --seed S --seconds 10 --trace 1

and keeps that run's per-layer metrics whose unit is ``count`` (calls,
events, drops), which do not depend on the host. The file it writes holds,
per workload, each end-to-end metric's median, quartiles and interquartile
range over the seeds, and per seed the metric values, the two digests and
the traced counts, so a later tree run on the same seeds can be compared
with it digest by digest and count by count. Every timed run lasts SECONDS,
the benchmark's run length, so any two of these files compare runs of one
length.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("voice-dense", "voice-lossy", "churn-single")
DIGESTS = {"export sha256 = ": "export_sha256",
           "replica-count sha256 = ": "replica_count_sha256"}
SECONDS = 40
COMMAND = ["perfbench/run.py", "--seconds", str(SECONDS), "--trace", "0"]
TRACE_COMMAND = ["perfbench/run.py", "--seconds", "10", "--trace", "1"]


def _run(command: list[str], workload: str, seed: int,
         checkout: Path = ROOT) -> list[str]:
    cmd = [sys.executable, *command, "--workload", workload, "--seed", str(seed)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                          check=True)
    return proc.stdout.strip().splitlines()


def traced_counts(workload: str, seed: int) -> dict:
    """One traced benchmark run: whether it was correct, and its per-layer
    counts."""
    out = json.loads(_run(TRACE_COMMAND, workload, seed)[-1])
    return {"correct": out["correct"],
            "counts": {k: m["value"] for k, m in out["metrics"].items()
                       if m["unit"] == "count"}}


def run_one(workload: str, seed: int, checkout: Path = ROOT,
            traced: bool = True) -> tuple[dict, dict]:
    """One timed benchmark run in checkout: its metric values, correctness
    and digests, and the metrics' units; then, if traced, one traced run for
    the counts."""
    lines = _run(COMMAND, workload, seed, checkout)
    out = json.loads(lines[-1])
    record = {"correct": out["correct"], "attempted": out["attempted"],
              "failed": out["failed"],
              "metrics": {k: m["value"] for k, m in out["metrics"].items()}}
    for line in lines:
        for prefix, key in DIGESTS.items():
            if line.startswith(prefix):
                record[key] = line[len(prefix):]
    if traced:
        record["traced"] = traced_counts(workload, seed)
    return record, {k: m["unit"] for k, m in out["metrics"].items()}


def summary(values: list[float]) -> dict:
    """Median, quartiles and interquartile range of one metric over seeds."""
    if len(values) < 2:
        q1 = q3 = values[0]
    else:
        q1, _q2, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "iqr": q3 - q1, "n": len(values)}


def record_workload(workload: str, seeds: list[int]) -> dict:
    runs, units = {}, {}
    for seed in seeds:
        runs[seed], units = run_one(workload, seed)
        print(f"{workload} seed {seed}: {json.dumps(runs[seed]['metrics'])}",
              file=sys.stderr)
    metrics = {name: dict(summary([runs[s]["metrics"][name] for s in seeds]),
                          unit=unit)
               for name, unit in units.items()}
    return {"metrics": metrics,
            "seeds": {str(seed): run for seed, run in runs.items()}}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--pr", type=int, required=True,
                   help="number that names the output file, BENCH_<pr>.json")
    p.add_argument("--seeds", type=int, nargs="+", required=True)
    p.add_argument("--workloads", nargs="+", choices=WORKLOADS,
                   default=list(WORKLOADS))
    p.add_argument("--out", type=Path, default=None,
                   help="output path (default BENCH_<pr>.json at the root)")
    args = p.parse_args(argv)
    doc = {
        "pr": args.pr,
        "command": ["python3", *COMMAND],
        "trace_command": ["python3", *TRACE_COMMAND],
        "seeds": args.seeds,
        "host": {"machine": platform.machine(), "cpus": os.cpu_count(),
                 "python": platform.python_version()},
        "workloads": {w: record_workload(w, args.seeds)
                      for w in args.workloads},
    }
    out = args.out or ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
