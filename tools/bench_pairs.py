"""Compare two checkouts on the benchmark in interleaved pairs of runs.

Usage, from the repository root:

    python3 tools/bench_pairs.py --before ../parent --after . \\
        --workload voice-dense --seeds 2401 2402 2403 2404 2405 2406

For each seed, one pair: both checkouts run the timed command of
tools/bench_record.py,

    python3 perfbench/run.py --workload W --seed S --seconds 40 --trace 0

one after the other, each in its own directory. The side that runs first
alternates from pair to pair, starting with before. Then, for every metric
that run.py reports, it prints each side's median and quartiles, the change
of the medians, the before runs' interquartile range and the after side's
wins: the pairs in which after is better by the direction that
BENCHMARK.json gives (lower, if the metric is not listed there). A tie is no
win for either side. A pair is flagged when the two export sha256 or the two
replica-count sha256 lines differ, or when either run is not correct.

It uses the standard library alone and reads perfbench/ only by running it.
Runs go one at a time, so no two compete for the host.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from bench_record import DIGESTS, run_one, summary


def directions(root: Path) -> dict[str, str]:
    """metric name -> "lower" or "higher", from BENCHMARK.json if there."""
    try:
        bench = json.loads((root / "BENCHMARK.json").read_text())
    except (OSError, ValueError):
        return {}
    return {m["name"]: m["better"] for m in bench.get("end_to_end", [])}


def flags(before: dict, after: dict) -> list[str]:
    out = [f"{side} run not correct" for side, r in
           (("before", before), ("after", after)) if r["correct"] is not True]
    out += [f"{key} differs" for key in DIGESTS.values()
            if before.get(key) != after.get(key)]
    return out


def report(pairs: list[tuple[dict, dict]], better: dict[str, str]) -> None:
    print(f"{'metric':<14} {'before median [q1, q3]':>30} "
          f"{'after median [q1, q3]':>30} {'change':>8} {'before IQR':>11} "
          f"{'after wins':>11}")
    for name in pairs[0][0]["metrics"]:
        before = [b["metrics"][name] for b, _a in pairs]
        after = [a["metrics"][name] for _b, a in pairs]
        b_sum, a_sum = summary(before), summary(after)
        b_cell, a_cell = ("{median:.4g} [{q1:.4g}, {q3:.4g}]".format(**s)
                          for s in (b_sum, a_sum))
        sign = -1 if better.get(name, "lower") == "lower" else 1
        wins = sum(sign * (a - b) > 0 for b, a in zip(before, after))
        bm, am = b_sum["median"], a_sum["median"]
        change = f"{(am - bm) / bm:+.1%}" if bm else "n/a"
        print(f"{name:<14} {b_cell:>30} {a_cell:>30} {change:>8} "
              f"{b_sum['iqr']:>11.4g} {f'{wins} of {len(pairs)}':>11}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--before", type=Path, required=True,
                   help="checkout of the parent commit")
    p.add_argument("--after", type=Path, required=True,
                   help="checkout of the change")
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=int, nargs="+", required=True,
                   help="one pair per seed")
    args = p.parse_args(argv)
    sides = {"before": args.before.resolve(), "after": args.after.resolve()}
    pairs, flagged = [], 0
    for i, seed in enumerate(args.seeds):
        order = ["before", "after"] if i % 2 == 0 else ["after", "before"]
        runs = {side: run_one(args.workload, seed, sides[side], traced=False)[0]
                for side in order}
        pairs.append((runs["before"], runs["after"]))
        problems = flags(runs["before"], runs["after"])
        flagged += bool(problems)
        walls = "  ".join(f"{side} {runs[side]['metrics']['wall_s']:.3f}"
                          for side in ("before", "after"))
        print(f"seed {seed}, {order[0]} first: wall_s {walls}"
              + "".join(f"  FLAG {f}" for f in problems), flush=True)
    print(f"workload {args.workload}, {len(pairs)} pairs, seeds "
          f"{args.seeds[0]}-{args.seeds[-1]}:")
    report(pairs, directions(sides["after"]))
    print(f"flagged pairs: {flagged} of {len(pairs)}")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
