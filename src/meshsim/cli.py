"""Command line front end: run, sweep, validate.

Exit codes: 0 success, 1 usage error or scenario validation/parse error,
2 runtime error.
"""

from __future__ import annotations

import argparse
import os
import sys

from .errors import IoError, MeshSimError, ParseError, ValidationError
from .harness import export, single_run_result, sweep
from .scenario import load_scenario


def _parse_range(text: str) -> list[int]:
    """Accept 'A..B', 'A..B..STEP', or comma-separated values.

    Raises ValidationError for any other text, a STEP below 1, or a range
    that selects no value.
    """
    parts = text.split("..")
    values = []
    try:
        if len(parts) == 1:
            values = [int(x) for x in text.split(",")]
        elif len(parts) <= 3:
            step = int(parts[2]) if len(parts) == 3 else 1
            if step >= 1:
                values = list(range(int(parts[0]), int(parts[1]) + 1, step))
    except ValueError:
        pass                               # not an integer: reported below
    if not values:
        raise ValidationError(f"range {text!r}: expected A..B, A..B..STEP with "
                              "STEP >= 1, or comma-separated integers, "
                              "selecting at least one value")
    return values


class _Parser(argparse.ArgumentParser):
    """ArgumentParser whose usage errors exit 1, like a bad scenario."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="meshsim", description="Mesh network experiment runner")
    sub = p.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one scenario across seeds")
    run.add_argument("scenario")
    seeds = run.add_mutually_exclusive_group()
    seeds.add_argument("--seed", type=int, default=None)
    seeds.add_argument("--seeds", type=str, default=None,
                       help="seed range, e.g. 1..10")
    run.add_argument("--out", default=".")
    run.add_argument("--format", choices=["csv", "json"], default="csv")

    sw = sub.add_parser("sweep", help="sweep call count x background load")
    sw.add_argument("scenario")
    sw.add_argument("--calls", required=True, help="e.g. 1..20..5 or 1,5,20")
    sw.add_argument("--bg", required=True, help="e.g. 2..20..6")
    sw.add_argument("--seeds", type=int, default=5, help="number of seeds")
    sw.add_argument("--out", default=".")
    sw.add_argument("--format", choices=["csv", "json"], default="csv")

    val = sub.add_parser("validate", help="check a scenario file")
    val.add_argument("scenario")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        scenario = load_scenario(args.scenario)
        if args.command == "run":
            if args.seed is not None:
                seeds = [args.seed]
            elif args.seeds is not None:
                seeds = _parse_range(args.seeds)
            else:
                seeds = scenario.seeds
        elif args.command == "sweep":
            if args.seeds < 1:
                raise ValidationError(f"--seeds must be >= 1, got {args.seeds}")
            seeds = list(range(1, args.seeds + 1))
            calls, bg = _parse_range(args.calls), _parse_range(args.bg)
    except (ParseError, ValidationError) as e:
        print(f"scenario error: {e}", file=sys.stderr)
        return 1

    if args.command == "validate":
        print(f"{args.scenario}: ok "
              f"({len(scenario.topology.nodes)} nodes, "
              f"{len(scenario.topology.links)} links, "
              f"{len(scenario.clients)} clients)")
        return 0

    try:
        stem = os.path.splitext(os.path.basename(args.scenario))[0]
        out_path = os.path.join(args.out, f"{stem}.{args.format}")
        try:
            os.makedirs(args.out, exist_ok=True)
        except OSError as e:
            raise IoError(f"{args.out}: {e}")
        if args.command == "run":
            result = single_run_result(scenario, seeds)
        else:
            result = sweep(scenario, calls, bg, seeds)
        for written in export(result, args.format, out_path):
            print(written)
        return 0
    except MeshSimError as e:
        print(f"runtime error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
