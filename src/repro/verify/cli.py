"""``python -m repro verify`` — run the correctness oracle from the shell.

Three modes:

- default: one fully-verified scenario over the shared chaos harness
  (:mod:`repro.verify.harness`) — online invariant monitors, stats
  conservation, and δ-legality of the surviving clustering; any
  violation is printed and exits 1.
- ``--replay``: the determinism differ — the scenario runs twice at the
  same seed and the two traces are compared byte-for-byte; the first
  divergent event (if any) is printed and exits 1.
- ``--serve-diff A B``: the serving-layer equivalence check — compare
  two ``repro serve --snapshot-out`` files (typically a kill-and-resume
  run against an uninterrupted one) and exit 1 with the first divergent
  state entries if their digests differ.

In the first two modes ``--topology`` picks the scenario family (grid or
random geometric).  ``--n`` is a target node count; the harness uses the
nearest square number of nodes.
Examples::

    python -m repro verify --n 49 --crash 0.1 --seed 3
    python -m repro verify --replay --n 49 --crash 0.08 --seed 11
    python -m repro verify --replay --topology geometric --n 36 --crash 0.05
    python -m repro verify --serve-diff resumed.json uninterrupted.json
"""

from __future__ import annotations

import argparse
import math

from repro.verify.harness import ScenarioSpec, run_scenario
from repro.verify.invariants import InvariantError
from repro.verify.replay import replay_check
from repro.verify.serve_check import diff_snapshot_files


def _build_parser() -> argparse.ArgumentParser:
    """The ``repro verify`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro verify",
        description="Run the repro.verify correctness oracle on a chaos scenario.",
    )
    parser.add_argument(
        "--replay",
        action="store_true",
        help="determinism mode: run the scenario twice and diff the traces",
    )
    parser.add_argument(
        "--topology",
        choices=("grid", "geometric"),
        default="grid",
        help="scenario topology family (default grid)",
    )
    parser.add_argument(
        "--serve-diff",
        nargs=2,
        metavar=("A", "B"),
        default=None,
        help="compare two 'repro serve --snapshot-out' files for state equivalence",
    )
    parser.add_argument(
        "--n", type=int, default=49, help="target node count (nearest square grid; default 49)"
    )
    parser.add_argument("--seed", type=int, default=0, help="fault-plan seed (default 0)")
    parser.add_argument("--delta", type=float, default=1.0, help="clustering threshold (default 1.0)")
    parser.add_argument(
        "--crash", type=float, default=0.1, help="crash fraction in [0, 1] (default 0.1)"
    )
    parser.add_argument(
        "--churn", type=int, default=0, help="link-flap events during the run (default 0)"
    )
    return parser


def _spec_from_args(args: argparse.Namespace) -> ScenarioSpec:
    """Translate parsed CLI arguments into a :class:`ScenarioSpec`."""
    side = max(2, int(round(math.sqrt(args.n))))
    return ScenarioSpec(
        side=side,
        seed=args.seed,
        delta=args.delta,
        crash_fraction=args.crash,
        churn_events=args.churn,
        topology=args.topology,
    )


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns the process exit code (0 clean, 1 violation)."""
    args = _build_parser().parse_args(argv)
    if args.serve_diff is not None:
        try:
            diff = diff_snapshot_files(args.serve_diff[0], args.serve_diff[1])
        except (OSError, ValueError) as error:
            print(f"verify --serve-diff FAILED to load snapshots: {error}")
            return 1
        print(f"verify --serve-diff {args.serve_diff[0]} {args.serve_diff[1]}")
        print(f"  {diff}")
        return 0 if diff.equivalent else 1
    spec = _spec_from_args(args)
    label = (
        f"{spec.side * spec.side} nodes, {spec.topology}, delta={spec.delta:g}, "
        f"crash={spec.crash_fraction:g}, churn={spec.churn_events}, "
        f"seed={spec.seed}"
    )
    if args.replay:
        report = replay_check(spec)
        print(f"verify --replay [{label}]")
        print(f"  {report}")
        return 0 if report.identical else 1
    print(f"verify [{label}]")
    try:
        result = run_scenario(spec, level="full")
    except InvariantError as error:
        print(f"  FAILED: {error}")
        return 1
    print(
        f"  OK: {result.num_clusters} clusters, "
        f"{result.total_messages} messages, no invariant violations"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
