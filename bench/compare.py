"""Compare two benchmark result files: the parent (A) and a change (B).

    python3 bench/compare.py A.json B.json

Both files come from ``bench/run.py --out``, made with the same benchmark
code and settings, with the parent and the change run alternately so the
i-th run of A and the i-th run of B of a workload form a pair.  Only
untraced runs count.  For every workload x end-to-end metric the verdict
is:

- ``improved``: at least ``MIN_PAIRS`` (10) pairs, B wins at least 90% of
  all pairs (ties count for neither), and the medians differ in B's
  favour by more than A's interquartile range;
- ``worse``: B's median is worse than A's by more than the metric's
  bound (a share of A's median, from BENCHMARK.json);
- ``unresolved``: A's own spread (IQR / median) exceeds the bound and
  not every run of B beats every run of A;
- ``unchanged``: otherwise.

A workload whose B runs fail more checks than A's is reported ``worse``
on the ``failed`` row.  Exit status 1 when any row is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any

from stats import quartiles

ROOT = Path(__file__).resolve().parent.parent
#: Fewest parent/change pairs on which a gain may be claimed.
MIN_PAIRS = 10


def verdict(a: list[float], b: list[float], better: str, bound: float) -> dict[str, Any]:
    """The verdict row for one metric (see module docstring)."""
    sign = 1.0 if better == "lower" else -1.0  # sign * (x - y) > 0: x is worse
    a_q1, a_med, a_q3 = quartiles(a)
    b_q1, b_med, b_q3 = quartiles(b)
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if sign * (x - y) > 0)
    win_fraction = wins / len(pairs) if pairs else 0.0
    worse_share = sign * (b_med - a_med) / a_med
    spread = (a_q3 - a_q1) / a_med
    every_b_better = all(sign * (x - y) > 0 for x in a for y in b)
    if (
        len(pairs) >= MIN_PAIRS
        and win_fraction >= 0.9
        and worse_share < 0
        and abs(b_med - a_med) > a_q3 - a_q1
    ):
        result = "improved"
    elif worse_share > bound:
        result = "worse"
    elif spread > bound and not every_b_better:
        result = "unresolved"
    else:
        result = "unchanged"
    return {
        "a": (a_q1, a_med, a_q3),
        "b": (b_q1, b_med, b_q3),
        "pairs": len(pairs),
        "win_fraction": win_fraction,
        "change": -worse_share,
        "spread": spread,
        "verdict": result,
    }


def compare(a_runs: list[dict], b_runs: list[dict], spec: dict[str, Any]) -> list[dict[str, Any]]:
    """One row per workload x end-to-end metric, plus a ``failed`` row."""
    rows = []
    workloads = sorted({r["workload"] for r in a_runs} & {r["workload"] for r in b_runs})
    for workload in workloads:
        a = [r for r in a_runs if r["workload"] == workload and not r["trace"]]
        b = [r for r in b_runs if r["workload"] == workload and not r["trace"]]
        if not a or not b:
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            # A run that raised reports only the metrics it reached; the
            # ``failed`` row below accounts for it.
            a_values = [r["e2e"][name] for r in a if name in r["e2e"]]
            b_values = [r["e2e"][name] for r in b if name in r["e2e"]]
            if a_values and b_values:
                row = verdict(a_values, b_values, metric["better"], metric["bound"])
                rows.append({"workload": workload, "metric": name, **row})
        a_failed = sum(r["failed"] for r in a)
        b_failed = sum(r["failed"] for r in b)
        rows.append(
            {
                "workload": workload,
                "metric": "failed",
                "a": (a_failed,) * 3,
                "b": (b_failed,) * 3,
                "pairs": min(len(a), len(b)),
                "win_fraction": 0.0,
                "change": 0.0,
                "spread": 0.0,
                "verdict": "worse" if b_failed > a_failed else "unchanged",
            }
        )
    return rows


def main(argv: list[str] | None = None) -> int:
    """Print the verdict table; exit 1 when any row is worse."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", type=Path, help="parent results (bench/run.py --out)")
    parser.add_argument("b", type=Path, help="change results")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    a_runs = json.loads(args.a.read_text())["runs"]
    b_runs = json.loads(args.b.read_text())["runs"]
    rows = compare(a_runs, b_runs, spec)
    print(
        f"{'workload':<14} {'metric':<12} {'A q1/med/q3':>32} {'B q1/med/q3':>32} "
        f"{'pairs':>5} {'wins':>5} {'change':>7} {'A spread':>8}  verdict"
    )
    for row in rows:
        a = "/".join(f"{v:.4g}" for v in row["a"])
        b = "/".join(f"{v:.4g}" for v in row["b"])
        print(
            f"{row['workload']:<14} {row['metric']:<12} {a:>32} {b:>32} {row['pairs']:>5} "
            f"{row['win_fraction']:>5.2f} {row['change']:>+7.1%} {row['spread']:>8.1%}  "
            f"{row['verdict']}"
        )
    short = [r for r in rows if r["metric"] != "failed" and r["pairs"] < MIN_PAIRS]
    if short:
        print(f"note: fewer than {MIN_PAIRS} pairs on some rows; no gain can be claimed")
    return 1 if any(r["verdict"] == "worse" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
