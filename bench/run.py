"""Run the repository benchmark: one command, every metric, checked outputs.

    python3 bench/run.py [--workload W ...] [--seed S] [--seconds T]
                         [--trace [0|1]] [--sets N] [--out PATH] [--smoke]

Each workload runs in its own fresh single-threaded process, one after
another.  The process imports ``repro`` from this checkout's ``src/`` with
a pinned environment: ``REPRO_ENGINE=array``, ``REPRO_VERIFY=off``, one
BLAS/OpenMP thread, and no ``REPRO_CACHE`` (generation is measured, not
served from the artifact cache).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  An untraced run
reports the end-to-end metrics of ``BENCHMARK.json``; ``--trace 1``
reports its per-layer metrics instead.  With several workloads the metric
names are prefixed ``<workload>.``.  ``--out`` appends every run record
to a JSON file and recomputes its summary (per-metric median and spread,
tracing overhead); ``bench/compare.py`` compares two such files.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any

from stats import spread
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
#: A single workload run must finish well inside the 180 s budget.
CHILD_TIMEOUT_S = 170


def load_spec() -> dict[str, Any]:
    """The benchmark declaration at the checkout root."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def child_env() -> dict[str, str]:
    """The pinned environment every workload process runs under."""
    env = dict(os.environ)
    env.pop("REPRO_CACHE", None)
    env.update(
        {
            "REPRO_ENGINE": "array",
            "REPRO_VERIFY": "off",
            "OPENBLAS_NUM_THREADS": "1",
            "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1",
            "PYTHONHASHSEED": "0",
            "PYTHONPATH": str(ROOT / "src"),
        }
    )
    return env


def run_child(
    workload: str, seed: int, seconds: float, trace: bool, smoke: bool
) -> dict[str, Any]:
    """Run one workload process to completion and return its record."""
    trace_out = BENCH / "out" / f"trace-{workload}-seed{seed}.json"
    command = [
        sys.executable,
        str(BENCH / "workloads.py"),
        workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(int(trace)),
        "--trace-out", str(trace_out),
    ]
    if smoke:
        command.append("--smoke")
    done = subprocess.run(
        command,
        cwd=ROOT,
        env=child_env(),
        stdout=subprocess.PIPE,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"workload {workload} exited {done.returncode}")
    return json.loads(lines[-1])


def result_line(records: list[dict[str, Any]], spec: dict[str, Any], trace: bool) -> dict:
    """The result line (last line of output) over *records*.

    Names are prefixed ``<workload>.`` when several workloads ran; a
    workload run in several sets reports each metric's median.  A metric
    no run reached (the workload raised first) is left out; such a run
    counts as failed.
    """
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    names = list(dict.fromkeys(r["workload"] for r in records))
    metrics = {}
    for workload in names:
        mine = [r["layers"] if trace else r["e2e"] for r in records if r["workload"] == workload]
        for entry in declared:
            key = f"{workload}.{entry['name']}" if len(names) > 1 else entry["name"]
            reached = [values[entry["name"]] for values in mine if entry["name"] in values]
            if reached:
                metrics[key] = {"value": statistics.median(reached), "unit": entry["unit"]}
    failed = sum(r["failed"] for r in records)
    return {
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in records),
        "failed": failed,
        "metrics": metrics,
    }


def describe(record: dict[str, Any], spec: dict[str, Any]) -> list[str]:
    """Human-readable lines for one run record."""
    kind = "traced" if record["trace"] else "untraced"
    lines = [
        f"== {record['workload']} seed={record['seed']} {kind} "
        f"wall={record['wall_s']:.2f}s checks={record['attempted']} failed={record['failed']}"
    ]
    lines += [f"   FAILED: {what}" for what in record["failures"]]
    declared = spec["per_layer"] if record["trace"] else spec["end_to_end"]
    values = record["layers"] if record["trace"] else record["e2e"]
    for entry in declared:
        value = values.get(entry["name"])
        if value is None or (record["trace"] and not value):
            continue
        lines.append(f"   {entry['name']:<44} {value:>14.6g} {entry['unit']}")
    for key, value in sorted(record["report"].items()):
        if isinstance(value, float):
            lines.append(f"   ({key:<42} {value:>14.6g})")
    for name, seconds in record["report"].get("self_s", {}).items():
        lines.append(f"   self {name:<39} {seconds:>14.6g} s")
    return lines


def summarize(runs: list[dict[str, Any]], spec: dict[str, Any]) -> dict[str, Any]:
    """Per workload: each end-to-end metric's median and spread, and the
    tracing overhead (median traced op_p50_ms minus the untraced one)."""
    summary: dict[str, Any] = {}
    for workload in sorted({r["workload"] for r in runs}):
        plain = [r for r in runs if r["workload"] == workload and not r["trace"]]
        traced = [r for r in runs if r["workload"] == workload and r["trace"]]
        entry: dict[str, Any] = {"untraced_runs": len(plain), "traced_runs": len(traced)}
        for metric in spec["end_to_end"]:
            values = [r["e2e"][metric["name"]] for r in plain if metric["name"] in r["e2e"]]
            if not values:
                continue
            entry[metric["name"]] = {
                "median": statistics.median(values),
                "spread": spread(values) if len(values) >= 2 else None,
                "bound": metric["bound"],
                "n": len(values),
            }
        # Runs last --seconds either way, so the overhead shows in the time
        # per operation, not in the wall time.
        plain_op = [r["e2e"]["op_p50_ms"] for r in plain if "op_p50_ms" in r["e2e"]]
        traced_op = [r["e2e"]["op_p50_ms"] for r in traced if "op_p50_ms" in r["e2e"]]
        if plain_op and traced_op:
            base = statistics.median(plain_op)
            entry["trace_overhead_op_ms"] = statistics.median(traced_op) - base
            entry["trace_overhead_share"] = entry["trace_overhead_op_ms"] / base
        summary[workload] = entry
    return summary


def append_out(path: Path, records: list[dict[str, Any]], spec: dict[str, Any]) -> None:
    """Append *records* to the --out file and refresh its summary."""
    if path.exists():
        payload = json.loads(path.read_text())
    else:
        sys.path.insert(0, str(ROOT / "src"))
        from repro.perf.meta import environment_metadata

        payload = {"environment": environment_metadata(), "runs": []}
    payload["environment"].update(
        {"nproc": os.cpu_count(), "loadavg": list(os.getloadavg())}
    )
    payload["runs"].extend(records)
    payload["summary"] = summarize(payload["runs"], spec)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")


def main(argv: list[str] | None = None) -> int:
    """Command-line entry point (see module docstring)."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--sets", type=int, default=1, help="repeat every workload N times")
    parser.add_argument("--out", type=Path, default=None)
    parser.add_argument("--smoke", action="store_true", help="small inputs (harness tests)")
    args = parser.parse_args(argv)
    if args.sets < 1:
        parser.error("--sets must be >= 1")
    spec = load_spec()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    workloads = args.workload or list(WORKLOADS)
    records = []
    try:
        for _ in range(args.sets):
            for workload in workloads:
                record = run_child(workload, args.seed, seconds, bool(args.trace), args.smoke)
                print("\n".join(describe(record, spec)), flush=True)
                records.append(record)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    if args.out is not None:
        append_out(args.out, records, spec)
    line = result_line(records, spec, bool(args.trace))
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
