"""Harness tests for the benchmark: ``pytest bench -q`` (smoke sizes, < 60 s)."""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import compare
import hostspeed
import run
import spans
import workloads

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _run_all(*extra: str) -> dict:
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--smoke", "--seconds", "0.5", *extra],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_benchmark_json_is_well_formed():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert NAME.match(metric["name"]) and UNIT.match(metric["unit"])
        assert metric["better"] in ("higher", "lower")
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert len(SPEC["per_layer"]) <= 128


def test_untraced_run_emits_every_end_to_end_metric():
    line = _run_all()
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    for workload in run.WORKLOADS:
        for metric in SPEC["end_to_end"]:
            got = line["metrics"][f"{workload}.{metric['name']}"]
            assert got["unit"] == metric["unit"]
            assert got["value"] > 0


def test_traced_run_emits_every_per_layer_metric():
    line = _run_all("--trace")
    assert line["correct"], line
    expected = {f"{w}.{m['name']}" for w in run.WORKLOADS for m in SPEC["per_layer"]}
    assert set(line["metrics"]) == expected


@pytest.fixture()
def repro_in_process(monkeypatch):
    for key, value in run.child_env().items():
        if key != "PYTHONPATH":
            monkeypatch.setenv(key, value)
    workloads.import_repro()


def test_wrappers_are_removed_after_every_run(repro_in_process):
    before = spans.originals()
    plain = workloads.run_workload("serve_stream", 3, 0.2, trace=False, profile="smoke")
    assert all(spans.originals()[key] is value for key, value in before.items())
    traced = workloads.run_workload("serve_stream", 3, 0.2, trace=True, profile="smoke")
    assert all(spans.originals()[key] is value for key, value in before.items())
    assert plain["failed"] == traced["failed"] == 0
    assert traced["report"]["self_s"]["serve.pipeline.apply"] > 0


def test_a_raising_operation_counts_as_failed(monkeypatch):
    def broken(state):
        calls = []

        def op(_lap):
            calls.append(None)
            if len(calls) == 2:
                raise RuntimeError("lost reply")
            return {}

        workloads.closed_loop(state, op)

    monkeypatch.setitem(workloads.RUNNERS, "chaos_1000", broken)
    record = workloads.run_workload("chaos_1000", 3, 5.0, trace=False, profile="smoke")
    assert record["failed"] == record["attempted"] == 1
    assert record["failures"] == ["RuntimeError: lost reply"]
    line = run.result_line([record], SPEC, trace=False)
    assert line["correct"] is False and line["failed"] == 1
    assert set(line["metrics"]) == {"peak_rss_mb"}


def test_samples_are_reported_at_the_reference_speed():
    speed = hostspeed.HostSpeed(0.5)
    assert speed.mark() == 1.0  # no block of work precedes the first kernel run
    assert speed.mark() == pytest.approx((hostspeed.NOMINAL_S * 2 / sum(speed.kernel_s)) ** 0.5)
    state = workloads.Run("chaos_1000", 3, 1.0, "smoke", None)
    workloads.op_metrics(state, [(0.010, 0.020), (0.030, 0.015), (0.040, 0.040)])
    assert state.e2e["op_p50_ms"] == pytest.approx(20.0)
    assert state.report["raw_op_p50_ms"] == pytest.approx(30.0)


def test_every_stage_of_an_operation_is_scaled_by_its_own_kernel_runs(monkeypatch):
    clock = [0.0]
    monkeypatch.setattr(workloads, "now", lambda: clock[0])
    state = workloads.Run("chaos_1000", 3, 0.0, "smoke", None)
    # The mark before the loop, then one closing each of the three stages.
    scales = iter([1.0, 2.0, 0.5, 3.0])
    monkeypatch.setattr(state.speed, "mark", lambda: next(scales))

    def op(lap):
        clock[0] += 1.0
        lap()
        clock[0] += 2.0
        lap()
        clock[0] += 4.0
        return {}

    workloads.closed_loop(state, op)
    assert state.report["raw_op_p50_ms"] == pytest.approx(7_000.0)
    assert state.e2e["op_p50_ms"] == pytest.approx((1.0 * 2.0 + 2.0 * 0.5 + 4.0 * 3.0) * 1e3)


def test_seed_changes_the_inputs(repro_in_process):
    def inputs(seed):
        record = workloads.run_workload("chaos_1000", seed, 0.1, trace=False, profile="smoke")
        assert record["failed"] == 0
        return record["report"]["input_fingerprint"], record["counters"]

    first, again, other = inputs(3), inputs(3), inputs(4)
    assert first == again
    assert first[0] != other[0]


def test_bare_benchmark_directory_fails_without_a_result(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "chaos_1000", "--smoke"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


@pytest.mark.parametrize(
    "a, b, better, expected",
    [
        ([10.0 + 0.1 * i for i in range(10)], [8.0 + 0.1 * i for i in range(10)], "lower", "improved"),
        ([10.0 + 0.1 * i for i in range(10)], [10.05 + 0.1 * i for i in range(10)], "lower", "unchanged"),
        ([10.0 + 0.1 * i for i in range(10)], [13.0 + 0.1 * i for i in range(10)], "lower", "worse"),
        ([100.0 + i for i in range(10)], [70.0 + i for i in range(10)], "higher", "worse"),
        ([5.0, 15.0] * 5, [6.0, 14.0] * 5, "lower", "unresolved"),
        ([10.0 + 0.1 * i for i in range(5)], [8.0 + 0.1 * i for i in range(5)], "lower", "unchanged"),
    ],
)
def test_compare_verdicts(a, b, better, expected):
    assert compare.verdict(a, b, better, 0.2)["verdict"] == expected
