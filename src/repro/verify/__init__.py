"""repro.verify — the correctness oracle for the ELink reproduction.

Three pillars, built on the PR 3 observability layer:

1. **Runtime invariant monitors** (:mod:`repro.verify.invariants`) —
   online checkers subscribed to the trace stream: clock monotonicity,
   timer ownership across crashes, ack conservation in the explicit
   phase, repair/crash causality, message-stats counter conservation,
   and δ-legality of the assembled clustering.
2. **Determinism replay differ** (:mod:`repro.verify.replay`) — run a
   seed-fixed chaos scenario twice and byte-diff the traces; exposed as
   ``python -m repro verify --replay``.
3. **Property-based fuzzing** (:mod:`repro.verify.fuzz`) — Hypothesis
   sweeps of random topologies, δ values, and fault plans, each executed
   fully verified.

``run_elink`` consults :func:`repro.verify.runtime.runtime_verifier` on
every run: with the ``REPRO_VERIFY`` environment variable unset (or
``off``) it returns None and the run is byte-identical to an unverified
build; ``cheap`` adds end-of-run accounting and clustering checks;
``full`` also arms the online monitors.
"""

from repro.verify.harness import ScenarioSpec, build_scenario, run_scenario
from repro.verify.invariants import (
    AckConservationMonitor,
    InvariantError,
    InvariantMonitor,
    InvariantViolation,
    MonitorSuite,
    MonotoneTimeMonitor,
    RepairCausalityMonitor,
    TimerOwnershipMonitor,
    check_stats_conservation,
    default_monitors,
)
from repro.verify.replay import (
    ReplayReport,
    TraceDivergence,
    diff_traces,
    replay_check,
)
from repro.verify.serve_check import SnapshotDiff, diff_snapshot_files, diff_snapshots
from repro.verify.runtime import (
    LEVELS,
    VERIFY_ENV,
    RunVerifier,
    runtime_verifier,
    set_verification_level,
    verification,
    verification_level,
)

__all__ = [
    "AckConservationMonitor",
    "InvariantError",
    "InvariantMonitor",
    "InvariantViolation",
    "LEVELS",
    "MonitorSuite",
    "MonotoneTimeMonitor",
    "RepairCausalityMonitor",
    "ReplayReport",
    "RunVerifier",
    "ScenarioSpec",
    "SnapshotDiff",
    "TimerOwnershipMonitor",
    "TraceDivergence",
    "VERIFY_ENV",
    "build_scenario",
    "check_stats_conservation",
    "default_monitors",
    "diff_snapshot_files",
    "diff_snapshots",
    "diff_traces",
    "replay_check",
    "run_scenario",
    "runtime_verifier",
    "set_verification_level",
    "verification",
    "verification_level",
]
