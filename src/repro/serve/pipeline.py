"""The clustering pipeline: readings → RLS models → incremental clusters.

This is the service's single-writer state machine.  Each applied reading
updates the owning node's :class:`RecursiveLeastSquares` estimator over
the AR(1) regressors ``[previous_value, 1]``; the model's first
coefficient (the node's α) is the clustering feature, exactly the
paper's setup (§7, Appendix A).  Once every node has absorbed a
bootstrap quota of updates, an initial δ-clustering is built at the
slack-tightened threshold ``delta - 2·slack`` and handed to a
:class:`MaintenanceSession`, after which every coefficient change flows
through the paper's A1-A3 incremental maintenance conditions.

Determinism contract: applying the same readings in the same order from
the same (or a restored) state yields bit-identical estimators, clusters
and message totals — the property the kill-and-resume equivalence check
certifies.  Per-node ``last_seq`` makes replayed readings idempotent, so
sources may resume with overlap.
"""

from __future__ import annotations

import hashlib
import json
import math
from typing import Any, Hashable

import numpy as np

from repro.baselines.spanning_forest import run_spanning_forest
from repro.core.maintenance import MaintenanceSession
from repro.features.metrics import EuclideanMetric, Metric
from repro.geometry.topology import Topology
from repro.models.rls import RecursiveLeastSquares
from repro.serve.context import ServeContext
from repro.serve.readings import Reading

#: Pipeline state-dict schema; bump on incompatible changes.
PIPELINE_SCHEMA = 1

#: Outcomes of :meth:`ClusteringPipeline.apply`.
APPLIED = "applied"
FIRST = "first"
SKIPPED = "skipped"


class ClusteringPipeline:
    """Single-writer clustering state fed by the broker's reading queue.

    Parameters
    ----------
    topology:
        The sensor network (placement + communication graph).
    ctx:
        Service context for metrics/trace emission.
    delta, slack:
        The paper's δ and maintenance slack Δ (``2·slack < delta``).
    bootstrap_rounds:
        RLS updates every node must absorb before the initial clustering
        is built (early coefficients are dominated by the prior).
    coverage_rounds:
        A node counts as *covered* while its last applied reading is at
        most this many rounds behind the stream head; the fraction of
        covered nodes is the ``serve.coverage`` gauge, which the service's
        watch loop sets (:meth:`apply` does not scan for it).
    metric:
        Feature-space metric (Euclidean over the 1-d α feature by default).
    """

    def __init__(
        self,
        topology: Topology,
        ctx: ServeContext,
        *,
        delta: float,
        slack: float,
        bootstrap_rounds: int = 12,
        coverage_rounds: int = 4,
        metric: Metric | None = None,
    ):
        if bootstrap_rounds < 1:
            raise ValueError(f"bootstrap_rounds must be >= 1, got {bootstrap_rounds}")
        self.topology = topology
        self.graph = topology.graph
        self.ctx = ctx
        self.delta = float(delta)
        self.slack = float(slack)
        self.bootstrap_rounds = bootstrap_rounds
        self.coverage_rounds = coverage_rounds
        self.metric = metric if metric is not None else EuclideanMetric()
        self.nodes = list(self.graph.nodes)
        self.n = len(self.nodes)

        self.estimators: dict[Hashable, RecursiveLeastSquares] = {
            node: RecursiveLeastSquares(order=2) for node in self.nodes
        }
        self.last_value: dict[Hashable, float] = {}
        self.last_seq: dict[Hashable, int] = {}
        self.applied_total = 0
        self.applied_seq = -1
        self.session: MaintenanceSession | None = None
        self.version = 0  # maintenance updates absorbed since clustering
        self.last_apply_wall = ctx.now()
        self._ready_nodes = 0  # nodes past the bootstrap quota

    # ------------------------------------------------------------------
    # ingest path
    # ------------------------------------------------------------------
    def apply(self, reading: Reading) -> str:
        """Absorb one reading; returns ``applied``/``first``/``skipped``.

        Re-delivered readings (``seq`` at or below the node's last
        applied position) are skipped, which makes resume-with-overlap
        idempotent.
        """
        node = reading.node
        if node not in self.estimators or reading.seq <= self.last_seq.get(node, -1):
            self.ctx.metrics.counter("serve.skipped_total").inc()
            return SKIPPED
        prev = self.last_value.get(node)
        self.last_value[node] = float(reading.value)
        self.last_seq[node] = reading.seq
        self.applied_seq = max(self.applied_seq, reading.seq)
        self.applied_total += 1
        self.last_apply_wall = self.ctx.now()
        self.ctx.metrics.counter("serve.applied_total").inc()
        self.ctx.metrics.gauge("serve.applied_seq").set(float(self.applied_seq))
        if prev is None:
            return FIRST
        estimator = self.estimators[node]
        estimator.update(np.array([prev, 1.0]), float(reading.value))
        if estimator.updates == self.bootstrap_rounds:
            self._ready_nodes += 1
        feature = np.array([float(estimator.coefficients[0])])
        if self.session is not None:
            self.session.update_feature(node, feature)
            self.version += 1
            self.ctx.metrics.counter("serve.maintenance_updates").inc()
        elif self._ready_nodes == self.n:
            self._build_initial_clustering()
        return APPLIED

    def _build_initial_clustering(self) -> None:
        features = {
            node: np.array([float(est.coefficients[0])])
            for node, est in self.estimators.items()
        }
        threshold = self.delta - 2 * self.slack
        result = run_spanning_forest(self.topology, features, self.metric, threshold)
        self.session = MaintenanceSession(
            self.graph, result.clustering, features, self.metric, self.delta, self.slack
        )
        self.ctx.metrics.gauge("serve.clusters").set(float(self.session.num_clusters))
        self.ctx.emit(
            "serve.clustered",
            clusters=self.session.num_clusters,
            applied=self.applied_total,
            seq=self.applied_seq,
        )

    # ------------------------------------------------------------------
    # gauges
    # ------------------------------------------------------------------
    def coverage(self) -> float:
        """Fraction of nodes updated within the coverage window.

        1.0 until the stream has advanced a full window (nothing can be
        stale yet); afterwards a node counts only if its last applied
        reading is within ``coverage_rounds`` rounds of the stream head.
        """
        window = self.coverage_rounds * self.n
        horizon = self.applied_seq - window
        if horizon < 0:
            return 1.0
        covered = sum(1 for node in self.nodes if self.last_seq.get(node, -1) > horizon)
        return covered / self.n

    def staleness(self) -> float:
        """Seconds of service time since the last applied reading."""
        return self.ctx.now() - self.last_apply_wall

    @property
    def num_clusters(self) -> int:
        """Clusters in the current state (0 before bootstrap completes)."""
        return self.session.num_clusters if self.session is not None else 0

    # ------------------------------------------------------------------
    # checkpoint state
    # ------------------------------------------------------------------
    def state_dict(self) -> dict[str, Any]:
        """Complete pipeline state for checkpointing (see module contract)."""
        return {
            "schema": PIPELINE_SCHEMA,
            "n": self.n,
            "delta": self.delta,
            "slack": self.slack,
            "bootstrap_rounds": self.bootstrap_rounds,
            "estimators": {node: est.state_dict() for node, est in self.estimators.items()},
            "last_value": dict(self.last_value),
            "last_seq": dict(self.last_seq),
            "applied_total": self.applied_total,
            "applied_seq": self.applied_seq,
            "version": self.version,
            "session": None if self.session is None else self.session.state_dict(),
        }

    def restore_state(self, state: dict[str, Any]) -> None:
        """Restore a :meth:`state_dict` snapshot onto this pipeline."""
        if state.get("schema") != PIPELINE_SCHEMA:
            raise ValueError(f"unsupported pipeline state schema {state.get('schema')!r}")
        if state["n"] != self.n:
            raise ValueError(f"checkpoint is for n={state['n']}, service has n={self.n}")
        self.estimators = {
            node: RecursiveLeastSquares.from_state(s) for node, s in state["estimators"].items()
        }
        self.last_value = dict(state["last_value"])
        self.last_seq = dict(state["last_seq"])
        self.applied_total = int(state["applied_total"])
        self.applied_seq = int(state["applied_seq"])
        self.version = int(state["version"])
        self._ready_nodes = sum(
            1 for est in self.estimators.values() if est.updates >= self.bootstrap_rounds
        )
        if state["session"] is not None:
            self.session = MaintenanceSession.from_state(self.graph, self.metric, state["session"])
            self.ctx.metrics.gauge("serve.clusters").set(float(self.session.num_clusters))
        else:
            self.session = None
        self.ctx.metrics.gauge("serve.applied_seq").set(float(self.applied_seq))

    # ------------------------------------------------------------------
    # equivalence snapshot
    # ------------------------------------------------------------------
    def snapshot(self) -> dict[str, Any]:
        """Canonical end-state snapshot with a content digest.

        The ``state`` section contains exactly the quantities that must
        match between an uninterrupted run and a kill-and-resume run on
        the same deterministic source; ``digest`` is the SHA-256 of its
        canonical JSON form.  Robustness counters (sheds, restarts) live
        in ``info`` and are excluded from the digest — they legitimately
        differ between the two runs.
        """
        coeffs = {
            str(node): [float(c) for c in est.coefficients]
            for node, est in self.estimators.items()
        }
        state: dict[str, Any] = {
            "applied_total": self.applied_total,
            "applied_seq": self.applied_seq,
            "last_seq": {str(node): seq for node, seq in self.last_seq.items()},
            "coefficients": coeffs,
        }
        if self.session is not None:
            state["assignment"] = {
                str(node): str(root) for node, root in self.session.assignment.items()
            }
            state["root_features"] = {
                str(root): [float(v) for v in f]
                for root, f in self.session.root_features.items()
            }
            state["maintenance_values"] = self.session.stats.total_values
        canonical = json.dumps(state, sort_keys=True, separators=(",", ":"))
        digest = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
        return {
            "schema": PIPELINE_SCHEMA,
            "digest": digest,
            "state": state,
            "info": {
                "n": self.n,
                "delta": self.delta,
                "slack": self.slack,
                "clusters": self.num_clusters,
                "coverage": round(self.coverage(), 6),
            },
        }


def snapshots_equal(a: dict[str, Any], b: dict[str, Any]) -> bool:
    """True when two :meth:`ClusteringPipeline.snapshot` dicts certify the same state."""
    return bool(a.get("digest")) and a.get("digest") == b.get("digest")


def finite_value(value: Any) -> bool:
    """True when *value* is a real, finite measurement."""
    return isinstance(value, (int, float)) and math.isfinite(value)
