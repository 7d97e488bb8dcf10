"""Tests for the repro.verify correctness oracle.

Covers the invariant monitors (with synthetic violating streams — the
real protocol should never produce one, so violations are manufactured),
the stats-conservation check, the run-level verification policy, the
trace differ, and the replay determinism harness.
"""

import networkx as nx
import pytest

from repro.obs.trace import TraceEvent, Tracer
from repro.sim import Network
from repro.sim.messages import Message
from repro.sim.stats import MessageStats
from repro.verify import (
    AckConservationMonitor,
    InvariantError,
    MonitorSuite,
    MonotoneTimeMonitor,
    RepairCausalityMonitor,
    ScenarioSpec,
    TimerOwnershipMonitor,
    check_stats_conservation,
    diff_traces,
    replay_check,
    run_scenario,
    runtime_verifier,
    verification,
    verification_level,
)
from repro.verify.runtime import RunVerifier
from tests.test_engine_equivalence import _spy_vectorizer


def _event(time, type, node=None, **data):
    return TraceEvent(time, type, node, data)


# ----------------------------------------------------------------------
# invariant monitors (synthetic streams)
# ----------------------------------------------------------------------
def test_monotone_time_clean_and_violating():
    monitor = MonotoneTimeMonitor()
    for event in [_event(0.0, "msg.send"), _event(1.0, "msg.send"), _event(1.0, "msg.send")]:
        monitor.observe(event)
    assert monitor.finish() == []
    monitor = MonotoneTimeMonitor()
    monitor.observe(_event(2.0, "msg.send"))
    monitor.observe(_event(1.0, "msg.send"))
    assert len(monitor.finish()) == 1


def test_timer_ownership_flags_dead_owner_fire():
    monitor = TimerOwnershipMonitor()
    monitor.observe(_event(1.0, "node.crash", "a"))
    monitor.observe(_event(2.0, "timer.fire", "a", callback="f"))
    violations = monitor.finish()
    assert len(violations) == 1
    assert "dead owner" in violations[0].detail


def test_timer_ownership_allows_unowned_and_recovered():
    monitor = TimerOwnershipMonitor()
    monitor.observe(_event(1.0, "node.crash", "a"))
    monitor.observe(_event(2.0, "timer.fire", None, callback="f"))  # unattributed
    monitor.observe(_event(3.0, "node.recover", "a"))
    monitor.observe(_event(4.0, "timer.fire", "a", callback="f"))  # recovered
    assert monitor.finish() == []


def test_timer_ownership_flags_dead_setting_timer():
    monitor = TimerOwnershipMonitor()
    monitor.observe(_event(1.0, "node.crash", "a"))
    monitor.observe(_event(2.0, "timer.set", "a", callback="f", delay=1.0))
    assert len(monitor.finish()) == 1


def test_ack_conservation_balanced_is_clean():
    monitor = AckConservationMonitor()
    monitor.observe(_event(1.0, "msg.deliver", "p", src="c", kind="ack1"))
    monitor.observe(_event(2.0, "msg.deliver", "p", src="c", kind="ack2"))
    assert monitor.finish() == []


def test_ack_conservation_flags_unmatched_ack2():
    monitor = AckConservationMonitor()
    monitor.observe(_event(1.0, "msg.deliver", "p", src="c", kind="ack2"))
    violations = monitor.finish()
    assert len(violations) == 1
    assert "no outstanding ack1" in violations[0].detail


def test_ack_conservation_is_per_node():
    monitor = AckConservationMonitor()
    monitor.observe(_event(1.0, "msg.deliver", "p", src="c", kind="ack1"))
    monitor.observe(_event(2.0, "msg.deliver", "q", src="c", kind="ack2"))  # other node
    assert len(monitor.finish()) == 1


def test_repair_causality_flags_repair_before_crash():
    monitor = RepairCausalityMonitor()
    monitor.observe(_event(5.0, "node.crash", "a"))
    monitor.observe(_event(3.0, "repair.note", "s", kind="prune_child", dead="a"))
    # Feed order is stream order; the repair event carries an earlier time.
    assert len(monitor.finish()) == 1


def test_repair_causality_allows_non_crashed_targets():
    # prune_child legitimately fires for alive-but-unreachable nodes.
    monitor = RepairCausalityMonitor()
    monitor.observe(_event(3.0, "repair.note", "s", kind="prune_child", dead="a"))
    monitor.observe(_event(5.0, "node.crash", "b"))
    monitor.observe(_event(6.0, "repair.note", "s", kind="sentinel_failover", dead="b"))
    assert monitor.finish() == []


# ----------------------------------------------------------------------
# stats conservation
# ----------------------------------------------------------------------
def test_stats_conservation_clean_after_charges():
    stats = MessageStats()
    stats.charge("join", "clustering", 2, hops=3)
    stats.record(Message(src="a", dst="b", kind="ack1", category="clustering"))
    assert check_stats_conservation(stats) == []


def test_stats_conservation_detects_corrupt_total():
    stats = MessageStats()
    stats.charge("join", "clustering", 1, hops=1)
    stats._total_packets += 1  # simulate a missed-counter bug
    violations = check_stats_conservation(stats)
    assert violations
    assert all(v.invariant == "stats-conservation" for v in violations)


# ----------------------------------------------------------------------
# MonitorSuite plumbing
# ----------------------------------------------------------------------
def test_suite_attach_observes_and_detaches():
    tracer = Tracer()
    suite = MonitorSuite()
    suite.attach(tracer)
    tracer.emit(1.0, "node.crash", "a")
    tracer.emit(2.0, "timer.fire", "a", callback="f")
    violations = suite.finish()
    assert suite.events_observed == 2
    assert len(violations) == 1
    tracer.emit(3.0, "timer.fire", "a", callback="f")  # after detach: unseen
    assert suite.events_observed == 2


def test_suite_double_attach_rejected():
    suite = MonitorSuite()
    suite.attach(Tracer())
    with pytest.raises(RuntimeError, match="already attached"):
        suite.attach(Tracer())


def test_suite_feed_offline():
    suite = MonitorSuite()
    suite.feed([_event(1.0, "node.crash", "a"), _event(2.0, "timer.set", "a", callback="f")])
    assert len(suite.finish()) == 1


# ----------------------------------------------------------------------
# run-level policy
# ----------------------------------------------------------------------
def test_verifier_off_by_default(monkeypatch):
    monkeypatch.delenv("REPRO_VERIFY", raising=False)
    assert verification_level() == "off"
    assert runtime_verifier() is None


def test_verification_context_sets_and_restores(monkeypatch):
    monkeypatch.delenv("REPRO_VERIFY", raising=False)
    with verification("full"):
        assert verification_level() == "full"
        verifier = runtime_verifier()
        assert verifier is not None and verifier.level == "full"
    assert verification_level() == "off"


def test_unknown_level_degrades_to_off(monkeypatch):
    monkeypatch.setenv("REPRO_VERIFY", "bogus")
    assert verification_level() == "off"


def test_run_verifier_finish_raises_on_corrupt_stats():
    graph = nx.path_graph(2)
    network = Network(graph)
    network.stats.charge("join", "clustering", 1, hops=1)
    network.stats._total_values += 5  # corrupt the running total
    from repro.core import clustering_from_assignment
    import numpy as np

    features = {0: np.zeros(1), 1: np.zeros(1)}
    clustering = clustering_from_assignment(graph, {0: 0, 1: 0}, features)
    from repro.features import EuclideanMetric

    verifier = RunVerifier("cheap")
    with pytest.raises(InvariantError, match="stats-conservation"):
        verifier.finish(
            network=network,
            graph=graph,
            clustering=clustering,
            features=features,
            metric=EuclideanMetric(),
            delta=1.0,
        )


def test_full_level_installs_and_removes_private_tracer():
    graph = nx.path_graph(2)
    network = Network(graph)
    verifier = RunVerifier("full")
    verifier.attach(network)
    assert network.tracer is not None
    import numpy as np

    from repro.core import clustering_from_assignment
    from repro.features import EuclideanMetric

    features = {0: np.zeros(1), 1: np.zeros(1)}
    clustering = clustering_from_assignment(graph, {0: 0, 1: 0}, features)
    verifier.finish(
        network=network,
        graph=graph,
        clustering=clustering,
        features=features,
        metric=EuclideanMetric(),
        delta=1.0,
    )
    assert network.tracer is None  # private tracer removed again


# ----------------------------------------------------------------------
# cheap checks cover vectorised runs
# ----------------------------------------------------------------------
def _spy_finish(monkeypatch):
    """Record the level of every :meth:`RunVerifier.finish` call."""
    finished = []
    real_finish = RunVerifier.finish

    def spy(self, **kwargs):
        finished.append(self.level)
        return real_finish(self, **kwargs)

    monkeypatch.setattr(RunVerifier, "finish", spy)
    return finished


def _cheap_vectorized_grid_run():
    import numpy as np

    from repro.core import ELinkConfig, run_elink
    from repro.features import EuclideanMetric
    from repro.geometry import grid_topology

    topology = grid_topology(10, 10)
    features = {
        v: np.array([(x + y) / 10]) for v, (x, y) in topology.positions.items()
    }
    with verification("cheap"):
        run_elink(topology, features, EuclideanMetric(), ELinkConfig(delta=0.6))


def test_cheap_level_checks_vectorized_run(monkeypatch):
    engaged = _spy_vectorizer(monkeypatch)
    finished = _spy_finish(monkeypatch)
    _cheap_vectorized_grid_run()
    assert engaged == [True]  # the batch path ran, not a fallback
    assert finished == ["cheap"]


def test_cheap_level_catches_corrupt_vectorized_stats(monkeypatch):
    import repro.core.elink_vec as elink_vec

    engaged = _spy_vectorizer(monkeypatch)
    real_fire = elink_vec._VectorRun._fire_expand

    def corrupt_fire(self, time, batch):
        real_fire(self, time, batch)
        self.stats.packets_by_kind["expand"] += 1

    monkeypatch.setattr(elink_vec._VectorRun, "_fire_expand", corrupt_fire)
    with pytest.raises(InvariantError, match="stats-conservation"):
        _cheap_vectorized_grid_run()
    assert engaged == [True]


# ----------------------------------------------------------------------
# verified end-to-end runs and the replay differ
# ----------------------------------------------------------------------
def test_run_scenario_fully_verified_clean():
    result = run_scenario(
        ScenarioSpec(side=5, seed=2, crash_fraction=0.12), level="full"
    )
    assert result.num_clusters >= 1


def test_diff_traces_identical_and_divergent():
    events = [_event(1.0, "msg.send", "a", kind="join"), _event(2.0, "msg.deliver", "b")]
    assert diff_traces(events, list(events)) is None
    mutated = [events[0], _event(2.0, "msg.deliver", "c")]
    divergence = diff_traces(events, mutated)
    assert divergence is not None and divergence.index == 1
    shorter = diff_traces(events, events[:1])
    assert shorter is not None and shorter.second is None


@pytest.mark.parametrize("topology", ["grid", "geometric"])
def test_replay_check_is_deterministic(topology):
    spec = ScenarioSpec(side=5, seed=4, crash_fraction=0.1, topology=topology)
    report = replay_check(spec, level="full")
    assert report.identical, str(report)
    assert report.events > 0
