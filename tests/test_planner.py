"""Tests for the cost-model query planner and its result cache."""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.queries.load import ScenarioSpec, WorkloadSpec, build_scenario, generate_workload
from repro.queries.planner import PLAN_BACKENDS, QueryPlanner, canonical_answer
from repro.queries.result_cache import QueryResultCache, canonicalize


@pytest.fixture(scope="module")
def scenario():
    """A seeded 50-node serving stack shared by the equivalence tests."""
    return build_scenario(ScenarioSpec(n=50, seed=42, delta=0.4))


def _workload(scenario, mix="balanced", queries=24, seed=3, gamma=0.5):
    spec = WorkloadSpec(mix=mix, queries=queries, seed=seed, gamma=gamma)
    return generate_workload(
        sorted(scenario["graph"].nodes, key=repr), scenario["features"], spec
    )


# ----------------------------------------------------------------------
# plan choice: argmin over the estimates, deterministic tie-break
# ----------------------------------------------------------------------


@given(
    est=st.lists(
        st.floats(min_value=0.0, max_value=1e9, allow_nan=False),
        min_size=3,
        max_size=3,
    )
)
@settings(max_examples=200, deadline=None)
def test_choice_is_argmin_with_backend_order_tiebreak(scenario, est):
    estimates = dict(zip(PLAN_BACKENDS, est))
    plan = scenario["planner"]._choose("range", estimates)
    best = min(PLAN_BACKENDS, key=lambda b: (estimates[b], PLAN_BACKENDS.index(b)))
    assert plan.backend == best
    # The headline property: flood is never chosen when the backbone scan
    # is strictly cheaper (and symmetrically for every backend pair).
    for cheaper in PLAN_BACKENDS:
        if estimates[cheaper] < estimates[plan.backend]:
            pytest.fail(f"chose {plan.backend} over strictly cheaper {cheaper}")


def test_planned_backend_minimizes_reported_estimates(scenario):
    planner = scenario["planner"]
    for query in _workload(scenario):
        plan = getattr(planner, f"plan_{query.op}")(**query.kwargs())
        assert plan.backend in PLAN_BACKENDS
        assert plan.estimates[plan.backend] == min(plan.estimates.values())
        assert plan.explain_text().startswith(f"plan {query.op}: {plan.backend}")


# ----------------------------------------------------------------------
# backend equivalence: byte-identical answers on seeded scenarios
# ----------------------------------------------------------------------


# Scenario features span roughly 0.41-0.79, so the default clearance
# γ = 0.5 leaves no node safe and every path answer is None; γ = 0.05
# leaves safe regions, so path agreement compares real routes.
ROUTE_GAMMA = 0.05


@pytest.mark.parametrize("mix", ["range-heavy", "balanced", "path-knn"])
def test_all_backends_agree_on_seeded_workloads(scenario, mix):
    planner = scenario["planner"]
    routes = 0
    for query in _workload(scenario, mix=mix, queries=40, seed=11, gamma=ROUTE_GAMMA):
        answers = {
            backend: canonical_answer(
                query.op,
                getattr(planner, query.op)(**query.kwargs(), backend=backend).result,
            )
            for backend in PLAN_BACKENDS
        }
        assert answers["mtree"] == answers["backbone"] == answers["flood"], (
            f"{query.op} answers diverge across backends: {query.params}"
        )
        routes += query.op == "path" and answers["mtree"] is not None
    assert routes > 0, "no path query found a route: the path check compared only None"


def test_auto_plan_matches_forced_backend(scenario):
    planner = scenario["planner"]
    for query in _workload(scenario, queries=12, seed=5):
        auto = getattr(planner, query.op)(**query.kwargs())
        forced = getattr(planner, query.op)(**query.kwargs(), backend=auto.plan.backend)
        assert canonical_answer(query.op, auto.result) == canonical_answer(
            query.op, forced.result
        )


def test_unknown_backend_rejected(scenario):
    with pytest.raises(ValueError):
        scenario["planner"].range(np.zeros(1), 0.5, 0, backend="oracle")


# ----------------------------------------------------------------------
# explain mode: chosen plan plus estimated-vs-actual message cost
# ----------------------------------------------------------------------


def test_explain_reports_estimated_and_actual_cost(scenario):
    planned = scenario["planner"].range(np.zeros(1), 0.8, 0)
    text = planned.explain_text()
    assert planned.plan.backend in text
    if planned.cached:
        assert "served from cache" in text
    else:
        assert f"actual {planned.messages}" in text


# ----------------------------------------------------------------------
# result cache: hits, generation-driven invalidation, zero staleness
# ----------------------------------------------------------------------


def _fresh_ctx(n=40):
    return build_scenario(ScenarioSpec(n=n, seed=42, delta=0.4))


def test_repeat_query_served_from_cache():
    ctx = _fresh_ctx()
    planner, cache = ctx["planner"], ctx["cache"]
    q = np.array([0.5])
    cold = planner.range(q, 0.6, 0)
    warm = planner.range(q, 0.6, 0)
    assert not cold.cached and warm.cached
    assert warm.messages == 0
    assert warm.result is cold.result
    assert cache.hits == 1 and cache.misses == 1


def test_forced_backend_bypasses_cache():
    ctx = _fresh_ctx()
    planner, cache = ctx["planner"], ctx["cache"]
    q = np.array([0.5])
    planner.range(q, 0.6, 0)
    forced = planner.range(q, 0.6, 0, backend="flood")
    assert not forced.cached
    assert cache.hits == 0  # forced runs never consult the cache


def test_maintenance_generation_invalidates_cache():
    ctx = _fresh_ctx()
    planner, cache, session = ctx["planner"], ctx["cache"], ctx["session"]
    q = np.array([0.5])
    planner.range(q, 0.6, 0)
    assert planner.range(q, 0.6, 0).cached
    victim = next(
        node for node in sorted(session.assignment, key=repr)
        if node != session.assignment[node]
    )
    session.remove_node(victim)
    after = planner.range(q, 0.6, 0)
    assert not after.cached, "pre-invalidation entry leaked through"
    assert cache.invalidations > 0
    # And the freshly cached answer is good again.
    assert planner.range(q, 0.6, 0).cached


def test_cache_counters_flow_to_metrics_registry():
    ctx = _fresh_ctx()
    planner, metrics = ctx["planner"], ctx["metrics"]
    q = np.array([0.2])
    planner.range(q, 0.5, 0)
    planner.range(q, 0.5, 0)
    snapshot = metrics.snapshot()
    assert snapshot["queries.cache.hits"]["value"] == 1
    assert snapshot["queries.cache.misses"]["value"] == 1
    assert snapshot["queries.cache_served.range"]["value"] == 1


def test_cache_lru_eviction_counted():
    cache = QueryResultCache(capacity=2)
    for i in range(3):
        cache.put(cache.key("range", {"i": i}), i)
    assert cache.evictions == 1
    assert cache.stats()["entries"] == 2


# ----------------------------------------------------------------------
# trace events
# ----------------------------------------------------------------------


# ----------------------------------------------------------------------
# degraded topologies: the cost model must see dead/replaced nodes
# ----------------------------------------------------------------------


def _planner_for(ctx, *, graph=None, backbone=None, cache=None, **degraded):
    return QueryPlanner(
        ctx["graph"] if graph is None else graph,
        ctx["clustering"],
        ctx["features"],
        ctx["metric"],
        ctx["mtree"],
        ctx["backbone"] if backbone is None else backbone,
        cache=cache,
        **degraded,
    )


def _hub_root(ctx):
    """The highest-degree backbone root — killing it severs the most."""
    backbone = ctx["backbone"]
    return max(
        ctx["clustering"].roots, key=lambda r: (backbone.tree.degree(r), repr(r))
    )


def test_degraded_planner_never_plans_flood(scenario):
    """Flooding routes through dead nodes, so a degraded planner must
    never choose it — and must refuse to have it forced."""
    degraded = _planner_for(scenario, dead={_hub_root(scenario)})
    for query in _workload(scenario, queries=24, seed=3):
        plan = getattr(degraded, f"plan_{query.op}")(**query.kwargs())
        assert plan.backend != "flood"
        assert plan.estimates["flood"] == float("inf")
    q = np.array([0.5])
    with pytest.raises(ValueError, match="flood"):
        degraded.range(q, 0.6, 0, backend="flood")
    with pytest.raises(ValueError, match="flood"):
        degraded.knn(q, 2, 0, backend="flood")


def test_stale_fault_free_model_picks_strictly_costlier_backend(scenario):
    """The PR-8 regression: a planner that ignores the dead set keeps
    flood's fault-free price on the table and hands unselective queries
    to a backend the degraded engines refuse — strictly costlier than
    the degraded model's finite-cost choice, by its own estimate."""
    stale = _planner_for(scenario)
    degraded = _planner_for(scenario, dead={_hub_root(scenario)})
    divergent = 0
    for query in _workload(scenario, mix="balanced", queries=40, seed=3):
        stale_plan = getattr(stale, f"plan_{query.op}")(**query.kwargs())
        fresh_plan = getattr(degraded, f"plan_{query.op}")(**query.kwargs())
        if stale_plan.backend == fresh_plan.backend:
            continue
        divergent += 1
        assert stale_plan.backend == "flood"
        # The degraded engines refuse the stale choice outright...
        with pytest.raises(ValueError, match="flood"):
            getattr(degraded, query.op)(**query.kwargs(), backend=stale_plan.backend)
        # ...while the degraded model's choice executes at a finite cost
        # below what the stale model was prepared to pay for flooding.
        executed = getattr(degraded, query.op)(
            **query.kwargs(), backend=fresh_plan.backend
        )
        assert executed.messages < stale_plan.estimates["flood"]
    assert divergent > 0, "seeded chaos scenario produced no plan divergence"


def test_degraded_backends_agree_with_degraded_engines(scenario):
    """mtree and backbone plans return the degraded engines' answers —
    same matches/neighbors, same coverage — under a severed backbone."""
    dead = _hub_root(scenario)
    degraded = _planner_for(scenario, dead={dead})
    alive = sorted(
        (n for n in scenario["graph"].nodes if n != dead), key=repr
    )
    routes = 0
    for query in _workload(scenario, mix="path-knn", queries=40, seed=11, gamma=ROUTE_GAMMA):
        kwargs = dict(query.kwargs())
        if query.op == "path":
            if kwargs["source"] == dead or kwargs["destination"] == dead:
                continue
        elif kwargs["initiator"] == dead:
            kwargs["initiator"] = alive[0]
        mtree = getattr(degraded, query.op)(**kwargs, backend="mtree")
        backbone = getattr(degraded, query.op)(**kwargs, backend="backbone")
        assert canonical_answer(query.op, mtree.result) == canonical_answer(
            query.op, backbone.result
        )
        assert mtree.result.coverage == pytest.approx(backbone.result.coverage)
        if query.op == "range":
            assert dead not in mtree.result.matches
        routes += query.op == "path" and mtree.result.path is not None
    assert routes > 0, "no path query found a route: the path check compared only None"


def test_degraded_planner_with_replacement_root(scenario):
    """A re-elected root keeps its cluster consultable: both clustered
    backends agree, and the dead node itself never appears in answers."""
    import copy

    clustering = scenario["clustering"]
    dead = next(
        r
        for r in sorted(clustering.roots, key=repr)
        if len(clustering.members(r)) >= 2
    )
    replacement = min(
        (m for m in clustering.members(dead) if m != dead), key=repr
    )
    surviving = scenario["graph"].copy()
    surviving.remove_node(dead)
    rerouted = copy.deepcopy(scenario["backbone"])
    rerouted.reroute_around(surviving, dead, replacement)
    degraded = _planner_for(
        scenario,
        graph=surviving,
        backbone=rerouted,
        dead={dead},
        root_replacements={dead: replacement},
    )
    routes = 0
    for query in _workload(scenario, mix="path-knn", queries=40, seed=11, gamma=ROUTE_GAMMA):
        kwargs = dict(query.kwargs())
        if query.op == "path":
            if dead in (kwargs["source"], kwargs["destination"]):
                continue
        elif kwargs["initiator"] == dead:
            continue
        mtree = getattr(degraded, query.op)(**kwargs, backend="mtree")
        backbone = getattr(degraded, query.op)(**kwargs, backend="backbone")
        assert canonical_answer(query.op, mtree.result) == canonical_answer(
            query.op, backbone.result
        )
        if query.op == "range":
            assert dead not in mtree.result.matches
        elif query.op == "knn":
            assert dead not in {node for node, _ in mtree.result.neighbors}
        elif mtree.result.path is not None:
            assert dead not in mtree.result.path
            routes += 1
    assert routes > 0, "no path query found a route: the path check compared only None"


@pytest.fixture(scope="module")
def split_backbone():
    """Root 2 dies and 13, the only other member of its cluster, is
    re-elected.  13's only graph neighbour was 2, so the repaired backbone
    splits into a 12-root component and 13 alone."""
    import copy

    import networkx as nx

    ctx = build_scenario(ScenarioSpec(n=40, seed=0, delta=0.3))
    assert sorted(ctx["clustering"].members(2)) == [2, 13]
    surviving = ctx["graph"].copy()
    surviving.remove_node(2)
    backbone = copy.deepcopy(ctx["backbone"])
    backbone.reroute_around(surviving, 2, 13)
    parts = sorted(len(part) for part in nx.connected_components(backbone.tree))
    assert parts == [1, 12]
    planner = _planner_for(
        ctx, graph=surviving, backbone=backbone, dead={2}, root_replacements={2: 13}
    )
    return planner, set(surviving.nodes)


@pytest.mark.parametrize("backend", ["mtree", "backbone"])
@pytest.mark.parametrize("op", ["range", "knn"])
@pytest.mark.parametrize("initiator", [0, 13])
def test_split_backbone_loses_the_other_component(split_backbone, op, backend, initiator):
    """Every plan answers from the initiator's backbone component only, and
    reports the other component as uncovered."""
    planner, alive = split_backbone
    expected = {13} if initiator == 13 else alive - {13}
    q = np.zeros(1)
    if op == "range":
        result = planner.range(q, 10.0, initiator, backend=backend).result
        answer = result.matches
    else:
        result = planner.knn(q, len(alive), initiator, backend=backend).result
        answer = {node for node, _ in result.neighbors}
    assert answer == expected
    assert result.coverage == pytest.approx(len(expected) / len(alive))


@pytest.mark.parametrize("degraded", [False, True])
def test_knn_backbone_scan_charges_entry_hops_both_ways(scenario, degraded):
    """Each cluster-tree hop from the initiator to its root carries the
    query down (dim+1 values) and the k-best merge back (k values), with
    or without crashes — as the planner's estimate already assumed."""
    clustering = scenario["clustering"]
    node = max(
        sorted(clustering.assignment, key=repr),
        key=lambda n: len(clustering.path_to_root(n)),
    )
    root = clustering.root_of(node)
    entry = len(clustering.path_to_root(node)) - 1
    assert entry > 0
    dead = {min((r for r in clustering.roots if r != root), key=repr)} if degraded else None
    planner = _planner_for(scenario, dead=dead)
    k, q = 3, scenario["features"][node]
    dim = q.shape[0]
    cost = {
        start: planner.knn(q, k, start, backend="backbone").messages for start in (node, root)
    }
    assert cost[node] - cost[root] == (dim + 1 + k) * entry
    assert planner.plan_knn(q, k, node).estimates["backbone"] == cost[node]


# ----------------------------------------------------------------------
# result cache: degraded context is part of the key (stale-answer fix)
# ----------------------------------------------------------------------


def test_cache_never_serves_fault_free_answer_to_degraded_query(scenario):
    """The PR-8 cache regression: one shared cache, a fault-free planner
    and a degraded one — the degraded query must miss (different key),
    recompute, and both contexts then hit their own entries."""
    cache = QueryResultCache()
    fault_free = _planner_for(scenario, cache=cache)
    degraded = _planner_for(scenario, cache=cache, dead={_hub_root(scenario)})
    dead = _hub_root(scenario)
    q = scenario["features"][dead]
    initiator = next(
        n
        for n in sorted(scenario["graph"].nodes, key=repr)
        if scenario["clustering"].root_of(n) != dead
    )
    cold = fault_free.range(q, 0.6, initiator)
    assert not cold.cached and dead in cold.result.matches
    served = degraded.range(q, 0.6, initiator)
    assert not served.cached, "fault-free cached answer served degraded"
    assert dead not in served.result.matches
    # Each context now hits its OWN entry, never the other's.
    assert fault_free.range(q, 0.6, initiator).result is cold.result
    assert degraded.range(q, 0.6, initiator).result is served.result


def test_cache_key_distinguishes_degraded_contexts():
    cache = QueryResultCache()
    params = {"q": np.array([0.5]), "radius": 0.6, "initiator": 0}
    plain = cache.key("range", params)
    ctx_a = {"dead": [3], "root_replacements": []}
    ctx_b = {"dead": [3], "root_replacements": [(3, 7)]}
    assert plain != cache.key("range", params, context=ctx_a)
    assert cache.key("range", params, context=ctx_a) != cache.key(
        "range", params, context=ctx_b
    )
    # The fault-free default context hashes exactly as no context.
    assert plain == cache.key("range", params, context=None)


# ----------------------------------------------------------------------
# result cache: content-addressed keys
# ----------------------------------------------------------------------


def test_cache_key_sensitivity():
    key = QueryResultCache().key
    base = key("gen", {"n": 100, "seed": 7})
    assert key("gen", {"n": 100, "seed": 7}) == base
    assert key("gen", {"n": 101, "seed": 7}) != base
    assert key("gen", {"n": 100, "seed": 8}) != base
    assert key("other", {"n": 100, "seed": 7}) != base


def test_canonicalize_ndarray_is_content_addressed():
    a = np.arange(6, dtype=float).reshape(2, 3)
    assert canonicalize(a) == canonicalize(a.copy())
    assert canonicalize(a) != canonicalize(a + 1)
    assert canonicalize(a) != canonicalize(a.astype(np.float32))
    assert canonicalize(a) != canonicalize(a.reshape(3, 2))


def test_canonicalize_floats_and_maps():
    assert canonicalize(0.1) == ("f", "0.1")
    assert canonicalize({"b": 1, "a": 2}) == canonicalize({"a": 2, "b": 1})
    with pytest.raises(TypeError):
        canonicalize(object())


def test_result_cache_keys_are_pinned():
    """Keys are SHA-256 digests of a fixed payload layout, the op and the
    canonicalized parameters; any change to either moves them."""
    cache = QueryResultCache()
    range_key = cache.key("range", {"q": np.array([0.5]), "radius": 1.0, "initiator": 3})
    assert range_key == "98fcfefb9a53c9b14ab4052786dd8694462d86b04ff922b17bf59181744922c0"
    path_key = cache.key(
        "path",
        {"source": (0, 1), "destination": "a", "danger": np.array([1.0, 2.0]), "gamma": 0.25},
        context={"dead": [4], "root_replacements": [(4, 5)]},
    )
    assert path_key == "3d3335da33fb94e46681eb4da3d7a892e008eee6fa3f5f319959daf7655c1b34"


def test_planner_emits_queries_trace_events():
    ctx = _fresh_ctx(n=30)
    tracer = Tracer()
    planner = QueryPlanner(
        ctx["graph"],
        ctx["clustering"],
        ctx["features"],
        ctx["metric"],
        ctx["mtree"],
        ctx["backbone"],
        emit=functools.partial(tracer.emit, 0.0),
        cache=QueryResultCache(),
        generation=lambda: 0,
        metrics=MetricsRegistry(),
    )
    q = np.array([0.4])
    planner.range(q, 0.7, 0)
    planner.range(q, 0.7, 0)
    types = [e.type for e in tracer.events(prefix="queries.")]
    assert "queries.plan" in types
    assert "queries.execute" in types
    assert "queries.cache_miss" in types
    assert "queries.cache_hit" in types
