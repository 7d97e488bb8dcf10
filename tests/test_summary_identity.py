"""The range engine's backbone summaries equal the per-pair oracle exactly.

``RangeQueryEngine`` builds one covering ball per backbone edge direction
from the backbone preorder and one ``Metric.distance_row`` per backbone
node.  ``tests/summary_oracle.py`` keeps the loop it replaced: one BFS
far side per direction and one scalar ``distance`` per (direction,
cluster) pair.  Every case here requires the same key set, the same centre
*objects* and ``==`` radii, and ``QueryContext.far_side`` equal to the
oracle BFS on every edge direction.  The per-query ball row
(``QueryContext.ball_distances``) must equal one scalar ``distance`` per
root ball bit for bit, and on 1-d features neither the planner build nor
its estimates may make a scalar ``distance`` call.  The bounded cache of
unpruned backbone walks must answer every start as a fresh context does.
"""

import copy
from functools import lru_cache

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.features import TAO_WEIGHTS, EuclideanMetric, ManhattanMetric, WeightedEuclideanMetric
from repro.index import build_mtree
from repro.obs.metrics import MetricsRegistry
from repro.queries.context import WALK_CACHE_SIZE, QueryContext
from repro.queries.load import ScenarioSpec, build_scenario
from repro.queries.planner import QueryPlanner
from repro.queries.range_query import RangeQueryEngine
from repro.sim.stats import MessageStats
from tests import summary_oracle
from tests.test_query_golden import CONTEXTS, STACKS, _planner, _stack


def assert_same_summaries(got, want) -> None:
    """The same key set, the same centre objects and ``==`` radii."""
    assert got.keys() == want.keys()
    for key, (center, radius) in want.items():
        assert got[key][0] is center, key
        assert got[key][1] == radius, (key, got[key][1], radius)


def check_context(context: QueryContext, engine: RangeQueryEngine | None = None) -> None:
    """*engine*'s summaries and *context*'s ``far_side`` equal the oracle's.

    *engine* defaults to a range engine built on *context*.
    """
    if engine is None:
        engine = RangeQueryEngine(context)
    assert_same_summaries(engine._summaries, summary_oracle.summaries(context))
    tree = context.backbone.tree
    for a, b in tree.edges:
        for src, dst in ((a, b), (b, a)):
            assert context.far_side(src, dst) == summary_oracle.far_side(tree, src, dst)


def check_ball_row(context: QueryContext) -> None:
    """*context*'s ball row equals one scalar ``distance`` per root ball.

    For every root ``r``, in ``clustering.roots`` order, the stacked ball
    is ``routing_ball(effective(r))`` and the row entry is the scalar
    distance to its centre, as the same Python float bit for bit.  A
    backbone node's slot holds its own routing ball.
    """
    roots = context.clustering.roots
    balls = [context.routing_ball(context.effective(root)) for root in roots]
    assert context.ball_radii == [radius for _, radius in balls]
    nodes = sorted(context.features, key=repr)
    for q in (context.features[nodes[0]], context.features[nodes[-1]], balls[0][0]):
        got = context.ball_distances(q)
        want = [context.metric.distance(q, center) for center, _ in balls]
        assert all(type(d) is float for d in got)
        assert [d.hex() for d in got] == [d.hex() for d in want]
    if context.backbone is not None:
        for node in context.backbone.tree:
            center, radius = context.routing_ball(node)
            slot = context.ball_slot(node)
            assert np.array_equal(context.ball_centers[slot], center)
            assert context.ball_radii[slot] == radius


@pytest.mark.parametrize("context", CONTEXTS)
@pytest.mark.parametrize("stack_name", sorted(STACKS))
def test_golden_planners_match_oracle(stack_name, context):
    planner = _planner(_stack(stack_name), context, MetricsRegistry())
    check_context(planner.context, planner._range)
    check_ball_row(planner.context)


def _cut_widest_edge(tree: nx.Graph) -> None:
    """Remove the tree edge whose smaller side is largest (ties by repr)."""
    def smaller_side(edge):
        a, b = edge
        return min(
            len(summary_oracle.far_side(tree, a, b)), len(summary_oracle.far_side(tree, b, a))
        )

    edge = max(sorted(tree.edges, key=repr), key=smaller_side)
    assert smaller_side(edge) >= 2
    tree.remove_edge(*edge)


def test_backbone_cut_into_three_components_matches_oracle():
    stack = _stack("n120")
    backbone = copy.deepcopy(stack["backbone"])
    _cut_widest_edge(backbone.tree)
    _cut_widest_edge(backbone.tree)
    assert nx.number_connected_components(backbone.tree) == 3
    context = QueryContext(
        stack["clustering"], stack["features"], stack["metric"], stack["mtree"], backbone
    )
    assert len(context.preorder()[0]) == 3
    check_context(context)


#: The k-d metrics of the property: the Tao experiments' weighted metric
#: and the two unweighted ones, over random 4-d features.
FOUR_D_METRICS = {
    "weighted": WeightedEuclideanMetric(TAO_WEIGHTS),
    "euclidean": EuclideanMetric(),
    "manhattan": ManhattanMetric(),
}


@lru_cache(maxsize=None)
def _scenario(n, seed, delta):
    return build_scenario(ScenarioSpec(n=n, seed=seed, delta=delta))


@settings(max_examples=20, deadline=None)
@given(
    n=st.integers(min_value=20, max_value=150),
    seed=st.integers(min_value=0, max_value=20),
    delta=st.sampled_from((0.1, 0.2, 0.3, 0.4)),
    kind=st.sampled_from(("1d",) + tuple(FOUR_D_METRICS)),
    feature_seed=st.integers(min_value=0, max_value=2**32 - 1),
    scale=st.sampled_from((1e-3, 1.0, 1e3)),
    data=st.data(),
)
def test_summaries_match_oracle_on_random_stacks(n, seed, delta, kind, feature_seed, scale, data):
    stack = _scenario(n, seed, delta)
    clustering, graph = stack["clustering"], stack["graph"]
    if kind == "1d":
        features, metric, mtree = stack["features"], stack["metric"], stack["mtree"]
        assert isinstance(metric, EuclideanMetric)
    else:
        rng = np.random.default_rng(feature_seed)
        nodes = sorted(clustering.assignment, key=repr)
        features = {node: rng.normal(size=4) * scale for node in nodes}
        metric = FOUR_D_METRICS[kind]
        mtree = build_mtree(clustering, features, metric)

    # Fault-free.
    context = QueryContext(clustering, features, metric, mtree, stack["backbone"])
    check_context(context)
    check_ball_row(context)

    # A dead root re-elected through reroute_around (the tree may split).
    candidates = sorted((r for r in clustering.roots if len(clustering.members(r)) >= 2), key=repr)
    if not candidates:
        return
    dead = data.draw(st.sampled_from(candidates), label="dead root")
    replacement = min((m for m in clustering.members(dead) if m != dead), key=repr)
    survivors = graph.copy()
    survivors.remove_node(dead)
    backbone = copy.deepcopy(stack["backbone"])
    backbone.reroute_around(survivors, dead, replacement)
    context = QueryContext(
        clustering, features, metric, mtree, backbone,
        dead={dead}, root_replacements={dead: replacement},
    )
    check_context(context)
    check_ball_row(context)


def _count_scalar_distances(monkeypatch, metric) -> list[int]:
    """Count every scalar ``distance`` call of *metric*'s type from now on."""
    scalar = type(metric).distance
    calls = [0]

    def counting(self, a, b):
        calls[0] += 1
        return scalar(self, a, b)

    monkeypatch.setattr(type(metric), "distance", counting)
    return calls


def _uncached_planner(stack):
    return QueryPlanner(
        stack["graph"], stack["clustering"], stack["features"], stack["metric"],
        stack["mtree"], stack["backbone"],
    )


def test_planner_build_makes_no_scalar_distance_call(monkeypatch):
    # 1-d features: every summary row is one array expression.  A per-pair
    # build makes 325 * 324 = 105,300 scalar calls on this stack.
    stack = _scenario(400, 3, 0.05)
    assert stack["clustering"].num_clusters == 325
    calls = _count_scalar_distances(monkeypatch, stack["metric"])
    _uncached_planner(stack)
    assert calls[0] == 0


def test_planner_estimates_make_no_scalar_distance_call(monkeypatch):
    # Every estimate reads the query's one ball row; a scalar call per
    # root ball makes 325 per plan here, plus one per pruner test.
    stack = _scenario(400, 3, 0.05)
    planner = _uncached_planner(stack)
    nodes = sorted(stack["graph"].nodes, key=repr)
    features = stack["features"]
    calls = _count_scalar_distances(monkeypatch, stack["metric"])
    plans = {
        "range": lambda: planner.plan_range(features[nodes[7]], 0.05, nodes[0]),
        "knn": lambda: planner.plan_knn(features[nodes[7]], 5, nodes[0]),
        "path": lambda: planner.plan_path(nodes[0], nodes[-1], features[nodes[7]], 0.05),
    }
    made = {}
    for op, plan in plans.items():
        calls[0] = 0
        plan()
        made[op] = calls[0]
    assert made == {"range": 0, "knn": 0, "path": 0}


@pytest.mark.parametrize("dead_relays", [0, 3])
def test_walk_cache_is_bounded_and_answers_as_a_fresh_context(dead_relays):
    """One context walks from more distinct starts than it may cache, in
    three passes that mix hits and evictions.  It never holds more than
    ``WALK_CACHE_SIZE`` walks, and every walk equals a fresh context's:
    ``reached`` in order, hops, lost roots and dead-relay drops."""
    stack = _scenario(400, 3, 0.05)
    clustering, backbone = stack["clustering"], stack["backbone"]
    tree = backbone.tree
    dead = set(sorted(tree, key=lambda r: (-tree.degree(r), repr(r)))[:dead_relays])
    args = (clustering, stack["features"], stack["metric"], stack["mtree"], backbone)
    context = QueryContext(*args, dead=dead)
    starts = [root for root in clustering.roots if root not in dead]
    assert len(starts) > WALK_CACHE_SIZE

    def walk(ctx, start):
        stats = MessageStats()
        reached, hops, lost = ctx.walk(start, stats)
        return list(reached.items()), hops, lost, dict(stats.drops_by_reason)

    fresh = {start: walk(QueryContext(*args, dead=dead), start) for start in starts}
    hits = 0
    for start in starts + starts[::-1] + starts:
        hits += start in context._reach
        assert walk(context, start) == fresh[start]
        assert len(context._reach) <= WALK_CACHE_SIZE
    assert 0 < hits < len(starts) * 2
    if dead:
        assert any(drops for *_, drops in fresh.values())
