"""Golden record of the query layer: answers, costs and drops, pinned.

Two seeded serving stacks are queried under six fault contexts with four
workloads.  For every query the record holds the planner's chosen plan and
its estimates, and for every backend the context allows: the canonical
answer, ``messages``, ``drops``, ``coverage`` and the op's own counters.
Each context also records its ``queries.drops.*`` and ``queries.plans.*``
counters.  The record is ~1 MB, so only its sha256 per (stack, context) is
pinned, next to the per-backend message and drop sums that localise a
failure.  Any change to a degraded-mode branch of the range, k-NN or path
engines or of the planner's backends moves a digest.
"""

import copy
import hashlib
import json
from functools import lru_cache

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.queries.load import ScenarioSpec, WorkloadSpec, build_scenario, generate_workload
from repro.queries.planner import PLAN_BACKENDS, QueryPlanner

STACKS = {
    "n50": ScenarioSpec(n=50, seed=42, delta=0.4),
    "n120": ScenarioSpec(n=120, seed=7, delta=0.3),
}

WORKLOADS = (
    WorkloadSpec(mix="balanced", queries=30, seed=11, gamma=0.05),
    WorkloadSpec(mix="path-knn", queries=30, seed=11, gamma=0.05),
    WorkloadSpec(mix="range-heavy", queries=30, seed=3),
    WorkloadSpec(
        mix="range-heavy", queries=30, seed=5, radii=(0.02, 0.05, 0.1), gamma=0.05
    ),
)

CONTEXTS = (
    "fault_free",
    "hub_root_dead",
    "leaf_root_dead",
    "member_dead",
    "all_roots_dead",
    "reelected_root",
)

#: (stack, context) -> sha256 of the record, and per-backend sums of
#: ``messages`` and ``drops`` over every query of the four workloads.
PINS = {
    ("n120", "fault_free"): {
        "sha256": "b08d1c1cc085143f5a15361487f0ee112f66f74838c149f50def7f32f554a93d",
        "messages": {"mtree": 51422, "backbone": 88873, "flood": 49127},
        "drops": {"mtree": 0, "backbone": 0, "flood": 0},
    },
    ("n120", "hub_root_dead"): {
        "sha256": "2b32e3cc7891ae883c140ace1aa9e4ca80e4553ea3ae68b0fbf0c49fc1f14809",
        "messages": {"mtree": 13789, "backbone": 23333},
        "drops": {"mtree": 120, "backbone": 120},
    },
    ("n120", "leaf_root_dead"): {
        "sha256": "9b03fbe5751c3edbd0c1212d328411226a0d0d5ea1e74a9a9456691f1d83b4d0",
        "messages": {"mtree": 30061, "backbone": 56863},
        "drops": {"mtree": 120, "backbone": 120},
    },
    ("n120", "member_dead"): {
        "sha256": "23891e1730b7b9ed86c1a4575d1e107d383659216d816cc47e5b4fcbcbbec6a3",
        "messages": {"mtree": 50607, "backbone": 87573},
        "drops": {"mtree": 4, "backbone": 4},
    },
    ("n120", "all_roots_dead"): {
        "sha256": "6b9e110a680852f0b8ae47e77f38b00665452aece2faf6619dba280bb3e92e36",
        "messages": {"mtree": 2923, "backbone": 2923},
        "drops": {"mtree": 471, "backbone": 471},
    },
    ("n120", "reelected_root"): {
        "sha256": "c0061a35633039030118009e863a3a22a48a39ab4ff06e88fd82cc3622af5df4",
        "messages": {"mtree": 48244, "backbone": 85062},
        "drops": {"mtree": 31, "backbone": 31},
    },
    ("n50", "fault_free"): {
        "sha256": "42e2df706ef8fc98932b526bfb157172b83d575f50813a8b8dc72518848239f5",
        "messages": {"mtree": 14041, "backbone": 28180, "flood": 22206},
        "drops": {"mtree": 0, "backbone": 0, "flood": 0},
    },
    ("n50", "hub_root_dead"): {
        "sha256": "0bd25084f000de635fe31a5ffe494ec7cc606938a4ddd8da2d8ee83028f53220",
        "messages": {"mtree": 3777, "backbone": 4265},
        "drops": {"mtree": 120, "backbone": 120},
    },
    ("n50", "leaf_root_dead"): {
        "sha256": "7c50668bf05810b1e91ddb4c7a08bddd5489d89425324760e445fd16c49e5b6d",
        "messages": {"mtree": 8090, "backbone": 16146},
        "drops": {"mtree": 148, "backbone": 155},
    },
    ("n50", "member_dead"): {
        "sha256": "c422c6933f4db5be916c3941bba493982b1f0bd12946a173d799c3824e07e64a",
        "messages": {"mtree": 13776, "backbone": 27515},
        "drops": {"mtree": 3, "backbone": 3},
    },
    ("n50", "all_roots_dead"): {
        "sha256": "6961b67d1a12fdc672799b71a476fd671f83b02bbc7d6fde1bb4d93833a55e59",
        "messages": {"mtree": 2359, "backbone": 2359},
        "drops": {"mtree": 236, "backbone": 236},
    },
    ("n50", "reelected_root"): {
        "sha256": "5cc4672e748be0274abf83468ecd9bdefff5e4f33810d2c47904dc79ce01fb27",
        "messages": {"mtree": 14080, "backbone": 28247},
        "drops": {"mtree": 31, "backbone": 31},
    },
}

#: Per-op result counters recorded next to the answer.
OP_COUNTERS = {
    "range": ("clusters_pruned", "clusters_included", "clusters_descended"),
    "knn": ("nodes_visited",),
    "path": ("safe_nodes", "clusters_drilled"),
}


@lru_cache(maxsize=None)
def _stack(name):
    return build_scenario(STACKS[name])


def _planner(stack, context, metrics):
    """A planner over *stack* under the named fault *context*."""
    clustering, backbone = stack["clustering"], stack["backbone"]
    graph = stack["graph"]
    roots = clustering.roots
    kwargs = {}
    if context == "hub_root_dead":
        kwargs["dead"] = {max(roots, key=lambda r: (backbone.tree.degree(r), repr(r)))}
    elif context == "leaf_root_dead":
        kwargs["dead"] = {min((r for r in roots if backbone.tree.degree(r) == 1), key=repr)}
    elif context == "member_dead":
        kwargs["dead"] = {min((n for n in graph.nodes if n not in set(roots)), key=repr)}
    elif context == "all_roots_dead":
        kwargs["dead"] = set(roots)
    elif context == "reelected_root":
        dead = next(r for r in sorted(roots, key=repr) if len(clustering.members(r)) >= 2)
        replacement = min((m for m in clustering.members(dead) if m != dead), key=repr)
        graph = graph.copy()
        graph.remove_node(dead)
        backbone = copy.deepcopy(backbone)
        backbone.reroute_around(graph, dead, replacement)
        kwargs = {"dead": {dead}, "root_replacements": {dead: replacement}}
    return QueryPlanner(
        graph, clustering, stack["features"], stack["metric"], stack["mtree"], backbone,
        metrics=metrics, **kwargs,
    )


def _answer(op, result):
    if op == "range":
        return sorted(result.matches, key=repr)
    if op == "knn":
        return [[node, round(dist, 12)] for node, dist in result.neighbors]
    return result.path


def golden_record(stack_name, context):
    """The full record of one (stack, context) cell, as a JSON-able dict."""
    stack = _stack(stack_name)
    metrics = MetricsRegistry()
    planner = _planner(stack, context, metrics)
    backends = [b for b in PLAN_BACKENDS if not (b == "flood" and context != "fault_free")]
    nodes = sorted(stack["graph"].nodes, key=repr)
    queries = []
    for spec in WORKLOADS:
        for query in generate_workload(nodes, stack["features"], spec):
            kwargs = query.kwargs()
            plan = getattr(planner, f"plan_{query.op}")(**kwargs)
            entry = {
                "op": query.op,
                "params": query.params,
                "plan": plan.backend,
                "estimates": plan.estimates,
                "backends": {},
            }
            for backend in backends:
                result = getattr(planner, query.op)(**kwargs, backend=backend).result
                entry["backends"][backend] = {
                    "answer": _answer(query.op, result),
                    "messages": result.messages,
                    "drops": result.drops,
                    "coverage": result.coverage,
                    **{name: getattr(result, name) for name in OP_COUNTERS[query.op]},
                }
            queries.append(entry)
    counters = {
        name: metrics.counter(name).value
        for name in sorted(metrics.names())
        if name.startswith(("queries.drops.", "queries.plans."))
    }
    return {"queries": queries, "counters": counters}


def summarize(record):
    """sha256 of the canonical JSON plus per-backend message/drop sums."""
    blob = json.dumps(record, sort_keys=True).encode()
    messages, drops = {}, {}
    for entry in record["queries"]:
        for backend, out in entry["backends"].items():
            messages[backend] = messages.get(backend, 0) + out["messages"]
            drops[backend] = drops.get(backend, 0) + out["drops"]
    return {"sha256": hashlib.sha256(blob).hexdigest(), "messages": messages, "drops": drops}


@pytest.mark.parametrize("context", CONTEXTS)
@pytest.mark.parametrize("stack_name", sorted(STACKS))
def test_query_layer_matches_golden_record(stack_name, context):
    got = summarize(golden_record(stack_name, context))
    pinned = PINS[(stack_name, context)]
    assert got["messages"] == pinned["messages"]
    assert got["drops"] == pinned["drops"]
    assert got["sha256"] == pinned["sha256"]
