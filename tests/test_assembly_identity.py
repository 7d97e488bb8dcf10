"""The array assembly equals the per-root oracle exactly.

``repro.core.delta.clustering_from_arrays`` keeps every cluster whose
protocol tree holds in one numpy pass and runs the per-root assembly
(``delta._split_cluster``) only for the clusters that fail its check.
``tests/assembly_oracle.py`` keeps the per-root loop that every cluster
used to take.  Every case here requires ``list(d.items())`` of
``assignment`` and ``parent`` to equal the oracle's, the same root-feature
keys in the same order holding the same array objects, and, on random
final states, the per-root code to run for exactly the clusters a scalar
re-check finds broken, in cluster order.
"""

import contextlib
import math
from unittest import mock

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.delta as delta
import repro.core.elink as elink
import repro.core.elink_vec as elink_vec
import repro.index.backbone as backbone
from repro.core import ELinkConfig, run_elink
from repro.core.delta import clustering_from_arrays, clustering_from_assignment
from repro.core.elink import FinalState
from repro.datasets.synthetic import generate_synthetic_dataset, stream_measurements
from repro.geometry.topology import adjacency_arrays
from repro.features import EuclideanMetric
from repro.geometry import Topology
from repro.obs.trace import Tracer
from repro.sim import Network
from tests import assembly_oracle, test_engine_equivalence, test_faults


def assert_same_clustering(got, want) -> None:
    """Equal dicts item for item, in order, and the same root-feature objects."""
    assert list(got.assignment.items()) == list(want.assignment.items())
    assert list(got.parent.items()) == list(want.parent.items())
    assert list(got.root_features) == list(want.root_features)
    for root, feature in want.root_features.items():
        assert got.root_features[root] is feature, root


def broken_roots(graph, assignment, parents) -> list:
    """Roots of the clusters whose protocol tree fails, in cluster order.

    A cluster keeps its tree when its root is a member, every member is
    in *graph*, and every member's parent path stays inside the cluster
    along graph edges and reaches the root.
    """
    members: dict = {}
    for node, root in assignment.items():
        members.setdefault(root, []).append(node)
    broken = []
    for root, nodes in members.items():
        member_set = set(nodes)

        def reaches_root(node):
            for _ in range(len(nodes)):
                if node == root:
                    return True
                parent = parents.get(node)
                if parent not in member_set or not graph.has_edge(node, parent):
                    return False
                node = parent
            return False

        if not (
            root in member_set
            and all(node in graph for node in nodes)
            and all(reaches_root(node) for node in nodes)
        ):
            broken.append(root)
    return broken


@contextlib.contextmanager
def split_roots():
    """Record the root of every cluster the per-root assembly handles."""
    calls = []
    real = delta._split_cluster

    def spy(graph, graph_order, root, *args):
        calls.append(root)
        return real(graph, graph_order, root, *args)

    with mock.patch.object(delta, "_split_cluster", spy):
        yield calls


# ----------------------------------------------------------------------
# random final states with broken trees
# ----------------------------------------------------------------------
#: Corruptions of a clustering grown with valid trees: a node moved to
#: another root, a parent outside the cluster or not adjacent, a parent
#: cycle, a node that never joined, a crashed node (roots included) and a
#: tree edge cut from the graph, which can split a cluster.
CORRUPTIONS = ("reroot", "reparent", "orphan", "cycle", "never", "kill", "cut")


def _ids(kind: str, values: list[int]) -> list:
    if kind == "int":
        return values
    if kind == "str":
        return [f"n{v}" for v in values]
    return [(v % 3, v) for v in values]


@st.composite
def final_states(draw):
    """(graph, final state, dead nodes, adjacency or None)."""
    kind = draw(st.sampled_from(("int", "str", "tuple")))
    n = draw(st.integers(1, 20))
    ids = _ids(kind, draw(st.lists(st.integers(-40, 400), min_size=n, max_size=n, unique=True)))
    graph = nx.Graph()
    graph.add_nodes_from(ids)
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    graph.add_edges_from((ids[a], ids[b]) for a, b in draw(st.lists(pairs, max_size=3 * n)))
    position = {v: i for i, v in enumerate(ids)}

    # Clusters with valid trees, grown breadth- or depth-first from seeds.
    roots, parents = [-1] * n, [-1] * n
    for seed in draw(st.permutations(range(n))):
        if roots[seed] >= 0:
            continue
        limit = draw(st.integers(1, n))
        depth_first = draw(st.booleans())
        roots[seed], frontier, count = seed, [seed], 1
        while frontier and count < limit:
            v = frontier.pop() if depth_first else frontier.pop(0)
            for w in graph.adj[ids[v]]:
                j = position[w]
                if roots[j] < 0 and count < limit:
                    roots[j], parents[j] = seed, v
                    frontier.append(j)
                    count += 1

    dead: set[int] = set()
    corruption = st.tuples(st.sampled_from(CORRUPTIONS), st.integers(0, n - 1), st.integers(0, n - 1))
    for op, i, j in draw(st.lists(corruption, max_size=5)):
        if op == "reroot":
            roots[i] = j
        elif op == "reparent":
            parents[i] = j
        elif op == "orphan":
            parents[i] = -1
        elif op == "cycle" and i != j:
            parents[i], parents[j], roots[j] = j, i, roots[i]
        elif op == "never":
            roots[i] = parents[i] = -1
        elif op == "kill":
            dead.add(i)
        elif op == "cut" and parents[i] >= 0 and graph.has_edge(ids[i], ids[parents[i]]):
            graph.remove_edge(ids[i], ids[parents[i]])
    graph.remove_nodes_from(ids[i] for i in dead)

    # The engine's node list: graph order or another order.
    order = list(range(n)) if draw(st.booleans()) else draw(st.permutations(range(n)))
    relabel = {old: new for new, old in enumerate(order)}
    nodes = [ids[i] for i in order]
    values = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
    end = FinalState(
        nodes=nodes,
        roots=np.array([relabel[roots[i]] if roots[i] >= 0 else -1 for i in order], np.int64),
        parents=np.array([relabel[parents[i]] if parents[i] >= 0 else -1 for i in order], np.int64),
        features=[np.array([float(values[i])]) for i in order],
        clustered_at=np.zeros(n),
        switches=np.zeros(n, np.int64),
        protocol_done=[],
    )
    if draw(st.booleans()):
        adjacency_arrays(graph)  # the graph keeps the CSR an engine read
    return graph, end, {ids[i] for i in dead}


@settings(max_examples=400, derandomize=True, deadline=None)
@given(final_states())
def test_array_assembly_equals_oracle_on_random_final_states(case):
    """``run_elink``'s assembly of a final state: dead nodes dropped, a node
    that never joined its own root."""
    graph, end, dead = case
    n = len(end.nodes)
    alive = np.array([i for i, v in enumerate(end.nodes) if v not in dead], dtype=np.int64)
    roots = np.where(end.roots >= 0, end.roots, np.arange(n))
    with split_roots() as calls:
        got = clustering_from_arrays(
            graph, end.nodes, roots, end.parents, end.features, members=alive
        )
    assert_same_clustering(got, assembly_oracle.final_state_assembly(graph, end, dead))
    assignment, parents, _, _ = assembly_oracle.final_state_dicts(end, dead)
    assert calls == broken_roots(graph, assignment, parents)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(final_states(), st.booleans(), st.booleans())
def test_dict_assembly_equals_oracle(case, with_parents, with_root_features):
    """``clustering_from_assignment`` on the same dicts, with and without
    parents and root features (roots that are not assigned included)."""
    graph, end, dead = case
    assignment, parents, features, root_features = assembly_oracle.final_state_dicts(end, dead)
    kwargs = {}
    if with_parents:
        kwargs["parents"] = parents
    if with_root_features:
        kwargs["root_features"] = root_features
    else:
        features = {**features, **root_features}  # absent roots read from features
    assert_same_clustering(
        clustering_from_assignment(graph, assignment, features, **kwargs),
        assembly_oracle.clustering_from_assignment(graph, assignment, features, **kwargs),
    )


# ----------------------------------------------------------------------
# ELink runs: every assembly equals the oracle on the same final state
# ----------------------------------------------------------------------
@contextlib.contextmanager
def recorded_assemblies(handlers: bool = False):
    """Record ``(final state, graph, members, clustering)`` of every
    ``run_elink`` assembly in the block (*handlers*: decline the batch path)."""
    ends, runs = [], []
    real_batch, real_handlers = elink_vec.try_run_vectorized, elink._run_handlers
    real_assembly = elink.clustering_from_arrays

    def batch(*args, **kwargs):
        end = None if handlers else real_batch(*args, **kwargs)
        if end is not None:
            ends.append(end)
        return end

    def per_message(*args, **kwargs):
        ends.append(real_handlers(*args, **kwargs))
        return ends[-1]

    def assembly(graph, nodes, roots, parents, features, **kwargs):
        clustering = real_assembly(graph, nodes, roots, parents, features, **kwargs)
        runs.append((ends[-1], graph, kwargs["members"], clustering))
        return clustering

    with mock.patch.object(elink_vec, "try_run_vectorized", batch), mock.patch.object(
        elink, "_run_handlers", per_message
    ), mock.patch.object(elink, "clustering_from_arrays", assembly):
        yield runs


def check_runs(runs, expected: int) -> None:
    """Each recorded assembly equals the oracle on its final state."""
    assert len(runs) == expected
    for end, graph, members, clustering in runs:
        alive = set(members.tolist())
        dead = {v for i, v in enumerate(end.nodes) if i not in alive}
        assert_same_clustering(clustering, assembly_oracle.final_state_assembly(graph, end, dead))


def old_result_fields(end, dead, clustering) -> tuple:
    """Completion time, switches and repaired components as the dict
    assembly computed them (a NaN join time: the node never joined)."""
    assignment, _, _, _ = assembly_oracle.final_state_dicts(end, dead)
    joined = zip(end.nodes, end.clustered_at.tolist())
    completion = max((t for v, t in joined if not math.isnan(t) and v not in dead), default=0.0)
    switches = sum(s for v, s in zip(end.nodes, end.switches) if v not in dead)
    repaired = max(clustering.num_clusters - len(set(assignment.values())), 0)
    return completion, switches, repaired


@pytest.mark.parametrize("topology_kind", ["grid", "geometric"])
@pytest.mark.parametrize(
    ("handlers", "signalling"),
    [(False, "implicit"), (True, "implicit"), (True, "explicit")],
    ids=["batch-implicit", "handlers-implicit", "handlers-explicit"],
)
def test_engine_equivalence_scenarios(topology_kind, signalling, handlers):
    topology = test_engine_equivalence._topology(topology_kind)
    with recorded_assemblies(handlers) as runs:
        result = test_engine_equivalence._vec_run(topology, signalling)
    check_runs(runs, 1)
    end, graph, _, clustering = runs[0]
    # The batch engine's node list is the graph's CSR node list.
    assert (adjacency_arrays(graph)[0] is end.nodes) is not handlers
    assert (
        result.completion_time, result.total_switches, result.repaired_components
    ) == old_result_fields(end, set(), clustering)


@pytest.mark.parametrize("scenario", list(test_engine_equivalence.GOLDEN_TRACES))
def test_golden_trace_scenarios(scenario):
    with recorded_assemblies() as runs:
        test_engine_equivalence._golden_run(scenario, Tracer(capacity=1))
    check_runs(runs, 1)


@pytest.mark.parametrize("seed", range(20))
def test_churn_only_runs(seed):
    with recorded_assemblies() as runs:
        test_faults.test_churn_only_run_returns_a_valid_clustering(seed)
    check_runs(runs, 1)


def test_chaos_1000_deployment():
    """50 nodes crash and 6 survivors never join (NaN join times): the
    result's completion time and switches count the survivors only."""
    dataset = generate_synthetic_dataset(1_000, seed=3, readings=200)
    stream_measurements(dataset, 50, seed=3)
    results = []

    def run_and_keep(*args, **kwargs):
        results.append(run_elink(*args, **kwargs))
        return results[-1]

    with recorded_assemblies() as runs, mock.patch.object(
        test_engine_equivalence, "run_elink", run_and_keep
    ):
        outputs = test_engine_equivalence._chaos_1000_run(dataset)
    assert outputs == test_engine_equivalence.CHAOS_1000_PIN
    check_runs(runs, 1)
    end, _, members, clustering = runs[0]
    assert members.size == len(end.nodes) - test_engine_equivalence.CHAOS_1000_PIN[3]
    assert np.isnan(end.clustered_at[members]).sum() == 6
    dead = set(end.nodes) - {end.nodes[i] for i in members.tolist()}
    result = results[0]
    assert (
        result.completion_time, result.total_switches, result.repaired_components
    ) == old_result_fields(end, dead, clustering)


def test_scale_40k_seed_3():
    """The ``--max-n`` rung at 4·10⁴ nodes: the assembly reads the batch
    engine's CSR, 6 clusters take the per-root assembly and the result
    matches."""
    dataset = generate_synthetic_dataset(40_000, seed=3, readings=200)
    with recorded_assemblies() as runs, split_roots() as calls:
        result = run_elink(
            dataset.topology, dataset.features, dataset.metric(), ELinkConfig(delta=0.05)
        )
    check_runs(runs, 1)
    end, graph, _, clustering = runs[0]
    assert graph is dataset.topology.graph
    assert adjacency_arrays(graph)[0] is end.nodes  # the engine's CSR, not a second build
    assert (result.num_clusters, result.total_messages) == (33_605, 164_547)
    assert len(calls) == result.repaired_components == 6
    assert (
        result.completion_time, result.total_switches, result.repaired_components
    ) == old_result_fields(end, set(), clustering)


def test_assembly_reads_the_assembly_graphs_rows():
    """A network over another graph object runs the batch engine on that
    graph's rows (``Graph.copy()`` reorders 11,511 of the 40,000 rows of
    the 4·10⁴ seed-3 topology); the assembly runs on the topology's graph,
    so it reads that graph's CSR, not the engine's.  Here
    the two graphs list node 0's neighbours in opposite orders, and the
    cluster {0, 8, 16} comes out in the order of the topology's rows."""
    graph = nx.Graph([(0, 8), (0, 16)])
    other = nx.Graph()
    other.add_nodes_from(graph)
    other.add_edges_from([(0, 16), (0, 8)])
    positions = {0: (1.0, 1.0), 8: (0.0, 1.0), 16: (2.0, 1.0)}
    features = {v: np.array([0.0]) for v in graph}
    with recorded_assemblies() as runs:
        result = run_elink(
            Topology(graph, positions), features, EuclideanMetric(), ELinkConfig(delta=1.0),
            network=Network(other),
        )
    check_runs(runs, 1)
    end, assembled_on, _, _ = runs[0]
    assert assembled_on is graph
    assert adjacency_arrays(other)[0] is end.nodes  # the batch engine ran
    assert adjacency_arrays(graph)[0] is not end.nodes
    assert list(result.clustering.assignment) == [0, 8, 16]


def test_one_csr_build_per_graph_state():
    """A batch run, the backbone over its clustering and a second run on
    one unmutated topology read one CSR: every ``adjacency_arrays`` call
    of the engine, the assembly and the backbone returns the tuple the
    engine's first call built."""
    dataset = generate_synthetic_dataset(1_000, seed=3, readings=200)
    graph = dataset.topology.graph
    config = ELinkConfig(delta=0.05)
    calls = []

    def recorded(graph):
        calls.append(adjacency_arrays(graph))
        return calls[-1]

    with mock.patch.object(elink_vec, "adjacency_arrays", recorded), mock.patch.object(
        delta, "adjacency_arrays", recorded
    ), mock.patch.object(backbone, "adjacency_arrays", recorded):
        first = run_elink(dataset.topology, dataset.features, dataset.metric(), config)
        backbone.build_backbone(graph, first.clustering)
        second = run_elink(dataset.topology, dataset.features, dataset.metric(), config)
    assert len(calls) == 5  # engine, assembly, backbone, engine, assembly
    assert all(arrays is calls[0] for arrays in calls)
    assert_same_clustering(second.clustering, first.clustering)
