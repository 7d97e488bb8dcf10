"""Micro-benchmarks for the core operations (true repeated-timing benches).

These complement the one-shot figure benches with per-operation timings:
ELink clustering throughput, topology edges and component stitching,
quadtree, M-tree and backbone construction, the clustering assembly,
and per-query costs.
"""

import math
from unittest import mock

import networkx as nx
import numpy as np
import pytest

import repro.core.elink_vec as elink_vec
from repro.core import ELinkConfig, run_elink
from repro.core.delta import clustering_from_arrays
from repro.datasets.death_valley import generate_death_valley_dataset
from repro.datasets.synthetic import generate_synthetic_dataset
from repro.features import EuclideanMetric
from repro.geometry import QuadTreeDecomposition, grid_topology, random_geometric_topology
from repro.geometry.topology import (
    SPATIAL_HASH_MIN_N,
    _range_graph,
    _stitch_components,
    _stitch_components_grid,
)
from repro.index import build_backbone, build_mtree
from repro.queries import QueryContext, RangeQueryEngine
from repro.sim import EventKernel, Message, Network, ProtocolNode
from repro.sim.radio import LossyLinkModel


def _gradient_instance(side):
    topology = grid_topology(side, side)
    rng = np.random.default_rng(0)
    features = {
        v: np.array(
            [0.05 * (topology.positions[v][0] + topology.positions[v][1])
             + rng.normal(0, 0.01)]
        )
        for v in topology.graph.nodes
    }
    return topology, features


@pytest.mark.parametrize("side", [10, 20])
def test_elink_implicit_clustering(benchmark, side):
    topology, features = _gradient_instance(side)
    metric = EuclideanMetric()

    result = benchmark(
        run_elink, topology, features, metric, ELinkConfig(delta=0.4)
    )
    assert result.num_clusters >= 1


def test_elink_explicit_clustering(benchmark):
    topology, features = _gradient_instance(12)
    metric = EuclideanMetric()
    result = benchmark(
        run_elink,
        topology,
        features,
        metric,
        ELinkConfig(delta=0.4, signalling="explicit"),
    )
    assert result.num_clusters >= 1


def test_explicit_elink_grid(benchmark):
    """Explicit signalling on a 50x50 grid (δ = 0.5), which only the
    per-message handler engine runs: every sentinel message is charged by
    hop count, so the run leans on ``Network.hop_distance``'s distance
    trees."""
    topology, features = _gradient_instance(50)
    config = ELinkConfig(delta=0.5, signalling="explicit")
    result = benchmark.pedantic(
        run_elink, args=(topology, features, EuclideanMetric(), config), rounds=3, iterations=1
    )
    assert result.total_messages == 34_690


def test_mtree_build(benchmark):
    topology, features = _gradient_instance(15)
    metric = EuclideanMetric()
    clustering = run_elink(topology, features, metric, ELinkConfig(delta=0.4)).clustering
    index = benchmark(build_mtree, clustering, features, metric)
    assert index.build_messages > 0


class _Sink(ProtocolNode):
    """Counts deliveries; the cheapest possible endpoint."""

    def __init__(self, node_id, network):
        super().__init__(node_id, network, np.zeros(1))
        self.count = 0

    def handle_message(self, message):
        self.count += 1


_LINK_MODELS = {
    "fast": {},  # jitter=0, no loss: the zero-overhead delivery path
    "jittery": {"jitter": 0.3},
    "lossy": {"loss": lambda: LossyLinkModel(0.2, seed=0)},
}


def _delivery_network(model, side=12):
    kwargs = dict(_LINK_MODELS[model])
    if "loss" in kwargs:
        kwargs["loss"] = kwargs["loss"]()
    topology = grid_topology(side, side)
    network = Network(topology.graph, **kwargs)
    nodes = {v: _Sink(v, network) for v in topology.graph.nodes}
    return network, nodes


@pytest.mark.parametrize("model", ["fast", "jittery", "lossy"])
def test_send_throughput(benchmark, model):
    """Single-hop delivery throughput: fast path vs jitter vs ARQ loss."""
    network, nodes = _delivery_network(model)
    edges = list(network.graph.edges)

    def burst():
        for a, b in edges:
            network.send(Message("feature", a, b))
        network.run()

    benchmark(burst)
    assert sum(n.count for n in nodes.values()) > 0


def test_send_throughput_traced(benchmark):
    """Single-hop fast-path delivery with a tracer attached.

    The untraced ``test_send_throughput[fast]`` is the zero-cost-when-
    disabled reference; the gap between the two is the full price of
    tracing (event construction + ring append), paid only by opted-in
    runs.
    """
    from repro.obs import Tracer

    topology = grid_topology(12, 12)
    tracer = Tracer()
    network = Network(topology.graph, tracer=tracer)
    nodes = {v: _Sink(v, network) for v in topology.graph.nodes}
    edges = list(network.graph.edges)

    def burst():
        for a, b in edges:
            network.send(Message("feature", a, b))
        network.run()

    benchmark(burst)
    assert sum(n.count for n in nodes.values()) > 0
    assert tracer.emitted > 0


@pytest.mark.parametrize("model", ["fast", "jittery", "lossy"])
def test_route_throughput(benchmark, model):
    """Multi-hop routing throughput (hop counts from distance trees +
    per-hop model)."""
    network, nodes = _delivery_network(model)
    corners = [0, 11, 132, 143]

    def burst():
        for src in corners:
            for dst in corners:
                if src != dst:
                    network.route(Message("query", src, dst, values=4))
        network.run()

    benchmark(burst)
    assert sum(n.count for n in nodes.values()) > 0


@pytest.mark.parametrize("n", [1_000, 10_000, 40_000])
def test_quadtree_build(benchmark, n):
    """The columnar sentinel-hierarchy build, at a chaos-sized and a
    scale-sized geometric network, and on scale_40k's input (fig13's
    4·10⁴ synthetic rung, seed 3): 11 levels, whose last four keep
    39,317, 25,605, 5,082 and 223 members once closed cells leave."""
    if n == 40_000:
        topology = generate_synthetic_dataset(n, seed=3, readings=200).topology
    else:
        topology = random_geometric_topology(n, seed=3)
    decomposition = benchmark(QuadTreeDecomposition, topology)
    assert sum(map(len, decomposition.sentinel_sets)) == n


def _generation_input(name):
    """Node ids, coordinates and radio range of one generation input."""
    if name == "death_valley_5000":
        positions = generate_death_valley_dataset(seed=11, num_sensors=5_000).topology.positions
        ids = list(positions)
        side = 128.0  # the terrain's side at the default exponent 7
        radio = side * math.sqrt(6.0 / (math.pi * (len(ids) - 1)))
        return ids, np.asarray([positions[v] for v in ids]), radio
    n = int(name.split("_")[1])
    side = math.sqrt(n / 0.8)
    coords = np.random.default_rng(3).uniform(0.0, side, size=(n, 2))
    return range(n), coords, side * math.sqrt(4.0 / (math.pi * (n - 1)))


@pytest.mark.parametrize("layer", ["edges", "stitch"])
@pytest.mark.parametrize(
    "name", ["geometric_2500", "geometric_40000", "geometric_100000", "death_valley_5000"]
)
def test_topology_generation(benchmark, name, layer):
    """The two generation layers: topology edges (the cell join and graph
    build) and component stitching, at the first ``--max-n`` rung, the
    scale_40k size and the 10⁵ rung (cell-grouped order, centroid-MST
    stitch over 2,310 and 5,575 components) and Death Valley's largest
    scatter."""
    ids, coords, radio = _generation_input(name)
    grouped = name.startswith("geometric") and len(ids) >= SPATIAL_HASH_MIN_N
    if layer == "edges":
        graph = benchmark(_range_graph, ids, coords, radio, grouped=grouped)
        assert list(graph) == list(ids)
        return
    edges = _range_graph(ids, coords, radio, grouped=grouped)

    def stitch(graph):
        if grouped:
            _stitch_components_grid(graph, coords)
        else:
            _stitch_components(graph, coords, ids)
        return graph

    graph = benchmark.pedantic(
        stitch, setup=lambda: ((edges.copy(),), {}), rounds=5, iterations=1
    )
    assert nx.is_connected(graph)


def test_backbone_build(benchmark):
    # Spatial-hash generation (N >= 4096) keeps the setup under a second.
    topology = random_geometric_topology(5_000, seed=3)
    features = {
        v: np.array([x + 0.5 * y]) for v, (x, y) in topology.positions.items()
    }
    clustering = run_elink(
        topology, features, EuclideanMetric(), ELinkConfig(delta=0.4)
    ).clustering
    backbone = benchmark(build_backbone, topology.graph, clustering)
    assert backbone.tree.number_of_edges() == clustering.num_clusters - 1


def test_clustering_assembly(benchmark):
    """The ELink assembly on the 4·10⁴-node seed-3 final state (the
    ``--max-n`` rung and scale_40k), captured once from the batch engine,
    whose CSR the graph keeps: the numpy tree check over 33,605 clusters,
    the member order of the 4,976 larger ones and the per-root code for
    the 6 that split."""
    dataset = generate_synthetic_dataset(40_000, seed=3, readings=200)
    ends = []
    batch_path = elink_vec.try_run_vectorized

    def capture(*args, **kwargs):
        ends.append(batch_path(*args, **kwargs))
        return ends[-1]

    with mock.patch.object(elink_vec, "try_run_vectorized", capture):
        run_elink(dataset.topology, dataset.features, dataset.metric(), ELinkConfig(delta=0.05))
    end = ends[0]
    roots = np.where(end.roots >= 0, end.roots, np.arange(len(end.nodes)))
    clustering = benchmark(
        clustering_from_arrays,
        dataset.topology.graph,
        end.nodes,
        roots,
        end.parents,
        end.features,
    )
    assert clustering.num_clusters == 33_605


@pytest.fixture(scope="module")
def scale_40k_clustering():
    """fig13's 4·10⁴ seed-3 rung clustered at δ = 0.05 (scale_40k's op)."""
    dataset = generate_synthetic_dataset(40_000, seed=3, readings=200)
    metric = dataset.metric()
    result = run_elink(dataset.topology, dataset.features, metric, ELinkConfig(delta=0.05))
    return dataset, metric, result.clustering


@pytest.mark.parametrize("layer", ["mtree", "backbone"])
def test_index_build(benchmark, scale_40k_clustering, layer):
    """The index build over 33,605 clusters, 28,629 of them singletons:
    the M-tree over 6,395 tree edges, and the backbone over 62,345 root
    pairs, 53,515 of them between neighbouring roots, for 33,604 tree
    edges, 31,606 of them one hop long."""
    dataset, metric, clustering = scale_40k_clustering
    if layer == "mtree":
        index = benchmark(build_mtree, clustering, dataset.features, metric)
        assert index.build_messages == 12_790
    else:
        backbone = benchmark(build_backbone, dataset.topology.graph, clustering)
        assert backbone.build_messages == 71_714


def test_range_query_latency(benchmark):
    topology, features = _gradient_instance(15)
    metric = EuclideanMetric()
    clustering = run_elink(topology, features, metric, ELinkConfig(delta=0.4)).clustering
    mtree = build_mtree(clustering, features, metric)
    backbone = build_backbone(topology.graph, clustering)
    engine = RangeQueryEngine(QueryContext(clustering, features, metric, mtree, backbone))
    q = features[0]
    out = benchmark(engine.query, q, 0.3, 0)
    assert out.messages >= 0


# ----------------------------------------------------------------------
# kernel scheduling: timestamp buckets
# ----------------------------------------------------------------------
@pytest.mark.parametrize("pending", [1_000, 10_000, 100_000])
def test_kernel_post_fire_throughput(benchmark, pending):
    """Post `pending` fire-and-forget events over 64 distinct timestamps
    (the simulator's repeated-timestamp regime), then drain them.

    Each post is an O(1) append to an existing timestamp bucket; the three
    sizes should scale linearly.
    """
    sink = _noop

    def post_and_fire():
        kernel = EventKernel()
        post = kernel.post
        for i in range(pending):
            post(float(i & 63), sink)
        kernel.run()
        return kernel.events_executed

    executed = benchmark.pedantic(post_and_fire, rounds=3, iterations=1)
    assert executed == pending


def _noop():
    return None


# ----------------------------------------------------------------------
# incremental adjacency patching: churn cost must not scale with N
# ----------------------------------------------------------------------
@pytest.mark.parametrize("side", [20, 40, 80])
def test_churn_mutation_cost(benchmark, side):
    """1k link flaps on grids of 400/1600/6400 nodes.

    Before the incremental patch, every mutation rebuilt the full
    adjacency (O(N+E) per event) and this bench scaled with `side`²;
    patched, the per-event cost is bounded by the two endpoint degrees
    and the three curves should sit on top of each other.
    """
    topology = grid_topology(side, side)
    network = Network(topology.graph)
    edges = list(network.graph.edges)[:500]

    def flap():
        for u, v in edges:
            network.remove_edge(u, v)
            network.restore_edge(u, v)

    benchmark.pedantic(flap, rounds=3, iterations=1)
    assert network.graph.number_of_edges() == topology.graph.number_of_edges()


# ----------------------------------------------------------------------
# flood: broadcasts on the jitter=0 fast path
# ----------------------------------------------------------------------
def test_flood_throughput(benchmark):
    """Broadcast storm on a 2500-node geometric graph: every node emits 16
    waves before the kernel drains, matching the in-flight population of a
    10⁵-node expand wave.  Each broadcast is one ``send`` of a ``Message``
    per neighbour; the copies share delivery cohorts, and each is
    delivered through ``_deliver``."""
    from repro.geometry import random_geometric_topology

    topology = random_geometric_topology(2500, seed=3)

    def storm():
        network = Network(topology.graph)
        sinks = {v: _Sink(v, network) for v in network.graph.nodes}
        nodes = list(network.graph.nodes)
        for _ in range(16):
            for node in nodes:
                network.broadcast(node, "feature")
        network.run()
        return sum(s.count for s in sinks.values())

    delivered = benchmark.pedantic(storm, rounds=3, iterations=1)
    assert delivered == 16 * 2 * topology.graph.number_of_edges()
