"""End-to-end integration: dataset -> clustering -> index -> queries ->
maintenance, with invariants checked at every stage."""

import numpy as np

from repro.core import (
    CentralizedUpdateBaseline,
    ELinkConfig,
    MaintenanceSession,
    run_elink,
    validate_clustering,
)
from repro.datasets import fit_features, generate_tao_dataset
from repro.index import build_backbone, build_mtree, verify_covering_invariant
from repro.queries import (
    PathQueryEngine,
    QueryContext,
    RangeQueryEngine,
    TagEngine,
    bfs_flood_path,
    brute_force_range,
)

DELTA = 0.15
SLACK = 0.02


def test_full_pipeline_on_tao():
    dataset = generate_tao_dataset(
        seed=13, samples_per_day=24, training_days=10, stream_days=2
    )
    models, features = fit_features(dataset)
    metric = dataset.metric()
    topology = dataset.topology

    # 1. Cluster (both modes) and validate.
    implicit = run_elink(
        topology, features, metric, ELinkConfig(delta=DELTA - 2 * SLACK)
    )
    explicit = run_elink(
        topology,
        features,
        metric,
        ELinkConfig(delta=DELTA - 2 * SLACK, signalling="explicit"),
    )
    for result in (implicit, explicit):
        assert validate_clustering(
            topology.graph, result.clustering, features, metric, DELTA - 2 * SLACK
        ) == []
    assert explicit.sync_messages > 0

    # 2. Index: M-tree covering invariant + backbone spanning the roots.
    clustering = implicit.clustering
    mtree = build_mtree(clustering, features, metric)
    assert verify_covering_invariant(mtree, clustering, features, metric) == []
    backbone = build_backbone(topology.graph, clustering)
    assert set(backbone.tree.nodes) == set(clustering.roots)

    # 3. Range queries agree with brute force and undercut TAG on average.
    engine = RangeQueryEngine(QueryContext(clustering, features, metric, mtree, backbone))
    tag = TagEngine(topology.graph, features, metric)
    rng = np.random.default_rng(0)
    nodes = list(topology.graph.nodes)
    clustered_costs = []
    for _ in range(20):
        q = features[nodes[int(rng.integers(len(nodes)))]]
        radius = 0.8 * DELTA
        out = engine.query(q, radius, nodes[int(rng.integers(len(nodes)))])
        assert out.matches == brute_force_range(features, metric, q, radius)
        clustered_costs.append(out.messages)
    assert np.mean(clustered_costs) < tag.per_query_cost()

    # 4. Path queries agree with the flood baseline on feasibility.
    path_context = QueryContext(clustering, features, metric, mtree)
    path_engine = PathQueryEngine(path_context, topology.graph)
    danger = features[nodes[0]]
    for destination in nodes[1::7]:
        ours = path_engine.query(nodes[-1], destination, danger, gamma=0.05)
        flood = bfs_flood_path(
            topology.graph, features, metric, nodes[-1], destination, danger, 0.05
        )
        assert (ours.path is None) == (flood.path is None)

    # 5. Maintenance: stream a day of measurements; ELink update messages
    #    stay far below the centralized baseline.
    session = MaintenanceSession(
        topology.graph, clustering, features, metric, DELTA, SLACK
    )
    centralized = CentralizedUpdateBaseline(topology.graph, features, 0, SLACK)
    for t in range(24):
        for node in nodes:
            value = float(dataset.stream[node][t])
            feature = models[node].observe(value)
            session.update_feature(node, feature)
            centralized.update_feature(node, feature)
    assert centralized.total_messages() >= session.total_messages()

    # 6. The maintained clustering still covers every node, connected.
    final = session.current_clustering()
    assert sorted(final.assignment) == sorted(topology.graph.nodes)
    import networkx as nx

    for root, members in final.clusters().items():
        assert nx.is_connected(topology.graph.subgraph(members))


def test_public_api_surface():
    """Everything advertised in repro.__all__ resolves."""
    import repro

    for name in repro.__all__:
        assert getattr(repro, name) is not None
