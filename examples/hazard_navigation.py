"""Hazard navigation — the paper's path-query scenario (§7.3).

Sensors scattered over Death-Valley-like terrain report elevation; a storm
makes high ground dangerous, so a rescue team must route from a source
sensor to a destination while staying at least γ metres of "feature
distance" below the ridge.  The clustered path-query engine classifies
whole clusters as safe or unsafe from their root summaries, drills the
M-tree only at the boundary, and searches the safe regions — far cheaper
than flooding the query through the network.

Run:  python examples/hazard_navigation.py
"""

import numpy as np

from repro import (
    ELinkConfig,
    PathQueryEngine,
    QueryContext,
    bfs_flood_path,
    build_mtree,
    run_elink,
)
from repro.datasets import generate_death_valley_dataset

DELTA = 150.0  # clustering threshold in metres of elevation
GAMMA = 500.0  # required safety margin below the ridge


def main() -> None:
    dataset = generate_death_valley_dataset(seed=11, num_sensors=600)
    metric = dataset.metric()
    graph = dataset.topology.graph
    print(f"terrain network   : {dataset.topology.num_nodes} sensors")

    clustering = run_elink(
        dataset.topology, dataset.features, metric, ELinkConfig(delta=DELTA)
    ).clustering
    print(f"elevation clusters: {clustering.num_clusters} (delta={DELTA} m)")

    mtree = build_mtree(clustering, dataset.features, metric)
    engine = PathQueryEngine(QueryContext(clustering, dataset.features, metric, mtree), graph)

    danger = np.array([1996.0])  # the ridge line's elevation
    # Source: the lowest-lying sensor.  Destination: the safe sensor
    # spatially farthest from it — a route across the whole valley.
    nodes = sorted(graph.nodes, key=lambda v: dataset.features[v][0])
    source = nodes[0]
    positions = dataset.topology.positions
    safe = [
        v for v in graph.nodes
        if metric.distance(dataset.features[v], danger) >= GAMMA
    ]
    # Stay within the source's safe region so a route exists; the engines
    # are still free to (dis)agree on that.
    import networkx as nx

    reachable = nx.node_connected_component(graph.subgraph(safe), source)
    destination = max(
        reachable,
        key=lambda v: (positions[v][0] - positions[source][0]) ** 2
        + (positions[v][1] - positions[source][1]) ** 2,
    )
    print(
        f"query             : route {source} -> {destination} staying "
        f">= {GAMMA} m below the ridge"
    )

    ours = engine.query(source, destination, danger, GAMMA)
    flood = bfs_flood_path(
        graph, dataset.features, metric, source, destination, danger, GAMMA
    )
    assert (ours.path is None) == (flood.path is None)

    if ours.path is None:
        print("result            : no safe path exists (flood agrees)")
    else:
        worst = min(metric.distance(dataset.features[v], danger) for v in ours.path)
        print(f"result            : safe path with {len(ours.path)} hops")
        print(f"safety margin     : every hop >= {worst:.0f} m from the ridge")
        print(
            f"cost              : clustered {ours.messages} messages vs "
            f"flooding {flood.messages} "
            f"({flood.messages / max(ours.messages, 1):.1f}x more)"
        )
    print(f"safe sensors      : {ours.safe_nodes}/{dataset.topology.num_nodes}")
    print(f"clusters drilled  : {ours.clusters_drilled} (boundary only)")


if __name__ == "__main__":
    main()
