"""Assorted behaviour tests for smaller surfaces across the package."""

import networkx as nx
import numpy as np
import pytest

from repro.core import ELinkConfig, run_elink
from repro.features import EuclideanMetric
from repro.geometry import QuadTreeDecomposition, grid_topology
from repro.queries import TagEngine
from repro.sim import EventKernel, Message, Network


def test_elink_result_message_partition(random_topology, random_features):
    result = run_elink(
        random_topology,
        random_features,
        EuclideanMetric(),
        ELinkConfig(delta=1.0, signalling="explicit"),
    )
    assert result.total_messages == result.clustering_messages + result.sync_messages
    assert "explicit" in repr(result)


def test_quadtree_sentinels_at_returns_copies(small_grid):
    decomposition = QuadTreeDecomposition(small_grid)
    level0 = decomposition.sentinels_at(0)
    level0.append("junk")
    assert decomposition.sentinels_at(0) != level0  # internal list untouched


def test_tag_overlay_is_bfs_tree_from_base(random_topology, random_features):
    base = next(iter(random_topology.graph.nodes))
    tag = TagEngine(random_topology.graph, random_features, EuclideanMetric(), base)
    # Every overlay edge is a communication edge; the overlay spans all nodes.
    assert set(tag.overlay.nodes) == set(random_topology.graph.nodes)
    for a, b in tag.overlay.edges:
        assert random_topology.graph.has_edge(a, b)


def test_broadcast_on_isolated_node():
    graph = nx.Graph()
    graph.add_nodes_from([0, 1])
    graph.add_edge(0, 1)
    graph.add_node(2)  # isolated
    network = Network(graph)
    count = network.broadcast(2, "feature")
    assert count == 0


def test_experiment_table_column_missing_key():
    from repro.experiments.common import ExperimentTable

    table = ExperimentTable("t", "T", columns=("a",))
    table.add_row(a=1)
    with pytest.raises(KeyError):
        table.column("b")


def test_cluster_summary_top_parameter(small_grid, small_grid_features):
    from repro.viz import cluster_summary

    clustering = run_elink(
        small_grid, small_grid_features, EuclideanMetric(), ELinkConfig(delta=0.3)
    ).clustering
    assert clustering.num_clusters > 2
    text = cluster_summary(clustering, small_grid_features, top=2)
    assert text.count("root=") == 2


def test_render_field_explicit_height(small_grid, small_grid_features):
    from repro.viz import render_field

    values = {v: small_grid_features[v][0] for v in small_grid.graph.nodes}
    art = render_field(small_grid, values, width=12, height=4)
    assert len(art.split("\n")) == 4


def test_grid_spacing_scales_bounds():
    a = grid_topology(3, 3, spacing=1.0)
    b = grid_topology(3, 3, spacing=2.0)
    assert b.bounds.width == pytest.approx(2 * a.bounds.width)


def test_message_repr_and_category_override():
    message = Message("expand", 0, 1, category="custom")
    assert message.category == "custom"


def test_kernel_repr_mentions_pending():
    kernel = EventKernel()
    kernel.schedule(1.0, lambda: None)
    assert "pending=1" in repr(kernel)
