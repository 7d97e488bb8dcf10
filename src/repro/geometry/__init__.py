"""Topologies, bounding boxes and the quadtree sentinel hierarchy."""

from repro.geometry.quadtree import QuadTreeDecomposition
from repro.geometry.topology import (
    BoundingBox,
    Topology,
    grid_topology,
    random_geometric_topology,
    scatter_topology,
)

__all__ = [
    "BoundingBox",
    "QuadTreeDecomposition",
    "Topology",
    "grid_topology",
    "random_geometric_topology",
    "scatter_topology",
]
