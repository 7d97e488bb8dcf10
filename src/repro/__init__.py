"""repro — reproduction of *Distributed Spatial Clustering in Sensor
Networks* (Meka & Singh, EDBT 2006).

The package implements the paper's δ-clustering problem and the **ELink**
in-network clustering algorithm (implicit and explicit signalling), the
full sensor-network simulation substrate it runs on, the slack-based
dynamic maintenance layer, the distributed M-tree index with range and
path queries, every baseline the paper compares against, the datasets, and
an experiment harness regenerating every figure of the evaluation section.

Quickstart::

    import numpy as np
    from repro import (
        ELinkConfig, run_elink, EuclideanMetric, grid_topology,
    )

    topology = grid_topology(10, 10)
    features = {v: np.array([topology.positions[v][0]]) for v in
                topology.graph.nodes}
    result = run_elink(topology, features, EuclideanMetric(),
                       ELinkConfig(delta=2.0))
    print(result.num_clusters, result.total_messages)

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured comparison of every figure.
"""

from repro.baselines import (
    HierarchicalResult,
    SpanningForestResult,
    SpectralResult,
    SpectralSolver,
    centralized_collection_cost,
    run_hierarchical,
    run_spanning_forest,
    spectral_clustering_search,
)
from repro.core import (
    AcquisitionPlan,
    CentralizedUpdateBaseline,
    Clustering,
    ClusteringViolation,
    ELinkConfig,
    ELinkResult,
    MaintenanceSession,
    RepresentativeSampler,
    UpdateOutcome,
    clustering_from_assignment,
    run_elink,
    validate_clustering,
)
from repro.datasets import (
    generate_death_valley_dataset,
    generate_synthetic_dataset,
    generate_tao_dataset,
)
from repro.features import (
    EuclideanMetric,
    ManhattanMetric,
    MatrixMetric,
    Metric,
    TAO_WEIGHTS,
    WeightedEuclideanMetric,
)
from repro.geometry import (
    QuadTreeDecomposition,
    Topology,
    grid_topology,
    random_geometric_topology,
    scatter_topology,
)
from repro.index import BackboneTree, MTreeIndex, build_backbone, build_mtree
from repro.models import ARModel, RecursiveLeastSquares, TaoNodeModel, fit_ar
from repro.io import load_state, save_state
from repro.obs import KernelProfiler, MetricsRegistry, TraceInspector, Tracer, profiled
from repro.queries import (
    KnnQueryEngine,
    PathQueryEngine,
    QueryContext,
    RangeQueryEngine,
    TagEngine,
    bfs_flood_path,
    brute_force_knn,
    brute_force_range,
    maximin_safe_path,
)
from repro.sim import (
    EnergyModel,
    EventKernel,
    LossyLinkModel,
    Message,
    MessageStats,
    Network,
    ProtocolNode,
)

__version__ = "1.0.0"

__all__ = [
    "ARModel",
    "AcquisitionPlan",
    "BackboneTree",
    "CentralizedUpdateBaseline",
    "Clustering",
    "ClusteringViolation",
    "ELinkConfig",
    "ELinkResult",
    "EnergyModel",
    "EuclideanMetric",
    "EventKernel",
    "HierarchicalResult",
    "KernelProfiler",
    "KnnQueryEngine",
    "LossyLinkModel",
    "MTreeIndex",
    "MaintenanceSession",
    "MetricsRegistry",
    "ManhattanMetric",
    "MatrixMetric",
    "Message",
    "MessageStats",
    "Metric",
    "Network",
    "PathQueryEngine",
    "ProtocolNode",
    "QuadTreeDecomposition",
    "QueryContext",
    "RangeQueryEngine",
    "RecursiveLeastSquares",
    "RepresentativeSampler",
    "SpanningForestResult",
    "SpectralResult",
    "SpectralSolver",
    "TAO_WEIGHTS",
    "TagEngine",
    "TaoNodeModel",
    "Topology",
    "TraceInspector",
    "Tracer",
    "UpdateOutcome",
    "WeightedEuclideanMetric",
    "bfs_flood_path",
    "brute_force_knn",
    "brute_force_range",
    "build_backbone",
    "build_mtree",
    "centralized_collection_cost",
    "clustering_from_assignment",
    "fit_ar",
    "generate_death_valley_dataset",
    "generate_synthetic_dataset",
    "generate_tao_dataset",
    "grid_topology",
    "load_state",
    "maximin_safe_path",
    "profiled",
    "random_geometric_topology",
    "run_elink",
    "run_hierarchical",
    "run_spanning_forest",
    "save_state",
    "scatter_topology",
    "spectral_clustering_search",
    "validate_clustering",
]
