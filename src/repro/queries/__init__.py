"""Query processing over the clustered network (paper §7.2–7.3, §8.6).

The range, k-NN and path engines each run their M-tree and backbone plans
over one shared :class:`~repro.queries.context.QueryContext` (features,
crash context, backbone fan-out, coverage and accounting).  Besides the
engines and TAG flooding, the package ships a serving layer: a cost-model
:class:`~repro.queries.planner.QueryPlanner` that picks the cheapest
strategy per query, a generation-swept
:class:`~repro.queries.result_cache.QueryResultCache`, and the
``repro query-bench`` load-replay driver in :mod:`repro.queries.load`.
See ``docs/QUERYING.md`` for the full guide.
"""

from repro.queries.context import QueryContext
from repro.queries.knn import KnnQueryEngine, KnnResult, brute_force_knn
from repro.queries.load import (
    MIXES,
    ScenarioSpec,
    WorkloadSpec,
    build_scenario,
    generate_workload,
    replay,
    validate_queries_block,
    warm_cache_pass,
)
from repro.queries.path_query import (
    PathQueryEngine,
    PathQueryResult,
    bfs_flood_path,
    maximin_safe_path,
)
from repro.queries.planner import (
    PLAN_BACKENDS,
    PlannedResult,
    QueryPlan,
    QueryPlanner,
    canonical_answer,
)
from repro.queries.range_query import (
    RangeQueryEngine,
    RangeQueryResult,
    brute_force_range,
)
from repro.queries.result_cache import QueryResultCache
from repro.queries.tag import TagEngine, TagQueryResult

__all__ = [
    "KnnQueryEngine",
    "KnnResult",
    "MIXES",
    "PLAN_BACKENDS",
    "PathQueryEngine",
    "PathQueryResult",
    "PlannedResult",
    "QueryContext",
    "QueryPlan",
    "QueryPlanner",
    "QueryResultCache",
    "RangeQueryEngine",
    "RangeQueryResult",
    "ScenarioSpec",
    "TagEngine",
    "TagQueryResult",
    "WorkloadSpec",
    "bfs_flood_path",
    "brute_force_knn",
    "brute_force_range",
    "build_scenario",
    "canonical_answer",
    "generate_workload",
    "maximin_safe_path",
    "replay",
    "validate_queries_block",
    "warm_cache_pass",
]
