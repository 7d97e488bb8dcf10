"""Sea-surface-temperature monitoring — the paper's motivating scenario.

A 6x9 buoy array (the TAO layout) monitors ocean temperature.  Each buoy
fits a seasonal AR model to its measurements; ELink clusters the array into
temperature *zones* by model-coefficient similarity — the El-Nino-style
regime map of the paper's Fig 1.  On top of the clustering we answer the
motivating range query ("which regions behave like buoy X?") and stream a
week of measurements through the slack-based maintenance layer, comparing
its cost with shipping coefficients to a base station.

Run:  python examples/sst_monitoring.py
"""

import numpy as np

from repro import (
    CentralizedUpdateBaseline,
    ELinkConfig,
    MaintenanceSession,
    TagEngine,
    brute_force_range,
    build_backbone,
    build_mtree,
    run_elink,
)
from repro.datasets import fit_features, generate_tao_dataset
from repro.queries import QueryContext, RangeQueryEngine

DELTA = 0.08
SLACK = 0.01


def main() -> None:
    # 1. Data + models: a month of training, then the experiment stream.
    dataset = generate_tao_dataset(seed=7, samples_per_day=48, stream_days=7)
    models, features = fit_features(dataset)
    metric = dataset.metric()
    topology = dataset.topology
    print(f"buoy array        : {topology.num_nodes} buoys (6x9 grid)")

    # 2. In-network clustering into temperature zones.
    result = run_elink(
        topology, features, metric, ELinkConfig(delta=DELTA - 2 * SLACK)
    )
    print(f"zones found       : {result.num_clusters} (delta={DELTA}, slack={SLACK})")
    agreement = _zone_agreement(dataset, result.clustering)
    print(f"zone agreement    : {agreement:.0%} of node pairs grouped consistently")

    # 3. Range query: which buoys behave like buoy 0?
    mtree = build_mtree(result.clustering, features, metric)
    backbone = build_backbone(topology.graph, result.clustering)
    engine = RangeQueryEngine(
        QueryContext(result.clustering, features, metric, mtree, backbone)
    )
    tag = TagEngine(topology.graph, features, metric)
    q = features[0]
    radius = 0.8 * DELTA
    answer = engine.query(q, radius, initiator=53)
    truth = brute_force_range(features, metric, q, radius)
    assert answer.matches == truth
    print(
        f"range query       : {len(answer.matches)} buoys behave like buoy 0 "
        f"(cost {answer.messages} vs TAG's fixed {tag.per_query_cost()})"
    )

    # 4. Stream a week of measurements through the maintenance layer.
    session = MaintenanceSession(
        topology.graph, result.clustering, features, metric, DELTA, SLACK
    )
    centralized = CentralizedUpdateBaseline(topology.graph, features, 0, SLACK)
    nodes = list(topology.graph.nodes)
    for t in range(7 * dataset.samples_per_day):
        for node in nodes:
            feature = models[node].observe(float(dataset.stream[node][t]))
            session.update_feature(node, feature)
            centralized.update_feature(node, feature)
    print(
        f"week of updates   : ELink maintenance {session.total_messages()} messages "
        f"vs centralized {centralized.total_messages()} "
        f"({centralized.total_messages() / max(session.total_messages(), 1):.1f}x more)"
    )
    print(f"zones after week  : {session.current_clustering().num_clusters}")

    # 5. Representative sampling (the paper's §1 motivation): read only the
    #    cluster roots instead of every buoy, with a provable error bound.
    from repro import RepresentativeSampler

    sampler = RepresentativeSampler(
        topology.graph, result.clustering, metric, feature_dim=4
    )
    plan = sampler.plan(base_station=0)
    errors = sampler.reconstruction_error(features)
    print(
        f"representatives   : sample {len(plan.representatives)}/{topology.num_nodes} "
        f"buoys ({plan.cost_reduction:.1f}x cheaper collection); "
        f"max reconstruction error {max(errors.values()):.4f} <= delta"
    )


def _zone_agreement(dataset, clustering) -> float:
    """Fraction of node pairs on which the clustering agrees with the
    (hidden) generating zones: same-zone pairs together, cross-zone apart."""
    import itertools

    nodes = list(dataset.topology.graph.nodes)
    agree = total = 0
    for a, b in itertools.combinations(nodes, 2):
        same_zone = dataset.zone_of[a] == dataset.zone_of[b]
        same_cluster = clustering.root_of(a) == clustering.root_of(b)
        agree += int(same_zone == same_cluster)
        total += 1
    return agree / total


if __name__ == "__main__":
    main()
