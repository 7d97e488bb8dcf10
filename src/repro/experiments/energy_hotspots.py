"""Energy hotspots — who burns the battery under each update scheme.

Message totals hide *where* the energy goes.  Charging every transmission
to a per-node energy model (Mica2-era radio constants) over the shared Tao
coefficient-update stream (the one Fig 10 replays) shows the classic
asymmetry the paper's motivation appeals to:

- the **centralized** scheme funnels every update through the base
  station's neighbourhood — the hottest node burns many times the network
  average and dies first;
- **ELink maintenance** confines traffic to cluster trees, keeping the
  drain low *and* balanced.

Reported per scheme: total energy, hottest-node energy, and the
max/mean imbalance factor.
"""

from __future__ import annotations

import networkx as nx

from repro.core import CentralizedUpdateBaseline, ELinkConfig, MaintenanceSession, run_elink
from repro.experiments.common import ExperimentTable, check_profile
from repro.experiments.streaming import replay, tao_stream
from repro.sim.energy import EnergyModel

DELTA = 0.2
SLACK = 0.02


def run(profile: str = "full", seed: int = 7) -> ExperimentTable:
    """Run the experiment; returns the printable table (see module docstring)."""
    check_profile(profile)
    stream = tao_stream(profile, seed)
    dataset, features = stream.dataset, stream.features
    metric = dataset.metric()
    graph = dataset.topology.graph

    clustering = run_elink(
        dataset.topology, features, metric, ELinkConfig(delta=DELTA - 2 * SLACK)
    ).clustering
    session = MaintenanceSession(graph, clustering, features, metric, DELTA, SLACK)
    centralized = CentralizedUpdateBaseline(graph, features, 0, SLACK)
    replay(stream, {"elink": session, "centralized": centralized})

    # Translate each scheme's value-hop charges into per-node energy by
    # replaying them over the topology: maintenance traffic moves along
    # cluster trees (approximated by charging tree paths uniformly), while
    # centralized traffic rides the shortest-path tree to the base station.
    elink_energy = _maintenance_energy(graph, clustering, session)
    central_energy = _centralized_energy(graph, centralized)

    table = ExperimentTable(
        name="energy_hotspots",
        title="Energy hotspots over the Tao update stream (per-node radio energy)",
        columns=("scheme", "total_mj", "hottest_mj", "imbalance"),
    )
    for scheme, model in (("elink", elink_energy), ("centralized", central_energy)):
        table.add_row(
            scheme=scheme,
            total_mj=round(model.total_energy() * 1e3, 3),
            hottest_mj=round(model.max_energy() * 1e3, 3),
            imbalance=round(model.imbalance(), 2),
        )
    table.notes.append(
        "centralized funnels updates through the base-station neighbourhood; "
        "ELink confines them to cluster trees"
    )
    return table


def _maintenance_energy(graph, clustering, session) -> EnergyModel:
    """Spread the session's measured value-hops over its cluster trees."""
    model = EnergyModel()
    total_values = session.total_messages()
    tree_edges = [
        (node, parent)
        for node, parent in clustering.parent.items()
        if parent != node and graph.has_edge(node, parent)
    ]
    if not tree_edges:
        return model
    per_edge = total_values / len(tree_edges)
    for node, parent in tree_edges:
        model.charge_hop(node, parent, 1)
        model.spent[node] += (per_edge - 1) * model.tx_per_value
        model.spent[parent] += (per_edge - 1) * model.rx_per_value
    return model


def _centralized_energy(graph, baseline) -> EnergyModel:
    """Replay the baseline's shipments over the base-station BFS tree."""
    model = EnergyModel()
    base = baseline.base_station
    parents = dict(nx.bfs_predecessors(graph, base))
    total_values = baseline.total_messages()
    hops = baseline._hops
    # Each shipped value travels node -> base; weight traffic by the
    # measured totals, distributing along every node's path proportionally
    # to its hop count share.
    weight = total_values / max(sum(hops[v] for v in graph.nodes if v != base), 1)
    for node in graph.nodes:
        if node == base:
            continue
        current = node
        while current != base:
            parent = parents[current]
            model.spent[current] = (
                model.spent.get(current, 0.0) + weight * model.tx_per_value
            )
            model.spent[parent] = (
                model.spent.get(parent, 0.0) + weight * model.rx_per_value
            )
            current = parent
    return model


def main() -> None:
    """Command-line entry point."""
    run().print()


if __name__ == "__main__":
    main()
