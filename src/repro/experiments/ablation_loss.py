"""Ablation — message loss and link-layer retransmission.

The paper's analysis assumes reliable links; real radios drop packets.
With per-hop ARQ (``repro.sim.radio``) the protocols run unchanged while
costs inflate by an expected 1/(1-p).  This ablation sweeps the loss
probability and reports measured inflation for ELink clustering — a
robustness check that the protocol logic holds and the cost model behaves.
"""

from __future__ import annotations

from repro.core import ELinkConfig, run_elink, validate_clustering
from repro.experiments.common import ExperimentTable, check_profile
from repro.experiments.streaming import tao_features
from repro.sim import LossyLinkModel, Network

DELTA = 0.1
LOSS_RATES = (0.0, 0.05, 0.1, 0.2, 0.3)


def run(profile: str = "full", seed: int = 7) -> ExperimentTable:
    """Run the experiment; returns the printable table (see module docstring)."""
    check_profile(profile)
    dataset, features = tao_features(profile, seed)
    metric = dataset.metric()
    topology = dataset.topology

    table = ExperimentTable(
        name="ablation_loss",
        title=f"Ablation: link loss with ARQ (delta = {DELTA})",
        columns=("loss", "clusters", "messages", "inflation", "expected_inflation", "valid"),
    )
    baseline_messages: int | None = None
    for loss_rate in LOSS_RATES:
        loss = LossyLinkModel(loss_rate, seed=seed) if loss_rate > 0 else None
        network = Network(topology.graph, loss=loss)
        result = run_elink(
            topology, features, metric, ELinkConfig(delta=DELTA), network=network
        )
        if baseline_messages is None:
            baseline_messages = result.total_messages
        violations = validate_clustering(
            topology.graph, result.clustering, features, metric, DELTA
        )
        table.add_row(
            loss=loss_rate,
            clusters=result.num_clusters,
            messages=result.total_messages,
            inflation=result.total_messages / baseline_messages,
            expected_inflation=1.0 / (1.0 - loss_rate),
            valid=not violations,
        )
    return table


def main() -> None:
    """Command-line entry point."""
    run().print()


if __name__ == "__main__":
    main()
