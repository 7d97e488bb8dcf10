"""Ablation — the cluster-switching knobs c (budget) and φ (threshold).

§3.1 fixes *c* to "3–5" and §8.4 sets φ = 0.1·δ without justification;
this ablation sweeps both and reports cluster quality and message cost on
the Tao data, showing what the defaults buy:

- c = 0 forbids switching: first-come seeding locks in worse clusters;
- large c with φ = 0 lets nodes chase marginal improvements, spending
  messages for little quality;
- the paper's (c=4, φ=0.1δ) sits at the knee.
"""

from __future__ import annotations

from repro.core import ELinkConfig, run_elink
from repro.experiments.common import ExperimentTable, check_profile
from repro.experiments.streaming import tao_features

DELTA = 0.1
BUDGETS = (0, 1, 2, 4, 8)
PHI_FRACTIONS = (0.0, 0.05, 0.1, 0.3)


def run(profile: str = "full", seed: int = 7) -> ExperimentTable:
    """Run the experiment; returns the printable table (see module docstring)."""
    check_profile(profile)
    dataset, features = tao_features(profile, seed)
    metric = dataset.metric()
    topology = dataset.topology

    table = ExperimentTable(
        name="ablation_switching",
        title=f"Ablation: switch budget c and threshold phi (delta = {DELTA})",
        columns=("c", "phi_over_delta", "clusters", "messages", "switches"),
    )
    for budget in BUDGETS:
        for fraction in PHI_FRACTIONS:
            result = run_elink(
                topology,
                features,
                metric,
                ELinkConfig(delta=DELTA, max_switches=budget, phi=fraction * DELTA),
            )
            table.add_row(
                c=budget,
                phi_over_delta=fraction,
                clusters=result.num_clusters,
                messages=result.total_messages,
                switches=result.total_switches,
            )
    return table


def main() -> None:
    """Command-line entry point."""
    run().print()


if __name__ == "__main__":
    main()
