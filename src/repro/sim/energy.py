"""Per-node energy accounting (Mica2-style radio cost model).

The paper motivates in-network clustering with the power asymmetry of the
Crossbow Mica2 mote: radio communication costs up to three orders of
magnitude more than computation, so message counts are the proxy for
battery drain.  This module turns the network layer's message traffic into
per-node energy figures, enabling the classic sensor-network analyses the
message totals hide:

- **hotspots** — nodes near the base station (centralized schemes) or
  cluster roots relay disproportionately and die first;
- **network lifetime** — time until the first node exhausts its budget.

The default constants follow the Mica2's CC1000 radio at 38.4 kbps and
3 V: roughly 60 µJ to transmit and 30 µJ to receive a 36-byte packet.  We
charge per *value* carried (one coefficient ≈ one paper "message"), which
keeps energy proportional to the message metric used everywhere else.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable

from repro._validation import require_positive

#: Default per-value radio energies (joules) — Mica2-era magnitudes.
TX_ENERGY_PER_VALUE = 60e-6
RX_ENERGY_PER_VALUE = 30e-6


@dataclass
class EnergyModel:
    """Accumulates per-node transmit/receive energy.

    Callers charge each hop with :meth:`charge_hop`: the sender pays TX
    and the receiver RX energy, proportional to the values carried.
    """

    tx_per_value: float = TX_ENERGY_PER_VALUE
    rx_per_value: float = RX_ENERGY_PER_VALUE
    spent: dict[Hashable, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        require_positive(self.tx_per_value, "tx_per_value")
        require_positive(self.rx_per_value, "rx_per_value")

    def charge_hop(self, sender: Hashable, receiver: Hashable, values: int) -> None:
        """Charge TX to *sender* and RX to *receiver* for one hop."""
        self.spent[sender] = self.spent.get(sender, 0.0) + values * self.tx_per_value
        self.spent[receiver] = self.spent.get(receiver, 0.0) + values * self.rx_per_value

    # ------------------------------------------------------------------
    # analyses
    # ------------------------------------------------------------------
    def total_energy(self) -> float:
        """Sum of all nodes' energy spent (joules)."""
        return sum(self.spent.values())

    def hottest(self, k: int = 5) -> list[tuple[Hashable, float]]:
        """The *k* most drained nodes — the hotspot set."""
        return sorted(self.spent.items(), key=lambda kv: (-kv[1], repr(kv[0])))[:k]

    def max_energy(self) -> float:
        """The hottest node's energy spent (joules)."""
        return max(self.spent.values(), default=0.0)

    def lifetime_rounds(self, budget_joules: float, per_round_spent: float) -> float:
        """Rounds until the hottest node exhausts *budget_joules*, assuming
        the measured per-round drain repeats."""
        require_positive(budget_joules, "budget_joules")
        if per_round_spent <= 0:
            return float("inf")
        return budget_joules / per_round_spent

    def imbalance(self) -> float:
        """Max/mean drain ratio: 1.0 is perfectly balanced; centralized
        collection drives this up at the base station's neighbours."""
        if not self.spent:
            return 1.0
        values = list(self.spent.values())
        mean = sum(values) / len(values)
        return (max(values) / mean) if mean > 0 else 1.0
