"""Dynamic cluster maintenance with slack (paper §6).

After clustering, features keep evolving as new measurements arrive.  A
slack parameter Δ trades clustering quality for communication: the initial
clustering is built with an effective threshold ``δ - 2Δ``, which buys each
node a Δ budget of silent local drift.

On a feature update ``F_i -> F'_i`` a node checks (paper conditions):

- **A1**: ``d(F_i, F'_i) <= Δ``
- **A2**: ``d(F'_i, F_ri) - d(F_i, F_ri) <= Δ``
- **A3**: ``d(F'_i, F_ri) <= δ - Δ``

If *any* holds, no message is sent.  Only when all three fail does the node
walk the cluster tree to the root, fetch the fresh root feature, and
re-evaluate ``d(F'_i, F'_ri) <= δ``; on violation it detaches and either
merges with a neighbouring cluster (if within δ of that cluster's root
feature) or becomes a singleton.  The root itself silently absorbs drift up
to Δ, beyond which it floods the new root feature down the cluster tree and
every member re-decides its membership.

Communication is charged exactly as the protocol would send it: tree-path
hops × values carried.  Because A1/A2 compare against the *previous*
feature (as the paper states), slow drift can silently accumulate — this is
precisely the quality-for-communication trade the slack is designed to
make, and the experiments measure it (Figs 10–11).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Hashable, Mapping

import networkx as nx
import numpy as np

from repro._validation import require_non_negative, require_positive
from repro.core.delta import Clustering, clustering_from_assignment
from repro.features.metrics import Metric
from repro.sim.messages import _DEFAULT_CATEGORIES, CATEGORY_DATA, Message
from repro.sim.stats import MessageStats


@dataclass(frozen=True)
class UpdateOutcome:
    """What one feature update caused."""

    kind: str  # "silent" | "revalidated" | "merged" | "singleton" | "root_broadcast"
    messages: int  # values x hops charged for this update


class MaintenanceSession:
    """Mutable cluster state absorbing a stream of feature updates.

    Parameters
    ----------
    graph:
        The communication graph (for neighbour lookup and tree repair).
    clustering:
        The initial δ-clustering (built with threshold ``delta - 2*slack``).
    features:
        Current feature per node (copied; the session owns its state).
    metric, delta, slack:
        The metric, the full δ, and the slack Δ (``2*slack < delta``).
    """

    def __init__(
        self,
        graph: nx.Graph,
        clustering: Clustering,
        features: Mapping[Hashable, np.ndarray],
        metric: Metric,
        delta: float,
        slack: float,
    ):
        require_positive(delta, "delta")
        require_non_negative(slack, "slack")
        if 2 * slack >= delta:
            raise ValueError(f"need 2*slack < delta, got slack={slack}, delta={delta}")
        self.graph = graph
        self.metric = metric
        self.delta = delta
        self.slack = slack
        self.stats = MessageStats()
        #: Structure generation: bumped whenever cluster membership or a
        #: propagated root feature changes (detach/merge/singleton, root
        #: broadcast, node removal).  Silent drift within the slack does
        #: NOT bump it — that is the bounded-staleness window cached query
        #: answers are allowed to span (see repro.queries.result_cache).
        self.generation = 0

        self.features: dict[Hashable, np.ndarray] = {
            node: np.asarray(f, dtype=np.float64).copy() for node, f in features.items()
        }
        self.assignment: dict[Hashable, Hashable] = dict(clustering.assignment)
        self.parent: dict[Hashable, Hashable] = dict(clustering.parent)
        self.root_features: dict[Hashable, np.ndarray] = {
            root: np.asarray(f, dtype=np.float64).copy()
            for root, f in clustering.root_features.items()
        }
        # Each node's stored copy of its root feature (set at clustering time,
        # refreshed by revalidation fetches and root broadcasts).
        self.stored_root: dict[Hashable, np.ndarray] = {
            node: self.root_features[root].copy() for node, root in self.assignment.items()
        }
        # Root anchors: the root feature value last propagated.
        self._root_anchor: dict[Hashable, np.ndarray] = {
            root: f.copy() for root, f in self.root_features.items()
        }

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def update_feature(self, node: Hashable, new_feature: np.ndarray) -> UpdateOutcome:
        """Absorb one feature update at *node*; returns what it cost."""
        new = np.asarray(new_feature, dtype=np.float64)
        before = self.stats.total_values
        if self.assignment[node] == node:
            kind = self._update_root(node, new)
        else:
            kind = self._update_member(node, new)
        return UpdateOutcome(kind, self.stats.total_values - before)

    @property
    def num_clusters(self) -> int:
        """Number of clusters in the result."""
        return len(self.root_features)

    def current_clustering(self) -> Clustering:
        """Materialize the current state as a (connectivity-repaired) Clustering."""
        return clustering_from_assignment(
            self.graph,
            self.assignment,
            self.features,
            root_features=self.root_features,
        )

    def total_messages(self) -> int:
        """Total communication charged, in the paper's value-messages."""
        return self.stats.total_values

    # ------------------------------------------------------------------
    # member update path (conditions A1-A3)
    # ------------------------------------------------------------------
    def _update_member(self, node: Hashable, new: np.ndarray) -> str:
        previous = self.features[node]
        root_feature = self.stored_root[node]
        dim = new.shape[0]
        metric = self.metric
        self.features[node] = new.copy()

        # Conditions A1-A3 are OR-ed, so evaluate lazily: each distance is a
        # pure function of fixed inputs, and most updates satisfy A1 or A3
        # without ever needing the remaining distances.
        if metric.distance(previous, new) <= self.slack:  # A1
            return "silent"
        d_new_root = metric.distance(new, root_feature)
        if d_new_root <= self.delta - self.slack:  # A3
            return "silent"
        if (d_new_root - metric.distance(previous, root_feature)) <= self.slack:  # A2
            return "silent"

        # All conditions violated: fetch the fresh root feature over the
        # cluster tree (request up: 1 value/hop; reply down: dim values/hop).
        root = self.assignment[node]
        hops = self._tree_hops(node)
        self._charge("update", 1, hops)
        self._charge("update", dim, hops)
        fresh_root_feature = self.root_features[root]
        self.stored_root[node] = fresh_root_feature.copy()
        if self.metric.distance(new, fresh_root_feature) <= self.delta:
            return "revalidated"
        return self._detach(node)

    # ------------------------------------------------------------------
    # root update path
    # ------------------------------------------------------------------
    def _update_root(self, root: Hashable, new: np.ndarray) -> str:
        anchor = self._root_anchor[root]
        self.features[root] = new.copy()
        if self.metric.distance(anchor, new) <= self.slack:
            return "silent"
        # Root drifted beyond the slack: flood the new root feature down the
        # cluster tree (dim values per tree edge) and let members re-decide.
        # The propagated pruning feature changes, so cached query answers
        # keyed against the old structure are no longer servable.
        self.generation += 1
        members = [n for n, r in self.assignment.items() if r == root and n != root]
        dim = new.shape[0]
        if members:
            self._charge("update", dim, len(members))  # one tree edge per member
        self.root_features[root] = new.copy()
        self._root_anchor[root] = new.copy()
        self.stored_root[root] = new.copy()
        for member in members:
            self.stored_root[member] = new.copy()
        for member in members:
            if self.metric.distance(self.features[member], new) > self.delta:
                self._detach(member)
        return "root_broadcast"

    def remove_node(self, node: Hashable) -> None:
        """Fail-stop removal: drop *node* and repair its cluster.

        A dead member's cluster tree is re-hung around the gap; a dead
        cluster representative's survivors re-elect — each surviving
        component promotes the member closest to the dead root's feature,
        which stays the pruning feature, so the δ/2 membership guarantee
        survives the crash (same rule as
        :func:`~repro.core.delta.clustering_from_assignment`).  Repair
        control traffic is charged like any other update handling.
        """
        if node not in self.assignment:
            return
        self.generation += 1
        root = self.assignment.pop(node)
        self.parent.pop(node, None)
        self.features.pop(node, None)
        self.stored_root.pop(node, None)
        if root == node:
            members = {n for n, r in self.assignment.items() if r == node}
            base_feature = self.root_features.pop(node)
            self._root_anchor.pop(node, None)
            if members:
                self._promote_components(members, base_feature)
        else:
            self._repair_tree(root)

    # ------------------------------------------------------------------
    # detach / merge
    # ------------------------------------------------------------------
    def _detach(self, node: Hashable) -> str:
        self.generation += 1  # membership is about to change either way
        old_root = self.assignment[node]
        # Ask each neighbour for its cluster root feature (1 value out,
        # dim values back per neighbour), then join the best fit within δ.
        best: Hashable | None = None
        best_distance = float("inf")
        feature = self.features[node]
        dim = feature.shape[0]
        for neighbor in self.graph.neighbors(node):
            neighbor_root = self.assignment[neighbor]
            if neighbor_root == old_root:
                continue
            self._charge("update", 1, 1)
            self._charge("update", dim, 1)
            distance = self.metric.distance(feature, self.root_features[neighbor_root])
            if distance <= self.delta and distance < best_distance:
                best, best_distance = neighbor, distance

        if best is not None:
            new_root = self.assignment[best]
            self.assignment[node] = new_root
            self.parent[node] = best
            self.stored_root[node] = self.root_features[new_root].copy()
            self._charge("update", 1, 1)  # join confirmation
            kind = "merged"
        else:
            self.assignment[node] = node
            self.parent[node] = node
            self.root_features[node] = feature.copy()
            self._root_anchor[node] = feature.copy()
            self.stored_root[node] = feature.copy()
            kind = "singleton"
        self._repair_tree(old_root)
        return kind

    def _repair_tree(self, root: Hashable) -> None:
        """Re-hang the old cluster's tree after a member left.

        Members whose tree path broke get new parents (one control message
        each); components cut off from the root detach into singleton-rooted
        clusters keeping the old pruning feature (same rule as
        :func:`clustering_from_assignment`).
        """
        members = [n for n, r in self.assignment.items() if r == root]
        if not members:
            self.root_features.pop(root, None)
            self._root_anchor.pop(root, None)
            return
        if root not in self.assignment or self.assignment[root] != root:
            # The root itself left earlier; promote the stray members below.
            members_set = set(members)
            base_feature = self.root_features.pop(root)
            self._root_anchor.pop(root, None)
            self._promote_components(members_set, base_feature)
            return
        member_set = set(members)
        # Keep every intact parent chain; only members whose chain broke
        # (their old parent left the cluster) need a new parent.
        intact: set[Hashable] = {root}
        # Order-free: a member is intact iff its own chain reaches the
        # root, so the set comes out the same in any order.
        for member in member_set:  # det-ok
            path = [member]
            current = member
            ok = False
            while True:
                if current in intact:
                    ok = True
                    break
                par = self.parent.get(current)
                if (
                    par is None
                    or par == current
                    or par not in member_set
                    or not self.graph.has_edge(current, par)
                    or par in path
                ):
                    break
                current = par
                path.append(current)
            if ok:
                intact.update(path)
        broken = member_set - intact
        # Re-hang broken members onto the intact part, breadth-first (one
        # control message per re-parented node).
        attached = set(intact)
        progress = True
        while broken and progress:
            progress = False
            for member in sorted(broken, key=repr):
                anchor = next(
                    (nb for nb in self.graph.neighbors(member) if nb in attached),
                    None,
                )
                if anchor is not None:
                    self.parent[member] = anchor
                    self._charge("update", 1, 1)
                    attached.add(member)
                    broken.discard(member)
                    progress = True
        if broken:
            self._promote_components(broken, self.root_features[root])

    def _promote_components(self, nodes: set[Hashable], base_feature: np.ndarray) -> None:
        sub = self.graph.subgraph(nodes)
        for component in nx.connected_components(sub):
            comp = set(component)
            new_root = min(
                comp,
                key=lambda v: (
                    self.metric.distance(self.features[v], base_feature),
                    repr(v),
                ),
            )
            self.root_features[new_root] = base_feature.copy()
            self._root_anchor[new_root] = self.features[new_root].copy()
            tree_parent = {new_root: new_root}
            for child, par in nx.bfs_predecessors(sub.subgraph(comp), new_root):
                tree_parent[child] = par
            # Order-free: every member already has assignment/parent/
            # stored_root keys, so the rewrites keep dict order, and the
            # charges commute.
            for member in comp:  # det-ok
                self.assignment[member] = new_root
                self.parent[member] = tree_parent[member]
                self.stored_root[member] = base_feature.copy()
                self._charge("update", 1, 1)

    # ------------------------------------------------------------------
    # checkpointing (used by the live serving layer, repro.serve)
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Complete session state as plain dicts/arrays, for checkpointing.

        Round-trips exactly through :meth:`from_state`: a restored session
        absorbs the same future update stream into the same final state,
        which is what the serve layer's kill-and-resume equivalence check
        relies on.  The communication graph and metric are *not* part of
        the state — the restorer supplies them (they are derivable from
        the service configuration).
        """
        return {
            "delta": self.delta,
            "slack": self.slack,
            "generation": self.generation,
            "features": {n: f.copy() for n, f in self.features.items()},
            "assignment": dict(self.assignment),
            "parent": dict(self.parent),
            "root_features": {r: f.copy() for r, f in self.root_features.items()},
            "stored_root": {n: f.copy() for n, f in self.stored_root.items()},
            "root_anchor": {r: f.copy() for r, f in self._root_anchor.items()},
            "values_by_kind": dict(self.stats.values_by_kind),
            "packets_by_kind": dict(self.stats.packets_by_kind),
            "values_by_category": dict(self.stats.values_by_category),
            "packets_by_category": dict(self.stats.packets_by_category),
        }

    @classmethod
    def from_state(cls, graph: nx.Graph, metric: Metric, state: dict) -> "MaintenanceSession":
        """Reconstruct a session from a :meth:`state_dict` snapshot."""
        session = cls.__new__(cls)
        session.graph = graph
        session.metric = metric
        session.delta = float(state["delta"])
        session.slack = float(state["slack"])
        session.generation = int(state.get("generation", 0))
        session.stats = MessageStats()
        session.stats.packets_by_kind.update(state["packets_by_kind"])
        session.stats.values_by_kind.update(state["values_by_kind"])
        session.stats.packets_by_category.update(state["packets_by_category"])
        session.stats.values_by_category.update(state["values_by_category"])
        session.stats._total_packets = sum(session.stats.packets_by_kind.values())
        session.stats._total_values = sum(session.stats.values_by_kind.values())
        session.features = {
            n: np.asarray(f, dtype=np.float64).copy() for n, f in state["features"].items()
        }
        session.assignment = dict(state["assignment"])
        session.parent = dict(state["parent"])
        session.root_features = {
            r: np.asarray(f, dtype=np.float64).copy()
            for r, f in state["root_features"].items()
        }
        session.stored_root = {
            n: np.asarray(f, dtype=np.float64).copy()
            for n, f in state["stored_root"].items()
        }
        session._root_anchor = {
            r: np.asarray(f, dtype=np.float64).copy()
            for r, f in state["root_anchor"].items()
        }
        return session

    # ------------------------------------------------------------------
    # accounting helpers
    # ------------------------------------------------------------------
    def _tree_hops(self, node: Hashable) -> int:
        hops, current = 0, node
        seen = {node}
        while self.parent[current] != current:
            current = self.parent[current]
            hops += 1
            if current in seen:
                raise RuntimeError(f"cluster-tree cycle at {current!r}")
            seen.add(current)
        return max(hops, 1)

    def _charge(self, kind: str, values: int, hops: int) -> None:
        if hops > 0:
            self.stats.charge(kind, _DEFAULT_CATEGORIES.get(kind, CATEGORY_DATA), values, hops)


class CentralizedUpdateBaseline:
    """The centralized update-handling baseline (paper §8.3, §8.5).

    Every node ships its model coefficients to the base station whenever
    they drift more than Δ from the last value shipped.  Without a locally
    stored root feature the base-station scheme cannot prune with A2/A3 —
    the asymmetry behind ELink's ~10× advantage in Fig 10.

    ``raw`` mode ships *every* measurement (one value per hop), the
    paper's worst-case baseline in Fig 12.
    """

    def __init__(
        self,
        graph: nx.Graph,
        features: Mapping[Hashable, np.ndarray],
        base_station: Hashable,
        slack: float,
        *,
        raw: bool = False,
    ):
        require_non_negative(slack, "slack")
        if base_station not in graph:
            raise KeyError(f"base station {base_station!r} not in graph")
        self.graph = graph
        self.base_station = base_station
        self.slack = slack
        self.raw = raw
        self.stats = MessageStats()
        self._last_sent = {
            node: np.asarray(f, dtype=np.float64).copy() for node, f in features.items()
        }
        self._hops = nx.single_source_shortest_path_length(graph, base_station)

    def update_feature(self, node: Hashable, new_feature: np.ndarray) -> UpdateOutcome:
        """Absorb one coefficient update; ship to base if beyond the slack."""
        new = np.asarray(new_feature, dtype=np.float64)
        before = self.stats.total_values
        diff = new - self._last_sent[node]
        # sqrt(dot) is bitwise identical to np.linalg.norm for 1-d float64
        # and skips the norm wrapper on this per-update hot path.
        drift = math.sqrt(np.dot(diff, diff))
        if drift > self.slack:
            hops = max(self._hops[node], 1)
            self.stats.record(
                Message("update", node, self.base_station, values=int(new.shape[0])),
                hops=hops,
            )
            self._last_sent[node] = new.copy()
            return UpdateOutcome("shipped", self.stats.total_values - before)
        return UpdateOutcome("silent", 0)

    def observe_raw(self, node: Hashable) -> int:
        """Charge one raw measurement shipped to the base station (Fig 12)."""
        hops = max(self._hops[node], 1)
        self.stats.record(Message("raw", node, self.base_station, values=1), hops=hops)
        return hops

    def total_messages(self) -> int:
        """Total communication charged, in the paper's value-messages."""
        return self.stats.total_values
