"""Reference quadtree build: the per-cell formulation, kept as an oracle.

This is the original reference build of
``repro.geometry.quadtree.QuadTreeDecomposition`` (``_build``,
``_subdivide``, ``_attach_parent`` and ``_closest_to`` over a tree of
``QuadCell`` objects), unchanged, together with the two blocks
``run_elink`` used to derive from it: each sentinel's takeover order
(the failure-detection ``cell_fallbacks``) and the subtree max levels.
The production build must reproduce its sentinel sets, maps with their
insertion order, takeover orders and subtree levels exactly
(``tests/test_quadtree.py``); nothing under ``src/`` imports it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable

from repro.geometry.topology import BoundingBox, Topology


@dataclass
class QuadCell:
    """One cell of the quadtree."""

    level: int
    bounds: BoundingBox
    members: list[Hashable]
    leader: Hashable | None = None
    parent: "QuadCell | None" = field(default=None, repr=False)
    children: list["QuadCell"] = field(default_factory=list, repr=False)

    @property
    def centroid(self) -> tuple[float, float]:
        """Geometric centre of the cell."""
        return self.bounds.center


class QuadTreeDecomposition:
    """Sentinel hierarchy built cell by cell (see module docstring)."""

    #: Hard depth cap; co-located nodes would otherwise split forever.
    MAX_DEPTH = 32

    def __init__(self, topology: Topology):
        self.topology = topology
        self.root_cell = QuadCell(0, topology.bounds, list(topology.graph.nodes))
        self.sentinel_sets: list[list[Hashable]] = []
        self.level_of: dict[Hashable, int] = {}
        self.quad_parent: dict[Hashable, Hashable] = {}
        self.quad_children: dict[Hashable, list[Hashable]] = {}
        self._cells_by_level: list[list[QuadCell]] = [[self.root_cell]]
        self._build()

    def _build(self) -> None:
        positions = self.topology.positions
        assigned: set[Hashable] = set()
        level = 0
        current = [self.root_cell]
        while current:
            leaders: list[Hashable] = []
            for cell in current:
                unelected = [v for v in cell.members if v not in assigned]
                if not unelected:
                    continue
                if level >= self.MAX_DEPTH:
                    # Depth cap: flush every remaining node as a sentinel of
                    # this final level (footnote 2's "+k" tolerance).
                    for node in sorted(unelected, key=repr):
                        leaders.append(node)
                        assigned.add(node)
                        self.level_of[node] = level
                        self._attach_parent(node, cell)
                    continue
                leader = self._closest_to(cell.centroid, unelected, positions)
                cell.leader = leader
                leaders.append(leader)
                assigned.add(leader)
                self.level_of[leader] = level
                self._attach_parent(leader, cell)
            if leaders:
                self.sentinel_sets.append(leaders)
            if len(assigned) == len(positions) or level >= self.MAX_DEPTH:
                break
            current = self._subdivide(current)
            if current:
                self._cells_by_level.append(current)
            level += 1
        # Sanity: every node must have been elected at some level.
        if len(assigned) != len(positions):
            missing = set(positions) - assigned
            raise RuntimeError(f"quadtree failed to assign nodes: {sorted(missing, key=repr)[:5]}")

    def _attach_parent(self, leader: Hashable, cell: QuadCell) -> None:
        parent_cell = cell.parent
        while parent_cell is not None and parent_cell.leader is None:
            parent_cell = parent_cell.parent
        parent = parent_cell.leader if parent_cell is not None else leader
        self.quad_parent[leader] = parent
        if parent != leader:
            self.quad_children.setdefault(parent, []).append(leader)
        self.quad_children.setdefault(leader, [])

    @staticmethod
    def _closest_to(centroid, candidates, positions) -> Hashable:
        cx, cy = centroid
        return min(
            candidates,
            key=lambda v: ((positions[v][0] - cx) ** 2 + (positions[v][1] - cy) ** 2, repr(v)),
        )

    def _subdivide(self, cells: list[QuadCell]) -> list[QuadCell]:
        positions = self.topology.positions
        out: list[QuadCell] = []
        for cell in cells:
            if not cell.members:
                continue
            b = cell.bounds
            mx, my = b.center
            quads = [
                BoundingBox(b.xmin, b.ymin, mx, my),
                BoundingBox(mx, b.ymin, b.xmax, my),
                BoundingBox(b.xmin, my, mx, b.ymax),
                BoundingBox(mx, my, b.xmax, b.ymax),
            ]
            buckets: list[list[Hashable]] = [[] for _ in quads]
            # Each member goes to exactly one quadrant: points on the
            # splitting lines go to the left/bottom quadrant.
            for v in cell.members:
                x, y = positions[v]
                if x <= mx:
                    k = 0 if y <= my else 2
                else:
                    k = 1 if y <= my else 3
                buckets[k].append(v)
            for k, q in enumerate(quads):
                if buckets[k]:
                    child = QuadCell(cell.level + 1, q, buckets[k], parent=cell)
                    cell.children.append(child)
                    out.append(child)
        return out

    @property
    def depth(self) -> int:
        """α — the index of the deepest non-empty sentinel set."""
        return len(self.sentinel_sets) - 1

    @property
    def root(self) -> Hashable:
        """The level-0 sentinel (quadtree root)."""
        return self.sentinel_sets[0][0]


def subtree_max_levels(quadtree: QuadTreeDecomposition) -> dict[Hashable, int]:
    """``run_elink``'s subtree max levels, filled deepest level first."""
    subtree_max: dict[Hashable, int] = {}
    order = sorted(quadtree.level_of, key=lambda v: -quadtree.level_of[v])
    for node in order:
        level = quadtree.level_of[node]
        best = level
        for child in quadtree.quad_children.get(node, []):
            best = max(best, subtree_max[child])
        subtree_max[node] = best
    return subtree_max


def takeover_orders(quadtree: QuadTreeDecomposition) -> dict[Hashable, tuple]:
    """``run_elink``'s cell-takeover orders: each cell leader's other cell
    members by distance to the cell centroid, ties on ``repr``."""
    positions = quadtree.topology.positions
    cell_fallbacks: dict[Hashable, tuple] = {}
    for cells in quadtree._cells_by_level:
        for cell in cells:
            if cell.leader is None:
                continue
            cx, cy = cell.centroid
            members = [v for v in cell.members if v != cell.leader]
            members.sort(
                key=lambda v: (
                    (positions[v][0] - cx) ** 2 + (positions[v][1] - cy) ** 2,
                    repr(v),
                )
            )
            cell_fallbacks[cell.leader] = tuple(members)
    return cell_fallbacks
