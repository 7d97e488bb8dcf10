"""Quadtree decomposition and sentinel sets (paper §3.2).

The network's square bounding box is recursively split into 4 subcells.
Every cell elects a **leader** — the node closest to the cell centroid that
has not already been elected at a shallower level (footnote 1).  The leaders
of all level-*l* cells form the **sentinel set** ``S_l``; every node ends up
in exactly one sentinel set, so ``Σ_l |S_l| = N``.

The quadtree parent of a sentinel ``s ∈ S_l`` is the leader of the enclosing
level-(l-1) cell; that leader always exists because *s* itself was still
unelected when that cell voted.  ELink's implicit signalling schedules
``S_l`` by timers derived from the level; the explicit signalling walks
phase1/phase2/start messages up and down this parent relation.

For irregular placements the depth can exceed the grid-case
``log4(3N+1) - 1`` by a small constant (footnote 2); a depth cap guards
against pathological co-located points, flushing any remaining unelected
nodes into the deepest level.

The build is columnar and works for any hashable node ids: nodes are
indexed in ``graph.nodes`` order, each level is one array of member
indices grouped by cell, and election and subdivision are array
expressions.  Exact centroid-distance ties and the depth-cap flush are
ordered by ``repr`` of the node id, so the outputs, including every dict
insertion order, depend only on the ids and positions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import Hashable, Iterator

import numpy as np

from repro.geometry.topology import Topology


@dataclass
class _Level:
    """Columnar snapshot of one quadtree level.

    ``order`` holds member indices grouped by cell (cells in build order,
    members in ``graph.nodes`` order within a cell), ``starts`` each
    cell's offset into it, ``cx``/``cy`` the cell centroids and
    ``leaders`` each cell's elected member index (−1 where the cell
    elected none).
    """

    order: np.ndarray
    starts: np.ndarray
    cx: np.ndarray
    cy: np.ndarray
    leaders: np.ndarray


class QuadTreeDecomposition:
    """Sentinel hierarchy over a :class:`~repro.geometry.topology.Topology`.

    Attributes
    ----------
    sentinel_sets:
        ``sentinel_sets[l]`` is the list of sentinels (cell leaders) at
        level *l*; every network node appears in exactly one set.
    level_of:
        Mapping node -> its sentinel level.
    quad_parent:
        Mapping sentinel -> its quadtree parent sentinel (the root maps to
        itself).
    quad_children:
        Mapping sentinel -> list of its quadtree child sentinels.
    """

    #: Hard depth cap; co-located nodes would otherwise split forever.
    MAX_DEPTH = 32

    def __init__(self, topology: Topology):
        self.topology = topology
        self.sentinel_sets: list[list[Hashable]] = []
        self.level_of: dict[Hashable, int] = {}
        self.quad_parent: dict[Hashable, Hashable] = {}
        self.quad_children: dict[Hashable, list[Hashable]] = {}
        #: Node ids in ``graph.nodes`` order; the arrays hold indices into it.
        self._nodes = nodes = list(topology.graph.nodes)
        #: One snapshot per electing level, for :meth:`takeover_orders`.
        self._levels: list[_Level] = []
        n = len(nodes)
        if n == 0:
            raise ValueError("cannot decompose an empty topology")
        node_at = nodes.__getitem__
        pos = np.fromiter(
            chain.from_iterable(map(topology.positions.__getitem__, nodes)), dtype=np.float64
        ).reshape(n, 2)
        self._xs = xs = np.ascontiguousarray(pos[:, 0])
        self._ys = ys = np.ascontiguousarray(pos[:, 1])

        b = topology.bounds
        order = np.arange(n, dtype=np.int64)
        starts = np.zeros(1, dtype=np.int64)
        xmin = np.array([b.xmin])
        ymin = np.array([b.ymin])
        xmax = np.array([b.xmax])
        ymax = np.array([b.ymax])
        anc = np.full(1, -1, dtype=np.int64)  # nearest elected ancestor leader
        assigned = np.zeros(n, dtype=bool)
        assigned_count = 0
        level = 0
        level_of = self.level_of
        quad_parent = self.quad_parent
        quad_children = self.quad_children

        while True:
            num_cells = starts.size
            cell_of = np.repeat(
                np.arange(num_cells, dtype=np.int64), np.diff(np.append(starts, n))
            )
            unelected = ~assigned[order]
            cx = (xmin + xmax) / 2.0
            cy = (ymin + ymax) / 2.0

            if level >= self.MAX_DEPTH:
                # Depth-cap flush (footnote 2's "+k" tolerance): every
                # remaining node becomes a sentinel of this level, in repr
                # order per cell, under the cell's nearest elected ancestor.
                flushed: list[Hashable] = []
                offsets = np.append(starts, n).tolist()
                for c, ancestor in enumerate(anc.tolist()):
                    lo, hi = offsets[c], offsets[c + 1]
                    remaining = order[lo:hi][unelected[lo:hi]].tolist()
                    if not remaining:
                        continue
                    parent = node_at(ancestor)
                    for node in sorted(map(node_at, remaining), key=repr):
                        flushed.append(node)
                        level_of[node] = level
                        quad_parent[node] = parent
                        quad_children[parent].append(node)
                        quad_children[node] = []
                self.sentinel_sets.append(flushed)
                break

            # Election: per-cell argmin of the squared centroid distance
            # over the still-unelected members (``inf`` masks the elected).
            xo = xs[order]
            yo = ys[order]
            cxo = cx[cell_of]
            cyo = cy[cell_of]
            d2 = (xo - cxo) ** 2 + (yo - cyo) ** 2
            d2[~unelected] = np.inf
            best = np.minimum.reduceat(d2, starts)
            cand = np.flatnonzero((d2 == best[cell_of]) & unelected)
            cand_cell = cell_of[cand]
            single = np.bincount(cand_cell, minlength=num_cells)[cand_cell] == 1
            leaders = np.full(num_cells, -1, dtype=np.int64)
            leaders[cand_cell[single]] = order[cand[single]]
            if not single.all():
                # Exact-distance ties (real on grids): the smallest repr of
                # the node id wins, the first in cell order among equals.
                tied: dict[int, list[int]] = {}
                for i, c in zip(order[cand[~single]].tolist(), cand_cell[~single].tolist()):
                    tied.setdefault(c, []).append(i)
                for c, members in tied.items():
                    leaders[c] = min(members, key=lambda i: repr(node_at(i)))
            self._levels.append(_Level(order, starts, cx, cy, leaders))

            elected = np.flatnonzero(leaders >= 0)
            won = leaders[elected]
            assigned[won] = True
            assigned_count += won.size
            leader_ids = list(map(node_at, won.tolist()))
            if level:
                parent_ids = map(node_at, anc[elected].tolist())
                for leader, parent in zip(leader_ids, parent_ids):
                    level_of[leader] = level
                    quad_parent[leader] = parent
                    quad_children[parent].append(leader)
                    quad_children[leader] = []
            else:  # the root is its own quadtree parent
                (root,) = leader_ids
                level_of[root] = 0
                quad_parent[root] = root
                quad_children[root] = []
            self.sentinel_sets.append(leader_ids)
            if assigned_count == n:
                break

            # Subdivision: a stable sort by (cell, quadrant) keeps members
            # in graph order within each child and children in quadrant
            # order 0..3; points on a splitting line go left/bottom.
            key = cell_of * 4 + np.where(xo <= cxo, 0, 1) + np.where(yo <= cyo, 0, 2)
            perm = np.argsort(key, kind="stable")
            order = order[perm]
            skey = key[perm]
            starts = np.flatnonzero(np.r_[True, skey[1:] != skey[:-1]])
            group_key = skey[starts]
            parent_cell = group_key >> 2
            left = (group_key & 1) == 0
            bottom = (group_key & 2) == 0
            pmx = cx[parent_cell]
            pmy = cy[parent_cell]
            xmin, xmax = (
                np.where(left, xmin[parent_cell], pmx),
                np.where(left, pmx, xmax[parent_cell]),
            )
            ymin, ymax = (
                np.where(bottom, ymin[parent_cell], pmy),
                np.where(bottom, pmy, ymax[parent_cell]),
            )
            anc = np.where(leaders >= 0, leaders, anc)[parent_cell]
            level += 1

    # ------------------------------------------------------------------
    # derived orders (computed on call; callers may mutate the result)
    # ------------------------------------------------------------------
    def subtree_max_levels(self) -> dict[Hashable, int]:
        """Sentinel -> deepest level in its quadtree subtree (itself
        included), the reach of the explicit signalling's phase waves.

        Filled deepest level first, so children precede their parents.
        Each call returns a fresh dict: ELink's sentinel takeover writes
        into it.
        """
        subtree_max: dict[Hashable, int] = {}
        children = self.quad_children
        for level in range(self.depth, -1, -1):
            for node in self.sentinel_sets[level]:
                best = level
                for child in children[node]:
                    best = max(best, subtree_max[child])
                subtree_max[node] = best
        return subtree_max

    def takeover_orders(self) -> dict[Hashable, tuple]:
        """Cell leader -> the other members of its cell, in takeover order.

        The order is the election's own key: nearest the cell centroid
        first, exact ties on ``repr`` of the node id, then cell order.
        ELink's failure detection walks it to pick the member that adopts
        a dead sentinel's role.  Keys follow election order; depth-cap
        flush nodes lead no cell and have none.  Each call returns a
        fresh dict.
        """
        node_at = self._nodes.__getitem__
        xs, ys = self._xs, self._ys
        reprs = list(map(repr, self._nodes))
        rank_of = {r: i for i, r in enumerate(sorted(set(reprs)))}
        repr_rank = np.array([rank_of[r] for r in reprs], dtype=np.int64)
        orders: dict[Hashable, tuple] = {}
        for lv in self._levels:
            sizes = np.diff(np.append(lv.starts, lv.order.size))
            cell_of = np.repeat(np.arange(lv.starts.size, dtype=np.int64), sizes)
            leader_of = lv.leaders[cell_of]
            keep = (leader_of >= 0) & (lv.order != leader_of)
            members = lv.order[keep]
            cells = cell_of[keep]
            d2 = (xs[members] - lv.cx[cells]) ** 2 + (ys[members] - lv.cy[cells]) ** 2
            ids = list(map(node_at, members[np.lexsort((repr_rank[members], d2, cells))].tolist()))
            elected = np.flatnonzero(lv.leaders >= 0)
            ends = np.cumsum(sizes[elected] - 1).tolist()
            lo = 0
            for leader, hi in zip(map(node_at, lv.leaders[elected].tolist()), ends):
                orders[leader] = tuple(ids[lo:hi])
                lo = hi
        return orders

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def depth(self) -> int:
        """α — the index of the deepest non-empty sentinel set."""
        return len(self.sentinel_sets) - 1

    def sentinels_at(self, level: int) -> list[Hashable]:
        """Copy of the sentinel list at *level*."""
        return list(self.sentinel_sets[level])

    def iter_sentinels(self) -> Iterator[tuple[int, Hashable]]:
        """Yield (level, sentinel) over the whole hierarchy."""
        for level, sentinels in enumerate(self.sentinel_sets):
            for s in sentinels:
                yield level, s

    @property
    def root(self) -> Hashable:
        """The level-0 sentinel (quadtree root)."""
        return self.sentinel_sets[0][0]

    def expected_depth_bound(self) -> float:
        """The grid-case depth ``log4(3N+1) - 1`` from §3.2."""
        n = self.topology.num_nodes
        return math.log(3 * n + 1, 4) - 1

    def __repr__(self) -> str:
        sizes = [len(s) for s in self.sentinel_sets]
        return f"QuadTreeDecomposition(depth={self.depth}, level_sizes={sizes})"
