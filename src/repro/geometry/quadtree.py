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
indexed in ``graph.nodes`` order (:attr:`QuadTreeDecomposition.nodes`),
each level is one array of member indices grouped by cell, and election
and subdivision are array expressions.  A cell with no unelected member
left elects nothing, and neither does any cell inside it, so such closed
cells leave the level loop and every cell a level keeps elects a leader.
Exact centroid-distance ties and the depth-cap flush are ordered by
``repr`` of the node id, so the outputs, including every dict insertion
order, depend only on the ids and positions.

The build keeps each level's sentinels and their quadtree parents as
position arrays (:attr:`~QuadTreeDecomposition.level_rows`,
:attr:`~QuadTreeDecomposition.parent_rows`), which the batch ELink engine
reads directly; the id-keyed maps ``level_of``, ``quad_parent`` and
``quad_children`` are built from them on first read, which only the
handler engine makes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, repeat
from typing import Hashable, Iterator

import numpy as np

from repro.geometry.topology import Topology


@dataclass
class _Level:
    """Columnar snapshot of one electing quadtree level.

    ``order`` holds member indices grouped by cell (cells in build order,
    members in ``graph.nodes`` order within a cell), ``starts`` each
    cell's offset into it and ``cx``/``cy`` the cell centroids.  Every
    cell of the level elected a leader: cell *c*'s is the level's
    ``level_rows[c]``.
    """

    order: np.ndarray
    starts: np.ndarray
    cx: np.ndarray
    cy: np.ndarray


class QuadTreeDecomposition:
    """Sentinel hierarchy over a :class:`~repro.geometry.topology.Topology`.

    Attributes
    ----------
    sentinel_sets:
        ``sentinel_sets[l]`` is the list of sentinels (cell leaders) at
        level *l*; every network node appears in exactly one set.
    nodes:
        Node ids in ``graph.nodes`` order; the row arrays hold positions
        in it.
    level_rows:
        ``level_rows[l]`` holds the positions of ``sentinel_sets[l]``, in
        the same order (int64).
    parent_rows:
        ``parent_rows[l]`` holds the position of each of those sentinels'
        quadtree parent (the root is its own parent).
    level_of:
        Mapping node -> its sentinel level (built on first read).
    quad_parent:
        Mapping sentinel -> its quadtree parent sentinel (the root maps to
        itself; built on first read).
    quad_children:
        Mapping sentinel -> list of its quadtree child sentinels (built on
        first read).
    """

    #: Hard depth cap; co-located nodes would otherwise split forever.
    MAX_DEPTH = 32

    def __init__(self, topology: Topology):
        self.topology = topology
        self.sentinel_sets: list[list[Hashable]] = []
        self.level_rows: list[np.ndarray] = []
        self.parent_rows: list[np.ndarray] = []
        self.nodes = nodes = list(topology.graph.nodes)
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
        parents = None  # each cell's parent-cell leader (none at the root)
        assigned = np.zeros(n, dtype=bool)
        unassigned = n

        for level in range(self.MAX_DEPTH + 1):
            unelected = ~assigned[order]
            if level == self.MAX_DEPTH:
                # Depth-cap flush (footnote 2's "+k" tolerance): every
                # remaining node becomes a sentinel of this level, in repr
                # order per cell, under the cell's parent-cell leader.
                flushed: list[int] = []
                under: list[int] = []
                offsets = np.append(starts, order.size).tolist()
                for c, parent in enumerate(parents.tolist()):
                    lo, hi = offsets[c], offsets[c + 1]
                    remaining = order[lo:hi][unelected[lo:hi]].tolist()
                    remaining.sort(key=lambda i: repr(node_at(i)))
                    flushed += remaining
                    under += [parent] * len(remaining)
                self._add_level(np.array(flushed, dtype=np.int64), np.array(under, dtype=np.int64))
                break

            num_cells = starts.size
            cell_of = np.repeat(
                np.arange(num_cells, dtype=np.int64), np.diff(np.append(starts, order.size))
            )
            cx = (xmin + xmax) / 2.0
            cy = (ymin + ymax) / 2.0
            # Election: per-cell argmin of the squared centroid distance
            # over the still-unelected members (``inf`` masks the elected).
            # Every cell here has one, so every cell elects.
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
            leaders = np.empty(num_cells, dtype=np.int64)
            leaders[cand_cell[single]] = order[cand[single]]
            if not single.all():
                # Exact-distance ties (real on grids): the smallest repr of
                # the node id wins, the first in cell order among equals.
                tied: dict[int, list[int]] = {}
                for i, c in zip(order[cand[~single]].tolist(), cand_cell[~single].tolist()):
                    tied.setdefault(c, []).append(i)
                for c, members in tied.items():
                    leaders[c] = min(members, key=lambda i: repr(node_at(i)))
            self._levels.append(_Level(order, starts, cx, cy))
            # The root is its own quadtree parent.
            self._add_level(leaders, leaders if parents is None else parents)
            assigned[leaders] = True
            unassigned -= num_cells
            if not unassigned:
                break

            # Subdivision: members go to quadrant 0..3 of their cell
            # (points on a splitting line go left/bottom).  Only the
            # members of subcells with an unelected member are kept, and a
            # stable sort by (cell, quadrant) keeps them in graph order
            # within each subcell and the subcells in quadrant order.
            key = cell_of * 4 + np.where(xo <= cxo, 0, 1) + np.where(yo <= cyo, 0, 2)
            still_open = np.zeros(4 * num_cells, dtype=bool)
            still_open[key[~assigned[order]]] = True
            kept = still_open[key]
            key = key[kept]
            perm = np.argsort(key, kind="stable")
            order = order[kept][perm]
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
            parents = leaders[parent_cell]

    def _add_level(self, rows: np.ndarray, parents: np.ndarray) -> None:
        """Append one sentinel level: its positions and its parents'."""
        self.level_rows.append(rows)
        self.parent_rows.append(parents)
        self.sentinel_sets.append(list(map(self.nodes.__getitem__, rows.tolist())))

    # ------------------------------------------------------------------
    # id-keyed maps, built from the level arrays on first read
    # ------------------------------------------------------------------
    def _parent_ids(self) -> Iterator[Hashable]:
        """Each sentinel's quadtree parent id, in sentinel order."""
        return map(self.nodes.__getitem__, np.concatenate(self.parent_rows).tolist())

    @cached_property
    def level_of(self) -> dict[Hashable, int]:
        """Node -> its sentinel level, in sentinel order."""
        levels = (repeat(level, len(s)) for level, s in enumerate(self.sentinel_sets))
        return dict(zip(chain.from_iterable(self.sentinel_sets), chain.from_iterable(levels)))

    @cached_property
    def quad_parent(self) -> dict[Hashable, Hashable]:
        """Sentinel -> its quadtree parent, in sentinel order."""
        return dict(zip(chain.from_iterable(self.sentinel_sets), self._parent_ids()))

    @cached_property
    def quad_children(self) -> dict[Hashable, list[Hashable]]:
        """Sentinel -> its quadtree children, keys in sentinel order and
        children in the order they were elected."""
        children: dict[Hashable, list[Hashable]] = {
            v: [] for v in chain.from_iterable(self.sentinel_sets)
        }
        pairs = zip(chain.from_iterable(self.sentinel_sets), self._parent_ids())
        next(pairs)  # the root, its own parent
        for child, parent in pairs:
            children[parent].append(child)
        return children

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
        node_at = self.nodes.__getitem__
        xs, ys = self._xs, self._ys
        reprs = list(map(repr, self.nodes))
        rank_of = {r: i for i, r in enumerate(sorted(set(reprs)))}
        repr_rank = np.array([rank_of[r] for r in reprs], dtype=np.int64)
        orders: dict[Hashable, tuple] = {}
        for lv, leaders in zip(self._levels, self.level_rows):
            sizes = np.diff(np.append(lv.starts, lv.order.size))
            cell_of = np.repeat(np.arange(lv.starts.size, dtype=np.int64), sizes)
            keep = lv.order != leaders[cell_of]
            members = lv.order[keep]
            cells = cell_of[keep]
            d2 = (xs[members] - lv.cx[cells]) ** 2 + (ys[members] - lv.cy[cells]) ** 2
            ids = list(map(node_at, members[np.lexsort((repr_rank[members], d2, cells))].tolist()))
            ends = np.cumsum(sizes - 1).tolist()
            lo = 0
            for leader, hi in zip(map(node_at, leaders.tolist()), ends):
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
