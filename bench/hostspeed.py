"""Host-speed calibration: every timed sample is reported at a reference speed.

The reference host shares its two cores with other tenants, and Python
code on it runs up to ~2x slower for minutes at a time.  CPU time slows
down with wall time, so no clock leaves the slowdown out.  The benchmark
therefore times a fixed reference kernel between its samples and scales
each sample by the host speed the kernel saw around it:

    reported = raw * (NOMINAL_S / mean(kernel before, kernel after)) ** sensitivity

The kernel is the benchmark's own code, a heap-driven flood over a fixed
random geometric graph (heap pushes and pops, dict lookups and inserts,
tuple allocation: the mix the simulator runs on), and does not import
``repro``.  A change to the code under test moves the raw time and not
the kernel's, so it moves the reported time by the same share; a slower
host moves both and cancels.  Code does not slow down exactly as much
as the kernel when the host does (numpy-heavy code slows less), so each
workload has a *sensitivity*, the exponent above, fitted over many runs
so that its scaled times no longer follow the host's speed (1 for code
that slows exactly as the kernel does).  ``NOMINAL_S`` is the kernel's
time on the reference host at its fast speed, so reported times read as
that host's fast-state times.  Every report also carries the raw times.
"""

from __future__ import annotations

import gc
import heapq
import random
import time

#: Reference-kernel seconds on the reference host (Xeon, 2 vCPUs) at its
#: fast speed.
NOMINAL_S = 0.020
#: Size of the kernel's graph: nodes, and the connection radius on the
#: unit square (mean degree ~7).
_NODES = 8_000
_RADIUS = 0.017

now = time.perf_counter


def _graph() -> list[tuple[int, ...]]:
    """A fixed random geometric graph, as neighbour tuples per node."""
    rng = random.Random(0)
    points = [(rng.random(), rng.random()) for _ in range(_NODES)]
    cells: dict[tuple[int, int], list[int]] = {}
    for index, (x, y) in enumerate(points):
        cells.setdefault((int(x / _RADIUS), int(y / _RADIUS)), []).append(index)
    adjacency: list[list[int]] = [[] for _ in range(_NODES)]
    for (cx, cy), members in cells.items():
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                for j in cells.get((cx + dx, cy + dy), ()):
                    for i in members:
                        if i != j:
                            (xi, yi), (xj, yj) = points[i], points[j]
                            if (xi - xj) ** 2 + (yi - yj) ** 2 < _RADIUS**2:
                                adjacency[i].append(j)
    return [tuple(sorted(row)) for row in adjacency]


class HostSpeed:
    """The reference kernel, and the scale factors it yields for one run
    of a workload with the given *sensitivity*."""

    def __init__(self, sensitivity: float) -> None:
        self.sensitivity = sensitivity
        self._adjacency = _graph()
        #: Duration of every kernel run, in order.
        self.kernel_s: list[float] = []
        self._kernel()  # warm the interpreter's caches once, untimed

    def _kernel(self) -> int:
        """Flood the graph from node 0, reaching nodes in delay order."""
        adjacency = self._adjacency
        reached: dict[int, tuple[float, int]] = {}
        heap = [(0.0, 0, 0)]
        seq = 1
        while heap:
            t, _seq, node = heapq.heappop(heap)
            if node in reached:
                continue
            reached[node] = (t, len(adjacency[node]))
            for other in adjacency[node]:
                if other not in reached:
                    heapq.heappush(heap, (t + 1.0 + (other % 7) * 0.01, seq, other))
                    seq += 1
        return len(reached)

    def mark(self) -> float:
        """Run the kernel once; return the scale for the block of work
        since the previous mark (1.0 on the first mark).

        Multiply a raw duration measured in that block by the scale to get
        it at the reference speed.  The garbage collector is held off
        while the kernel runs, so a collection the workload's heap is due
        does not land in the kernel's time.
        """
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = now()
            self._kernel()
            self.kernel_s.append(now() - start)
        finally:
            if enabled:
                gc.enable()
        if len(self.kernel_s) < 2:
            return 1.0
        return (NOMINAL_S / ((self.kernel_s[-2] + self.kernel_s[-1]) / 2)) ** self.sensitivity

    @property
    def spent_s(self) -> float:
        """Seconds spent in the kernel so far."""
        return sum(self.kernel_s)
