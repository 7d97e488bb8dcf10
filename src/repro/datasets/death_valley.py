"""Death-Valley-like elevation dataset (paper §8.1).

The paper scatters sensors over the USGS EROS Death Valley elevation grid
and assigns each sensor the terrain elevation at its location (a *static*,
spatially correlated scalar feature; range 175–1996 m, 2500 samples, results
averaged over 5 random topologies).  The USGS archive is not available
offline, so we synthesize terrain with the **diamond–square** fractal
algorithm — the classic mid-point-displacement method whose output has the
same spatial-autocorrelation character as real terrain (smooth valley
floors, rugged ridges) — and rescale it to the published elevation range.

What the clustering experiments exercise is exactly this property: nearby
sensors read similar elevations, so cluster counts fall steeply as δ grows;
fractal terrain reproduces that behaviour.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Hashable

import numpy as np

from repro._validation import require_in_range, require_int_at_least
from repro.features import EuclideanMetric
from repro.geometry.topology import Topology, scatter_topology

#: Published elevation range of the Death Valley grid (metres).
ELEVATION_RANGE = (175.0, 1996.0)


@dataclass
class DeathValleyDataset:
    """A generated terrain dataset: topology + per-node elevation feature."""

    topology: Topology
    features: dict[Hashable, np.ndarray]  # 1-d elevation features
    terrain: np.ndarray  # the full grid, for visualization / examples

    def metric(self) -> EuclideanMetric:
        """Elevation distance is plain absolute difference (1-d Euclidean)."""
        return EuclideanMetric()


def diamond_square(size_exponent: int, *, roughness: float = 0.55, seed: int = 0) -> np.ndarray:
    """Generate a (2^k + 1)² fractal height map via diamond–square.

    *roughness* in (0, 1) controls how fast displacement amplitude decays
    per subdivision: higher values give more rugged terrain.
    """
    require_int_at_least(size_exponent, 1, "size_exponent")
    require_in_range(roughness, 0.0, 1.0, "roughness", inclusive=False)
    rng = np.random.default_rng(seed)
    size = 2**size_exponent + 1
    grid = np.zeros((size, size), dtype=np.float64)
    for corner in [(0, 0), (0, size - 1), (size - 1, 0), (size - 1, size - 1)]:
        grid[corner] = rng.normal(0.0, 1.0)

    step = size - 1
    amplitude = 1.0
    while step > 1:
        half = step // 2
        # Diamond step: centre of each square gets the corner mean + noise.
        for y in range(half, size, step):
            for x in range(half, size, step):
                corners = (
                    grid[y - half, x - half]
                    + grid[y - half, x + half]
                    + grid[y + half, x - half]
                    + grid[y + half, x + half]
                ) / 4.0
                grid[y, x] = corners + rng.normal(0.0, amplitude)
        # Square step: edge mid-points get the mean of their diamond
        # neighbours + noise (edges wrap to 3-point means).
        for y in range(0, size, half):
            x_start = half if (y // half) % 2 == 0 else 0
            for x in range(x_start, size, step):
                total, count = 0.0, 0
                for dy, dx in ((-half, 0), (half, 0), (0, -half), (0, half)):
                    ny, nx_ = y + dy, x + dx
                    if 0 <= ny < size and 0 <= nx_ < size:
                        total += grid[ny, nx_]
                        count += 1
                grid[y, x] = total / count + rng.normal(0.0, amplitude)
        step = half
        amplitude *= roughness
    return grid


def generate_death_valley_dataset(
    *,
    seed: int = 11,
    num_sensors: int = 2500,
    terrain_exponent: int = 7,
    roughness: float = 0.55,
    target_degree: float = 6.0,
) -> DeathValleyDataset:
    """Scatter *num_sensors* sensors over fractal terrain (see module doc).

    The per-seed terrain AND topology both vary with *seed*, matching the
    paper's "averaged over 5 different random topologies".  Deterministic
    per parameter set.
    """
    require_int_at_least(num_sensors, 2, "num_sensors")
    rng = np.random.default_rng(seed)
    terrain = diamond_square(terrain_exponent, roughness=roughness, seed=seed)
    lo, hi = terrain.min(), terrain.max()
    terrain = ELEVATION_RANGE[0] + (terrain - lo) / (hi - lo) * (
        ELEVATION_RANGE[1] - ELEVATION_RANGE[0]
    )
    size = terrain.shape[0]

    side = float(size - 1)
    xy = rng.uniform(0.0, side, size=(num_sensors, 2))
    points = {i: (float(xy[i, 0]), float(xy[i, 1])) for i in range(num_sensors)}
    radio_range = side * math.sqrt(target_degree / (math.pi * max(num_sensors - 1, 1)))
    topology = scatter_topology(points, radio_range=radio_range)

    features = {
        i: np.array([_bilinear(terrain, xy[i, 0], xy[i, 1])]) for i in range(num_sensors)
    }
    return DeathValleyDataset(topology, features, terrain)


def _bilinear(grid: np.ndarray, x: float, y: float) -> float:
    """Bilinear interpolation of *grid* at continuous position (x, y)."""
    size = grid.shape[0]
    x = min(max(x, 0.0), size - 1.0)
    y = min(max(y, 0.0), size - 1.0)
    x0, y0 = int(x), int(y)
    x1, y1 = min(x0 + 1, size - 1), min(y0 + 1, size - 1)
    fx, fy = x - x0, y - y0
    top = grid[y0, x0] * (1 - fx) + grid[y0, x1] * fx
    bottom = grid[y1, x0] * (1 - fx) + grid[y1, x1] * fx
    return float(top * (1 - fy) + bottom * fy)
