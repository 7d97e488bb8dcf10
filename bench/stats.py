"""Order statistics shared by the workloads, the trace export and compare.py."""

from __future__ import annotations

import statistics

import numpy as np


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile (numpy's default) of *values*."""
    return float(np.percentile(values, q))


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    """Interquartile range as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median
