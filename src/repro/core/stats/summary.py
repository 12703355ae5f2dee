"""Summary statistics used throughout the analysis and reports."""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from ...util import geomean

__all__ = [
    "CellSummary", "geomean", "median", "sorted_median", "speedup_ratio",
    "summarise",
]


class CellSummary(NamedTuple):
    """The four numbers every analysis pass reads of one timing sample."""

    n: int
    mean: float
    var: float  # sample variance (ddof=1); NaN when n < 2
    median: float  # NaN when n == 0


def sorted_median(values: Sequence[float]) -> float:
    """The sorted middle of a non-empty sample (the mean of the two
    middles for an even count), as ``np.median`` computes it."""
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def summarise(times: Sequence[float]) -> CellSummary:
    """``(n, mean, var(ddof=1), median)`` of one sample.

    Mean and variance are numpy's, so a Welch statistic computed from
    the summary equals one computed from the raw sample bit for bit.
    The median is :func:`sorted_median`.  An empty sample summarises
    to NaNs.
    """
    arr = np.asarray(list(times), dtype=np.float64)
    n = int(arr.size)
    if n == 0:
        nan = float("nan")
        return CellSummary(0, nan, nan, nan)
    var = float(arr.var(ddof=1)) if n >= 2 else float("nan")
    med = sorted_median(arr.tolist())
    return CellSummary(n, float(arr.mean()), var, med)


def median(values: Sequence[float]) -> float:
    values = list(values)
    if not values:
        raise ValueError("median of an empty sequence")
    return float(np.median(np.asarray(values, dtype=np.float64)))


def speedup_ratio(baseline_times: Sequence[float], times: Sequence[float]) -> float:
    """Median-based speedup of ``times`` over ``baseline_times`` (>1 is faster)."""
    return median(baseline_times) / median(times)
