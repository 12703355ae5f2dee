"""Summary statistics used throughout the analysis and reports."""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from ...util import geomean

__all__ = ["CellSummary", "geomean", "median", "speedup_ratio", "summarise"]


class CellSummary(NamedTuple):
    """The four numbers every analysis pass reads of one timing sample."""

    n: int
    mean: float
    var: float  # sample variance (ddof=1); NaN when n < 2
    median: float  # NaN when n == 0


def summarise(times: Sequence[float]) -> CellSummary:
    """``(n, mean, var(ddof=1), median)`` of one sample.

    Mean and variance are numpy's, so a Welch statistic computed from
    the summary equals one computed from the raw sample bit for bit.
    The median is the sorted middle (or the mean of the two middles),
    which is what ``np.median`` returns.  An empty sample summarises
    to NaNs.
    """
    arr = np.asarray(list(times), dtype=np.float64)
    n = int(arr.size)
    if n == 0:
        nan = float("nan")
        return CellSummary(0, nan, nan, nan)
    var = float(arr.var(ddof=1)) if n >= 2 else float("nan")
    ordered = sorted(arr.tolist())
    mid = n // 2
    med = ordered[mid] if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2.0
    return CellSummary(n, float(arr.mean()), var, float(med))


def median(values: Sequence[float]) -> float:
    values = list(values)
    if not values:
        raise ValueError("median of an empty sequence")
    return float(np.median(np.asarray(values, dtype=np.float64)))


def speedup_ratio(baseline_times: Sequence[float], times: Sequence[float]) -> float:
    """Median-based speedup of ``times`` over ``baseline_times`` (>1 is faster)."""
    return median(baseline_times) / median(times)
