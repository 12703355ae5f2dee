"""The per-comparison 95 % CI significance filter (Algorithm 1, line 14).

Before a runtime ratio enters the rank analysis, the paper requires
the difference between the two timing samples to be statistically
significant at 95 % confidence.  With the study's three repetitions
per measurement this is a Welch confidence interval on the difference
of means: the comparison is significant when the interval excludes
zero.

The same filter defines the paper's vocabulary: a configuration gives
a test a *speedup* (or *slowdown*) only when its timings differ
significantly from the baseline's and the median moved in the
corresponding direction.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .. import obs
from .stats.summary import CellSummary, summarise
from .stats.tdist import t_cdf, t_ppf

__all__ = [
    "classify_outcome",
    "significant_difference",
    "summary_outcome",
    "welch_interval",
    "welch_significant",
]

#: Variance floor for degenerate zero-variance samples, so the Welch
#: statistic stays well-defined (timing data is never exactly
#: constant, but simulated data can be).
_VAR_FLOOR = 1e-24


def _welch_terms(va: float, na: int, vb: float, nb: int):
    """(se², df) of the Welch difference of two sample means."""
    va, vb = max(va, _VAR_FLOOR), max(vb, _VAR_FLOOR)
    se_sq = va / na + vb / nb
    df = se_sq ** 2 / (
        (va / na) ** 2 / (na - 1) + (vb / nb) ** 2 / (nb - 1)
    )
    return se_sq, max(df, 1.0)


def welch_interval(
    a: Sequence[float], b: Sequence[float], confidence: float = 0.95
):
    """Welch CI for mean(a) - mean(b); returns (low, high).

    Degenerate zero-variance samples get a tiny floor variance so the
    interval stays well-defined.  For a yes/no verdict use
    :func:`welch_significant`, which needs no quantile.
    """
    obs.count("analysis.welch_intervals")
    a = np.asarray(list(a), dtype=np.float64)
    b = np.asarray(list(b), dtype=np.float64)
    if a.size < 2 or b.size < 2:
        raise ValueError("Welch interval needs at least two samples per side")
    se_sq, df = _welch_terms(
        float(a.var(ddof=1)), a.size, float(b.var(ddof=1)), b.size
    )
    t_crit = t_ppf(0.5 + confidence / 2.0, df)
    diff = float(a.mean() - b.mean())
    half = t_crit * math.sqrt(se_sq)
    return diff - half, diff + half


def welch_significant(
    a: CellSummary, b: CellSummary, confidence: float = 0.95
) -> bool:
    """Whether two summarised samples differ at the given confidence.

    The Welch interval excludes zero exactly when the t statistic
    ``|mean(a) - mean(b)| / se`` lies beyond the ``0.5 + confidence/2``
    quantile, so one t-CDF evaluation decides it.  A side with fewer
    than two repetitions carries no variance information: no
    significant difference can be established, and single-repetition
    (degraded) data classifies as no-change instead of crashing the
    analysis.
    """
    if a.n < 2 or b.n < 2:
        obs.count("analysis.pairs.single_sample")
        return False
    obs.count("analysis.welch_intervals")
    se_sq, df = _welch_terms(a.var, a.n, b.var, b.n)
    t = abs(a.mean - b.mean) / math.sqrt(se_sq)
    return t_cdf(t, df) > 0.5 + confidence / 2.0


def significant_difference(
    a: Sequence[float], b: Sequence[float], confidence: float = 0.95
) -> bool:
    """Whether two timing samples differ at the given confidence
    (:func:`welch_significant` on their summaries)."""
    return welch_significant(summarise(a), summarise(b), confidence)


def classify_outcome(
    baseline_times: Sequence[float],
    times: Sequence[float],
    confidence: float = 0.95,
) -> str:
    """The paper's outcome vocabulary: speedup / slowdown / no-change.

    A significant difference with a lower median is a ``"speedup"``,
    with a higher median a ``"slowdown"``; anything else is
    ``"no-change"``.
    """
    return summary_outcome(
        summarise(baseline_times), summarise(times), confidence
    )


def summary_outcome(
    baseline: CellSummary, cell: CellSummary, confidence: float = 0.95
) -> str:
    """:func:`classify_outcome` of two summarised samples."""
    if not welch_significant(cell, baseline, confidence):
        return "no-change"
    return "speedup" if cell.median < baseline.median else "slowdown"
