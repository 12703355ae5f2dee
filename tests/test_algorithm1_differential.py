"""Differential tests of Algorithm 1 against a per-cell reference.

:class:`~repro.core.algorithm1.Analysis` decides significance from a
per-cell summary table with one t-CDF evaluation per comparison.  The
reference here walks the raw timings the way the paper's listing
reads: for every mirror pair and every test, a Welch confidence
interval (:func:`welch_interval`, whose critical value comes from the
t quantile) filters the comparison, ``statistics.median`` forms the
normalised runtime, and :func:`mann_whitney_u` decides.  Hypothesis
draws random studies with holes, single-repetition cells and
zero-variance cells; every decision at every lattice level must match
field for field.
"""

from __future__ import annotations

import math
import statistics

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler import OPT_NAMES, configs_with, disable_opt, enumerate_configs
from repro.core import Analysis, significant_difference, welch_interval
from repro.core.significance import welch_significant
from repro.core.stats.mwu import mann_whitney_u
from repro.core.stats.summary import summarise
from repro.core.stats.tdist import t_ppf
from repro.core.strategies import STRATEGY_DIMS
from repro.errors import InsufficientDataError
from repro.study.dataset import PerfDataset, TestCase

CHIPS = ("chipA", "chipB")
APPS = ("appX", "appY")
GRAPHS = ("g1", "g2")
# baseline plus single, double and triple combinations of sz256,
# oitergb, fg, fg8 and sg: every one of those has mirror pairs, and
# fg/fg8 exercise the mutual-exclusion arbitration.
CONFIGS = enumerate_configs()[:24]

_AXIS = {"chip": "chip", "app": "app", "input": "graph"}


@st.composite
def studies(draw) -> PerfDataset:
    """A random study with holes, single-repetition cells and
    zero-variance cells (the baseline is always measured)."""
    n_chips = draw(st.integers(1, 2))
    n_apps = draw(st.integers(1, 2))
    n_graphs = draw(st.integers(1, 2))
    ds = PerfDataset()
    for chip in CHIPS[:n_chips]:
        for app in APPS[:n_apps]:
            for graph in GRAPHS[:n_graphs]:
                test = TestCase(app=app, graph=graph, chip=chip)
                for config in CONFIGS:
                    if not config.is_baseline and draw(st.integers(0, 4)) == 0:
                        continue  # a hole in the grid
                    level = draw(st.integers(5, 60))
                    n = draw(st.sampled_from((1, 2, 3, 3, 3, 4)))
                    if draw(st.integers(0, 3)) == 0:
                        times = [float(level)] * n  # zero variance
                    else:
                        jitter = draw(
                            st.lists(st.integers(-3, 3), min_size=n, max_size=n)
                        )
                        times = [level + 0.25 * j for j in jitter]
                    ds.add(test, config, times)
    return ds


def _reference_ratios(ds, tests, opt, confidence=0.95):
    """Algorithm 1's list A, comparison by comparison from raw timings."""
    a = []
    for cfg in configs_with(opt):
        mirror = disable_opt(cfg, opt)
        for test in tests:
            on = ds.times_or_none(test, cfg)
            off = ds.times_or_none(test, mirror)
            if on is None or off is None or len(on) < 2 or len(off) < 2:
                continue
            low, high = welch_interval(on, off, confidence)
            if low > 0.0 or high < 0.0:
                a.append(statistics.median(on) / statistics.median(off))
    return a


def _reference_decisions(ds, tests, alpha=0.05, min_samples=3):
    """opt -> (enabled, inconclusive, p, effect, median_ratio, n)."""
    out = {}
    for opt in OPT_NAMES:
        a = _reference_ratios(ds, tests, opt)
        n = len(a)
        effect = (
            (sum(x < 1.0 for x in a) + 0.5 * sum(x == 1.0 for x in a)) / n
            if n
            else 0.5
        )
        med = statistics.median(a) if a else float("nan")
        try:
            result = mann_whitney_u(a, [1.0] * n, min_samples=min_samples)
        except InsufficientDataError:
            out[opt] = [False, True, float("nan"), effect, med, n]
            continue
        enabled = result.p_value < alpha and med < 1.0
        out[opt] = [enabled, False, result.p_value, effect, med, n]
    if out["fg"][0] and out["fg8"][0]:
        weaker = "fg" if out["fg"][3] <= out["fg8"][3] else "fg8"
        out[weaker][0] = False
    return out


def _same(x, y) -> bool:
    if isinstance(x, float) and isinstance(y, float):
        return (math.isnan(x) and math.isnan(y)) or x == y
    return x == y


def _reference_partitions(ds, dims):
    groups = {}
    for test in ds.tests:
        key = tuple(getattr(test, _AXIS[dim]) for dim in dims)
        groups.setdefault(key, []).append(test)
    return groups


@settings(max_examples=25, deadline=None)
@given(studies())
def test_decisions_match_the_per_cell_reference_at_every_level(ds):
    analysis = Analysis(ds)
    for dims in STRATEGY_DIMS.values():
        partitions = _reference_partitions(ds, dims)
        assert set(analysis.partitions(dims)) == set(partitions)
        for key, tests in partitions.items():
            got = analysis.opts_for_partition(tests)
            want = _reference_decisions(ds, tests)
            for opt in OPT_NAMES:
                d = got[opt]
                fields = [
                    d.enabled,
                    d.inconclusive,
                    d.p_value,
                    d.effect_size,
                    d.median_ratio,
                    d.n_samples,
                ]
                assert all(
                    _same(g, w) for g, w in zip(fields, want[opt])
                ), (dims, key, opt, fields, want[opt])


@settings(max_examples=25, deadline=None)
@given(studies())
def test_comparison_lists_match_the_reference_order(ds):
    """Same ratios in the same order: mirror pair by mirror pair, the
    tests in the order asked within a pair."""
    analysis = Analysis(ds)
    tests = list(reversed(ds.tests))
    for opt in OPT_NAMES:
        a, b = analysis.comparison_lists(tests, opt)
        assert a == _reference_ratios(ds, tests, opt)
        assert b == [1.0] * len(a)


def _boundary_cases():
    """(a, b) sample shapes whose Welch df spans 1 to 50."""
    cases = []
    for na in range(2, 27):
        for nb, spread_b in ((na, 1.0), (na, 0.5), (max(2, na // 2), 1e-4)):
            a0 = np.linspace(-1.0, 1.0, na)
            b = 100.0 + spread_b * np.linspace(-1.0, 1.0, nb)
            cases.append((a0, b))
    return cases


def _welch_df(a, b):
    va, vb = a.var(ddof=1), b.var(ddof=1)
    se_sq = va / a.size + vb / b.size
    df = se_sq ** 2 / (
        (va / a.size) ** 2 / (a.size - 1) + (vb / b.size) ** 2 / (b.size - 1)
    )
    return max(df, 1.0), math.sqrt(se_sq)


@pytest.mark.parametrize("confidence", [0.90, 0.95, 0.99])
def test_cdf_test_agrees_with_the_interval_at_the_critical_value(confidence):
    """|t| just above / below t_ppf(q, df)·se: the one-CDF test and the
    Welch interval give the same verdict, on both sides of zero."""
    q = 0.5 + confidence / 2.0
    dfs = []
    for a0, b in _boundary_cases():
        df, se = _welch_df(a0, b)
        dfs.append(df)
        threshold = t_ppf(q, df) * se
        for factor, expected in ((1.0 + 1e-6, True), (1.0 - 1e-6, False)):
            for sign in (1.0, -1.0):
                a = a0 + (b.mean() + sign * factor * threshold)
                low, high = welch_interval(a, b, confidence)
                by_interval = low > 0.0 or high < 0.0
                by_cdf = welch_significant(
                    summarise(a), summarise(b), confidence
                )
                assert by_interval == by_cdf == expected, (df, factor, sign)
                assert significant_difference(a, b, confidence) == expected
    assert min(dfs) < 1.01 and max(dfs) > 49.9
