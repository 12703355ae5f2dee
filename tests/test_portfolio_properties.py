"""Property-based hardening of the greedy portfolio construction.

Hypothesis generates small *random studies* — random grid shapes,
random per-cell timings, random holes — and checks the invariants the
"few fit most" analysis rests on:

* the K-vs-coverage curve is monotone non-decreasing in K (the
  uncovered-test penalty makes adding a configuration never harmful);
* a K = 1 portfolio *is* the Algorithm 1 strategy: the greedy is
  seeded with it, and its coverage matches an independent
  geomean-of-ratios recomputation (``statistics.median`` + ``math``
  instead of the production numpy path);
* K = #configs reaches 100 % of oracle, exactly (each covered test's
  ratio is float-exactly 1.0, so the geomean is too);
* the greedy output is deterministic under dict-order shuffling of the
  dataset's insertion order (all internal orderings are canonical);
* the median-matrix greedy matches, step for step and float for float,
  a test-local dict-scan greedy that re-scores every candidate from
  each test's per-config median dict.

Integer-valued timings keep medians and ratios exact across orderings.
"""

from __future__ import annotations

import math
import statistics

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler import enumerate_configs
from repro.core import (
    Analysis,
    build_portfolios,
    build_strategies,
    greedy_portfolio,
    portfolio_coverage,
)
from repro.study.dataset import PerfDataset, TestCase
from repro.util import geomean

CHIPS = ("chipA", "chipB")
APPS = ("appX", "appY")
GRAPHS = ("g1", "g2")
CONFIGS = enumerate_configs()[:8]  # baseline + 7 single/double-opt configs


@st.composite
def studies(draw, timings=st.integers(1, 40).map(float)) -> PerfDataset:
    """A random small study: grid shape, timings and holes all drawn.

    The baseline configuration is always measured (so every test stays
    populated); every other cell is independently droppable, which
    exercises the uncovered-test penalty path.
    """
    n_chips = draw(st.integers(1, 2))
    n_apps = draw(st.integers(1, 2))
    n_graphs = draw(st.integers(1, 2))
    n_configs = draw(st.integers(2, len(CONFIGS)))
    ds = PerfDataset()
    for chip in CHIPS[:n_chips]:
        for app in APPS[:n_apps]:
            for graph in GRAPHS[:n_graphs]:
                test = TestCase(app=app, graph=graph, chip=chip)
                for config in CONFIGS[:n_configs]:
                    if not config.is_baseline and draw(st.booleans()):
                        continue  # a hole in the grid
                    ms = draw(timings)
                    ds.add(test, config, [ms] * 3)
    return ds


def _reference_coverage(ds: PerfDataset, tests, config_key: str) -> float:
    """Independent K = 1 coverage: stdlib median, log-sum geomean."""
    logs = []
    for test in tests:
        medians = {}
        for config in ds.configs:
            times = ds.times_or_none(test, config)
            if times is not None:
                medians[config.key()] = statistics.median(times)
        if not medians:
            continue
        oracle = min(medians.values())
        deployed = medians.get(config_key, max(medians.values()))
        logs.append(math.log(oracle / deployed))
    return math.exp(sum(logs) / len(logs)) if logs else 1.0


@settings(max_examples=20, deadline=None)
@given(studies())
def test_curves_monotone_non_decreasing_in_k(ds):
    portfolios = build_portfolios(ds)
    for cells in portfolios.levels.values():
        for curve in cells.values():
            for a, b in zip(curve.steps, curve.steps[1:]):
                assert a.coverage <= b.coverage
            # coverage_at inherits the monotonicity, clamping included.
            upper = len(curve.steps) + 2
            at = [curve.coverage_at(k) for k in range(1, upper + 1)]
            assert at == sorted(at)


@settings(max_examples=20, deadline=None)
@given(studies())
def test_k1_equals_the_algorithm1_strategy_coverage(ds):
    analysis = Analysis(ds)
    strategies = build_strategies(ds, analysis)
    portfolios = build_portfolios(
        ds, analysis=analysis, strategies=strategies
    )
    from repro.core.strategies import STRATEGY_DIMS

    for level, cells in portfolios.levels.items():
        partitions = analysis.partitions(STRATEGY_DIMS[level])
        for key, curve in cells.items():
            if not curve.steps:
                continue
            seed = strategies[level].assignment[key]
            assert curve.steps[0].config == seed.key()
            assert curve.coverage_at(1) == pytest.approx(
                _reference_coverage(ds, partitions[key], seed.key()),
                rel=1e-9,
            )


@settings(max_examples=20, deadline=None)
@given(studies())
def test_full_portfolio_reaches_the_oracle_exactly(ds):
    portfolios = build_portfolios(ds)
    n_configs = len(ds.configs)
    for cells in portfolios.levels.values():
        for curve in cells.values():
            assert curve.coverage_at(max(1, n_configs)) == 1.0
            if curve.steps:
                assert curve.steps[-1].coverage == 1.0


@settings(max_examples=20, deadline=None)
@given(studies(), st.randoms(use_true_random=False))
def test_greedy_deterministic_under_insertion_order_shuffle(ds, rnd):
    """Re-inserting the measurements in a shuffled order must not move
    a single step: ties break on sorted keys, not dict order."""
    cells = list(ds.iter_measurements())
    rnd.shuffle(cells)
    shuffled = PerfDataset()
    for test, config, times in cells:
        shuffled.add(test, config, times)
    baseline = greedy_portfolio(ds, ds.tests, level="global", key=())
    again = greedy_portfolio(
        shuffled, shuffled.tests, level="global", key=()
    )
    assert again.to_dict() == baseline.to_dict()


@settings(max_examples=10, deadline=None)
@given(studies(), st.randoms(use_true_random=False))
def test_build_portfolios_deterministic_under_shuffle(ds, rnd):
    """The full lattice build — Algorithm 1 seeding included — is
    insertion-order independent too."""
    cells = list(ds.iter_measurements())
    rnd.shuffle(cells)
    shuffled = PerfDataset()
    for test, config, times in cells:
        shuffled.add(test, config, times)
    assert (
        build_portfolios(shuffled).to_dict()
        == build_portfolios(ds).to_dict()
    )


@settings(max_examples=20, deadline=None)
@given(studies(), st.integers(1, 4))
def test_coverage_of_any_prefix_matches_public_recomputation(ds, k):
    curve = greedy_portfolio(ds, ds.tests, level="global", key=())
    if not curve.steps:
        return
    k = min(k, len(curve.steps))
    assert curve.coverage_at(k) == pytest.approx(
        portfolio_coverage(ds, ds.tests, curve.configs_for(k))
    )


def _dict_scan_rows(ds, tests):
    """Per test (sorted, measured ones only): config key -> median."""
    rows = []
    for test in sorted(tests):
        medians = {}
        for config in ds.configs:
            times = ds.times_or_none(test, config)
            if times is not None:
                medians[config.key()] = statistics.median(times)
        if medians:
            rows.append(medians)
    return rows


def _dict_scan_coverage(rows, configs):
    chosen = set(configs)
    ratios = []
    for medians in rows:
        oracle = min(medians.values())
        deployed = [m for key, m in medians.items() if key in chosen]
        best = min(deployed) if deployed else max(medians.values())
        ratios.append(oracle / best)
    return geomean(ratios)


def _dict_scan_greedy(ds, tests, seed, k_max):
    """The greedy set cover re-scoring every candidate set in full:
    [(config, coverage, gain), ...]."""
    rows = _dict_scan_rows(ds, tests)
    if not rows:
        return []
    candidates = sorted({key for medians in rows for key in medians})
    chosen, steps, coverage = [], [], 0.0
    if seed is not None:
        chosen.append(seed)
        coverage = _dict_scan_coverage(rows, chosen)
        steps.append((seed, coverage, coverage))
    while coverage < 1.0 and (k_max is None or len(chosen) < k_max):
        best_key, best_cov = None, coverage
        for candidate in candidates:
            if candidate in chosen:
                continue
            cov = _dict_scan_coverage(rows, chosen + [candidate])
            if cov > best_cov:
                best_key, best_cov = candidate, cov
        if best_key is None:
            break
        chosen.append(best_key)
        steps.append((best_key, best_cov, best_cov - coverage))
        coverage = best_cov
    return steps


@settings(max_examples=40, deadline=None)
@given(
    st.one_of(
        studies(),
        studies(timings=st.floats(0.5, 40.0, allow_nan=False)),
    ),
    st.data(),
)
def test_greedy_matches_the_dict_scan_oracle_exactly(ds, data):
    seeds = [None, "no-such-config"] + [c.key() for c in ds.configs]
    k_max = data.draw(st.one_of(st.none(), st.integers(1, 4)))
    for dims in ((), ("chip",), ("app", "input")):
        for key, tests in Analysis(ds).partitions(dims).items():
            seed = data.draw(st.sampled_from(seeds))
            curve = greedy_portfolio(
                ds, tests, level="x", key=key, seed=seed, k_max=k_max
            )
            got = [(s.config, s.coverage, s.gain) for s in curve.steps]
            assert got == _dict_scan_greedy(ds, tests, seed, k_max)
            rows = _dict_scan_rows(ds, tests)
            assert curve.n_tests == len(rows)
            for k in range(1, len(got) + 1):
                configs = curve.configs_for(k)
                assert portfolio_coverage(
                    ds, tests, configs
                ) == _dict_scan_coverage(rows, configs)
