"""Property-based hardening of the budgeted search strategies.

Hypothesis generates small *random studies* — random grid shapes,
random per-cell timings, random holes — and checks the invariants the
budgeted-autotuning layer rests on:

* a search never spends past its budget, whatever the strategy, the
  budget or the hole pattern (the hard cap of
  :class:`~repro.core.search.SearchStrategy.propose`);
* the best-so-far trajectory along the observation history is monotone
  non-increasing (full-fidelity medians only — screening rungs may
  promote but never recommend);
* ``budget >= len(pool)`` recovers the exhaustive oracle *exactly* —
  config key and median, bit for bit — for every strategy;
* replays are bit-deterministic under a fixed seed and invariant under
  dict-order shuffling of the dataset's insertion order (all internal
  orderings are canonical), mirroring ``test_portfolio_properties``.

Integer-valued timings keep medians exact across orderings.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler import enumerate_configs
from repro.core import (
    SEARCH_STRATEGIES,
    make_strategy,
    oracle_best,
    replay_search,
)
from repro.core.cells import CellTable
from repro.core.search import _EPS, lattice_neighbours
from repro.errors import SearchError
from repro.study.dataset import PerfDataset, TestCase

CHIPS = ("chipA", "chipB")
APPS = ("appX", "appY")
GRAPHS = ("g1", "g2")
CONFIGS = enumerate_configs()[:8]  # baseline + 7 single/double-opt configs

STRATEGY_NAMES = sorted(SEARCH_STRATEGIES)


@st.composite
def studies(draw) -> PerfDataset:
    """A random small study: grid shape, timings and holes all drawn.

    The baseline configuration is always measured (so every test stays
    scoreable); every other cell is independently droppable, which
    exercises the hole-costs-nothing path of the replay loop.
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
                    ms = draw(st.integers(1, 40))
                    ds.add(test, config, [float(ms)] * 3)
    return ds


def _drive(ds, test, name, budget, seed=0):
    """Run one strategy to completion against the dataset, like
    ``replay_search`` but returning the live searcher for inspection."""
    searcher = make_strategy(
        name,
        ds.configs,
        budget=budget,
        rng=random.Random(seed),
        repetitions=3,
    )
    while (prop := searcher.propose()) is not None:
        times = ds.times_or_none(test, prop.config)
        if times is not None and prop.repetitions is not None:
            times = times[: prop.repetitions]
        searcher.observe(prop, times)
    return searcher


@settings(max_examples=20, deadline=None)
@given(studies(), st.sampled_from(STRATEGY_NAMES), st.integers(1, 12))
def test_spent_never_exceeds_budget(ds, name, budget):
    # Successive halving's fidelity rungs at 3 repetitions (1, 2, 3 for
    # eta 2); the other strategies observe at full fidelity only.
    rungs = make_strategy(
        "halving", ds.configs, budget=1, rng=random.Random(0), repetitions=3
    )._rungs()
    cells = CellTable(ds)
    for test in ds.tests:
        searcher = _drive(ds, test, name, budget)
        assert searcher.spent <= budget + _EPS
        # Each config is observed at most once per fidelity rung: the
        # leftover-budget confirmation only tops a config up to a
        # fidelity it has not reached.
        observed = [(obs.config, obs.n_times) for obs in searcher.history]
        assert len(observed) == len(set(observed))
        assert {n for _, n in observed} <= set(rungs)
        # The replay harness reports the same accounting.
        result = replay_search(ds, cells, test, name, budget)
        assert result.spent <= budget + _EPS
        assert result.evaluations <= len(rungs) * len(ds.configs)


@settings(max_examples=20, deadline=None)
@given(studies(), st.sampled_from(STRATEGY_NAMES), st.integers(1, 12))
def test_best_so_far_monotone_non_increasing(ds, name, budget):
    for test in ds.tests:
        searcher = _drive(ds, test, name, budget)
        trajectory = [
            obs.best_median
            for obs in searcher.history
            if obs.best_median is not None
        ]
        assert trajectory == sorted(trajectory, reverse=True)
        # Once set, the best-so-far never resets to None.
        seen = [obs.best_median is not None for obs in searcher.history]
        assert seen == sorted(seen)
        # best() agrees with the last trajectory point.
        if trajectory:
            assert searcher.best()[1] == trajectory[-1]
        else:
            assert searcher.best() is None


@settings(max_examples=20, deadline=None)
@given(studies(), st.sampled_from(STRATEGY_NAMES))
def test_full_budget_recovers_the_oracle_exactly(ds, name):
    cells = CellTable(ds)
    for test in ds.tests:
        result = replay_search(ds, cells, test, name, len(ds.configs))
        oracle = oracle_best(cells, test)
        assert oracle is not None  # baseline is always measured
        assert result.chosen == oracle[0]
        assert result.chosen_median == oracle[1]
        assert result.fraction == 1.0


@settings(max_examples=20, deadline=None)
@given(
    studies(),
    st.sampled_from(STRATEGY_NAMES),
    st.integers(1, 12),
    st.randoms(use_true_random=False),
)
def test_replay_deterministic_under_insertion_order_shuffle(
    ds, name, budget, rnd
):
    """Re-inserting the measurements in a shuffled order must not move
    a single replay field: pools sort canonically, ties break on
    ``(median, key)``, and all randomness is injected."""
    cells = list(ds.iter_measurements())
    rnd.shuffle(cells)
    shuffled = PerfDataset()
    for test, config, times in cells:
        shuffled.add(test, config, times)
    table, shuffled_table = CellTable(ds), CellTable(shuffled)
    for test in ds.tests:
        baseline = replay_search(
            ds, table, test, name, budget, seed=7, trial=2
        )
        again = replay_search(
            shuffled, shuffled_table, test, name, budget, seed=7, trial=2
        )
        assert again.to_dict() == baseline.to_dict()


@settings(max_examples=10, deadline=None)
@given(studies(), st.integers(1, 12), st.integers(0, 3))
def test_distinct_seeds_are_independent_replays(ds, budget, seed):
    """The same (test, budget) under different seeds reruns the whole
    propose/observe loop from scratch — same oracle, same accounting
    invariants, possibly different draws."""
    test = ds.tests[0]
    cells = CellTable(ds)
    a = replay_search(ds, cells, test, "random", budget, seed=seed)
    b = replay_search(ds, cells, test, "random", budget, seed=seed + 1)
    assert a.oracle == b.oracle
    assert a.spent <= budget + _EPS and b.spent <= budget + _EPS


def test_lattice_neighbours_are_single_flips():
    for config in enumerate_configs():
        mine = config.enabled_names()
        neighbours = lattice_neighbours(config)
        assert len({n.key() for n in neighbours}) == len(neighbours)
        for n in neighbours:
            assert len(mine ^ n.enabled_names()) == 1
            assert not ({"fg", "fg8"} <= n.enabled_names())


def test_protocol_misuse_raises():
    rng = random.Random(0)
    searcher = make_strategy("random", CONFIGS, budget=4, rng=rng)
    prop = searcher.propose()
    with pytest.raises(SearchError):
        searcher.propose()  # must observe first
    searcher.observe(prop, [1.0, 2.0, 3.0])
    with pytest.raises(SearchError):
        searcher.observe(prop, [1.0, 2.0, 3.0])  # nothing pending
    with pytest.raises(SearchError):
        make_strategy("random", CONFIGS, budget=0, rng=rng)
    with pytest.raises(SearchError):
        make_strategy("nope", CONFIGS, budget=4, rng=rng)
    with pytest.raises(SearchError):
        make_strategy("random", CONFIGS, budget=4, rng=42)  # not a Random
