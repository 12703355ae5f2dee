"""Differential and golden tests for the search-evaluation harness.

The harness (:mod:`repro.core.search_eval`) scores every replay
against the dataset's exhaustive oracle.  These tests keep it honest
two ways:

* **differential** — on Hypothesis-generated random studies, every
  fraction the harness reports is recomputed from scratch with the
  stdlib only (``statistics.median`` + ``math``, no shared helpers),
  and the oracle is cross-checked against the cell table's own
  ``oracle``;
* **golden** — the ``budget`` experiment's table on the committed
  miniature dataset is pinned byte-for-byte
  (``tests/goldens/budget_curve.txt``; re-bless with
  ``--update-goldens``), and the acceptance criterion rides along:
  every structured strategy meets or beats random at equal budget,
  and the full budget recovers the oracle exactly on all 18 tests.
"""

from __future__ import annotations

import math
import os
import statistics

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler import enumerate_configs
from repro.core import (
    SEARCH_STRATEGIES,
    budget_fractions,
    oracle_best,
    partition_fractions,
    replay_search,
)
from repro.core.cells import CellTable
from repro.core.search_eval import DEFAULT_BUDGETS, _scoreable_tests
from repro.errors import SearchError
from repro.experiments import budget_curve
from repro.obs import Recorder, recording
from repro.study.dataset import PerfDataset, TestCase

GOLDEN_DATASET = "mini-dataset.json.gz"
GOLDEN_TABLE = "budget_curve.txt"

CHIPS = ("chipA", "chipB")
APPS = ("appX", "appY")
GRAPHS = ("g1", "g2")
CONFIGS = enumerate_configs()[:8]

STRATEGY_NAMES = sorted(SEARCH_STRATEGIES)


@pytest.fixture(scope="module")
def golden_dataset(goldens_dir) -> PerfDataset:
    return PerfDataset.load(os.path.join(goldens_dir, GOLDEN_DATASET))


@st.composite
def studies(draw) -> PerfDataset:
    """A random small study with holes; baseline always measured."""
    n_chips = draw(st.integers(1, 2))
    n_apps = draw(st.integers(1, 2))
    n_configs = draw(st.integers(2, len(CONFIGS)))
    ds = PerfDataset()
    for chip in CHIPS[:n_chips]:
        for app in APPS[:n_apps]:
            for graph in GRAPHS[:1]:
                test = TestCase(app=app, graph=graph, chip=chip)
                for config in CONFIGS[:n_configs]:
                    if not config.is_baseline and draw(st.booleans()):
                        continue
                    ms = draw(st.integers(1, 40))
                    ds.add(test, config, [float(ms)] * 3)
    return ds


def _reference_fraction(ds: PerfDataset, test, chosen) -> float:
    """Stdlib-only recomputation of a replay's fraction of oracle."""
    medians = {}
    for config in ds.configs:
        times = ds.times_or_none(test, config)
        if times is not None:
            medians[config.key()] = statistics.median(times)
    oracle = min(medians.values())
    deployed = medians.get(chosen, max(medians.values()))
    return oracle / deployed


@settings(max_examples=20, deadline=None)
@given(studies(), st.sampled_from(STRATEGY_NAMES), st.integers(1, 12))
def test_fraction_matches_stdlib_recomputation(ds, name, budget):
    cells = CellTable(ds)
    for test in ds.tests:
        result = replay_search(ds, cells, test, name, budget)
        assert result.fraction == pytest.approx(
            _reference_fraction(ds, test, result.chosen), rel=1e-12
        )
        assert 0.0 < result.fraction <= 1.0


@settings(max_examples=20, deadline=None)
@given(studies())
def test_oracle_matches_the_datasets_own_best_config(ds):
    """``oracle_best`` agrees with ``CellTable.oracle`` on the median
    (the key may differ only on exact ties, where the search oracle
    canonically prefers the lexicographically smaller key)."""
    configs = {c.key(): c for c in ds.configs}
    cells = CellTable(ds)
    for test in ds.tests:
        oracle = oracle_best(cells, test)
        best_cfg = configs[cells.oracle(test)]
        assert oracle[1] == pytest.approx(
            ds.median(test, best_cfg), rel=1e-12
        )
        medians = {
            c.key(): statistics.median(ds.times_or_none(test, c))
            for c in ds.configs
            if ds.times_or_none(test, c) is not None
        }
        ties = sorted(k for k, m in medians.items() if m == oracle[1])
        assert oracle[0] == ties[0]


@settings(max_examples=10, deadline=None)
@given(studies(), st.integers(1, 8))
def test_budget_fractions_is_the_geomean_of_replays(ds, budget):
    """The aggregate table cell is exactly the geomean of the per-test
    replay fractions — recomputed here via ``math`` logs."""
    out = budget_fractions(
        ds, strategies=["random"], budgets=(budget,), trials=2
    )
    logs = []
    cells = CellTable(ds)
    for test in _scoreable_tests(ds, cells):
        for trial in range(2):
            r = replay_search(ds, cells, test, "random", budget, trial=trial)
            logs.append(math.log(r.fraction))
    expected = math.exp(sum(logs) / len(logs))
    assert out["random"][budget] == pytest.approx(expected, rel=1e-12)


def test_counters_account_for_every_probe(golden_dataset):
    rec = Recorder()
    test = golden_dataset.tests[0]
    with recording(rec):
        result = replay_search(
            golden_dataset, CellTable(golden_dataset), test, "random", 8
        )
    assert rec.counter_value("search.replays") == 1
    assert rec.counter_value("search.evaluations") == result.evaluations
    assert rec.counter_value("search.holes") == 0


def test_partition_fractions_covers_every_chip(golden_dataset):
    per_chip = partition_fractions(
        golden_dataset, "random", budgets=(8,), dims=("chip",), trials=1
    )
    assert sorted(k for (k,) in per_chip) == sorted(golden_dataset.chips)
    for curve in per_chip.values():
        assert 0.0 < curve[8] <= 1.0
    with pytest.raises(SearchError):
        partition_fractions(golden_dataset, "random", dims=("nope",))


def test_curves_refuse_to_score_zero_replays(golden_dataset):
    """Zero trials, or a dataset with no measured test, replays
    nothing; neither curve may report that as a perfect fraction."""
    with pytest.raises(SearchError):
        partition_fractions(golden_dataset, "random", budgets=(8,), trials=0)
    with pytest.raises(SearchError):
        budget_fractions(
            golden_dataset, strategies=["random"], budgets=(8,), trials=0
        )
    for curves in (
        lambda ds: partition_fractions(ds, "random", budgets=(8,)),
        lambda ds: budget_fractions(ds, strategies=["random"], budgets=(8,)),
    ):
        with pytest.raises(SearchError):
            curves(PerfDataset())


class TestCLI:
    @pytest.fixture(scope="class")
    def dataset_path(self, goldens_dir) -> str:
        return os.path.join(goldens_dir, GOLDEN_DATASET)

    def test_renders_curves_and_partitions(self, dataset_path, capsys):
        from repro.core.search_eval import main as search_main

        code = search_main(
            [dataset_path, "--budget", "8", "--budget", "16",
             "--trials", "1", "--by", "chip"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Budgeted autotuning" in out
        assert "B=8" in out and "B=16" in out
        for name in STRATEGY_NAMES:
            assert name in out
        assert "partition — strategy: random" in out

    def test_single_strategy_with_metrics(
        self, dataset_path, tmp_path, capsys
    ):
        from repro.core.search_eval import main as search_main
        from repro.obs.report import RunReport

        metrics = str(tmp_path / "report.json")
        code = search_main(
            [dataset_path, "--strategy", "random", "--budget", "8",
             "--trials", "1", "--by", "app", "--metrics", metrics]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "halving" not in out
        report = RunReport.load(metrics)
        counters = report.counters
        assert counters["search.replays"] > 0
        assert counters["search.evaluations"] > 0

    def test_rejects_bad_arguments(self, dataset_path, capsys):
        from repro.core.search_eval import main as search_main

        assert search_main([dataset_path, "--budget", "0"]) == 1
        assert "--budget" in capsys.readouterr().err
        assert search_main([dataset_path, "--trials", "0"]) == 1
        assert "--trials" in capsys.readouterr().err
        missing = os.path.join(os.path.dirname(dataset_path), "nope.json")
        assert search_main([missing]) == 1

    def test_dispatches_from_the_top_level(self, dataset_path, capsys):
        from repro.__main__ import main as repro_main

        code = repro_main(
            ["search", dataset_path, "--strategy", "random",
             "--budget", "8", "--trials", "1"]
        )
        assert code == 0
        assert "Budgeted autotuning" in capsys.readouterr().out


class TestGoldenBudgetCurve:
    def test_budget_table_matches_golden(
        self, golden_dataset, goldens_dir, update_goldens
    ):
        rendered = budget_curve.run(golden_dataset)
        assert rendered.strip()
        path = os.path.join(goldens_dir, GOLDEN_TABLE)
        if update_goldens:
            with open(path, "w", encoding="utf-8") as f:
                f.write(rendered + "\n")
        if not os.path.exists(path):
            pytest.fail(
                f"missing golden file {path}; run with --update-goldens "
                f"to create it"
            )
        with open(path, encoding="utf-8") as f:
            expected = f.read()
        assert rendered + "\n" == expected, (
            f"{GOLDEN_TABLE} drifted from its golden file; if the "
            f"change is intentional, re-bless with --update-goldens "
            f"and commit"
        )

    def test_structured_strategies_dominate_random(self, golden_dataset):
        """The PR's acceptance criterion: at every budget, each
        structured strategy's fraction-of-oracle meets or beats the
        random baseline's on the committed dataset."""
        results = budget_fractions(golden_dataset)
        for budget in DEFAULT_BUDGETS:
            baseline = results["random"][budget]
            for name in STRATEGY_NAMES:
                assert results[name][budget] >= baseline, (
                    f"{name} lost to random at B={budget}: "
                    f"{results[name][budget]:.4f} < {baseline:.4f}"
                )

    def test_full_budget_equals_exhaustive_answer(self, golden_dataset):
        """B=96 is the exhaustive sweep: every strategy returns the
        Algorithm 1 oracle byte-for-byte on every test."""
        cells = CellTable(golden_dataset)
        for test in golden_dataset.tests:
            oracle = oracle_best(cells, test)
            for name in STRATEGY_NAMES:
                result = replay_search(
                    golden_dataset, cells, test, name, 96
                )
                assert result.chosen == oracle[0]
                assert result.chosen_median == oracle[1]
                assert result.fraction == 1.0
