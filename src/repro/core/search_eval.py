"""Replay budgeted searches against a measured dataset — the oracle.

The evaluation harness for :mod:`repro.core.search`.  Nothing is
re-simulated: a search asking for configuration C on test T is answered
straight from the :class:`~repro.study.dataset.PerfDataset`, so the
dataset's exhaustive sweep *is* the oracle a search is scored against.
Each sweep builds one :class:`~repro.core.cells.CellTable`, and every
replay reads its medians, oracle and full fidelity from it; the only
raw timings a replay touches are the ones its search observes.

**Fraction of oracle.**  A replay's recommendation is scored on the
*full-fidelity* dataset median — even when the strategy only screened
the configuration at reduced fidelity — so screening honesty is never
conflated with evaluation honesty::

    fraction = median(oracle config) / median(recommended config)

in ``(0, 1]``.  The oracle is the measured configuration with the
lowest median, ties broken by lexicographic configuration key (the
same ``(median, key)`` order the strategies use, so ``budget >= pool``
recovers the oracle *exactly*, key and all).  A replay that observed
nothing (every probe hit a hole) scores the pessimal deploy —
``median(oracle) / median(worst measured config)`` — mirroring
:mod:`repro.core.portfolio`; tests with no measurements at all are
skipped.

**Determinism.**  Each replay derives its own ``random.Random`` from
:func:`repro.util.stable_hash` of the strategy name, the test
coordinates, the budget and the (seed, trial) pair — no RNG state is
ever shared between replays, so sharded or shuffled runs can never
correlate draws (see ``docs/autotuning.md``).

Counters (on the current :mod:`repro.obs` recorder): ``search.replays``
(one per replay), ``search.evaluations`` (observations that returned
data) and ``search.holes`` (probes that hit missing cells).

Also home of the ``repro search`` CLI (:func:`main`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import SearchError
from ..obs import count
from ..study.dataset import PerfDataset, TestCase
from ..util import geomean, stable_hash
from .cells import CellTable
from .search import SEARCH_STRATEGIES, make_strategy

__all__ = [
    "DEFAULT_BUDGETS",
    "ReplayResult",
    "budget_fractions",
    "main",
    "oracle_best",
    "partition_fractions",
    "replay_search",
]

#: Budgets the ``budget`` experiment sweeps: full-fidelity evaluation
#: counts out of the 96-configuration lattice (96 = the exhaustive
#: sweep, i.e. Algorithm 1's input).  The grid starts at 8 — one more
#: than the seven option dimensions; smaller budgets cannot even span
#: the lattice axes and measure draw luck, not search quality.
DEFAULT_BUDGETS: Tuple[int, ...] = (8, 16, 32, 64, 96)


@dataclass(frozen=True)
class ReplayResult:
    """One search replayed over one test, scored against the oracle."""

    test: TestCase
    strategy: str
    budget: int
    trial: int
    chosen: Optional[str]  # recommended config key (None: saw nothing)
    chosen_median: Optional[float]  # full dataset median of `chosen`
    oracle: Optional[str]  # oracle config key (None: unmeasured test)
    oracle_median: Optional[float]
    fraction: Optional[float]  # fraction of oracle, None if no oracle
    spent: float  # budget units actually charged
    evaluations: int  # observations that returned data

    def to_dict(self) -> dict:
        return {
            "test": {
                "app": self.test.app,
                "input": self.test.graph,
                "chip": self.test.chip,
            },
            "strategy": self.strategy,
            "budget": self.budget,
            "trial": self.trial,
            "chosen": self.chosen,
            "chosen_median": self.chosen_median,
            "oracle": self.oracle,
            "oracle_median": self.oracle_median,
            "fraction": self.fraction,
            "spent": self.spent,
            "evaluations": self.evaluations,
        }


def oracle_best(
    cells: CellTable, test: TestCase
) -> Optional[Tuple[str, float]]:
    """The exhaustive-sweep answer: ``(config key, median)`` or ``None``.

    The measured configuration with the lowest full-fidelity median,
    ties broken by lexicographic key — the same ``(median, key)`` order
    the search strategies track, so this is the exact fixed point a
    budget-of-the-whole-pool search converges to.  ``None`` for a test
    with no measurements at all.
    """
    medians = cells.medians(test)
    if not medians:
        return None
    med, key = min((m, k) for k, m in medians.items())
    return key, med


def replay_search(
    dataset: PerfDataset,
    cells: CellTable,
    test: TestCase,
    strategy: str,
    budget: int,
    *,
    seed: int = 0,
    trial: int = 0,
) -> ReplayResult:
    """Replay one search over one test, answering from the dataset.

    The candidate pool is the dataset's configuration axis; ``cells``
    (its :class:`~repro.core.cells.CellTable`) gives the medians and
    oracle the replay is scored on and the full fidelity, the test's
    largest repetition count (reduced-fidelity proposals see a prefix
    of the recorded repetitions).  Holes — configurations never
    measured for this test — cost nothing and teach the search nothing,
    exactly like a failed measurement in a live study.
    """
    medians = cells.medians(test)
    repetitions = max((cell.n for cell in cells.row(test).values()), default=1)
    rng = random.Random(
        stable_hash(
            "search", strategy, test.app, test.graph, test.chip,
            budget, seed, trial,
        )
    )
    searcher = make_strategy(
        strategy,
        dataset.configs,
        budget=budget,
        rng=rng,
        repetitions=repetitions,
    )
    holes = 0
    while (prop := searcher.propose()) is not None:
        times = dataset.times_or_none(test, prop.config)
        if times is not None and prop.repetitions is not None:
            times = times[: prop.repetitions]
        if times is None:
            holes += 1
        searcher.observe(prop, times)
    count("search.replays")
    count("search.evaluations", searcher.evaluations)
    count("search.holes", holes)

    best = searcher.best()
    oracle = oracle_best(cells, test)
    chosen = best[0] if best is not None else None
    chosen_median = medians.get(chosen) if chosen is not None else None
    fraction: Optional[float] = None
    if oracle is not None:
        # Score on the full dataset median; a search that saw nothing
        # (all holes) scores the pessimal deploy, like core.portfolio.
        denom = (
            chosen_median
            if chosen_median is not None
            else max(medians.values())
        )
        fraction = oracle[1] / denom
    return ReplayResult(
        test=test,
        strategy=strategy,
        budget=budget,
        trial=trial,
        chosen=chosen,
        chosen_median=chosen_median,
        oracle=oracle[0] if oracle is not None else None,
        oracle_median=oracle[1] if oracle is not None else None,
        fraction=fraction,
        spent=searcher.spent,
        evaluations=searcher.evaluations,
    )


def _scoreable_tests(dataset: PerfDataset, cells: CellTable) -> List[TestCase]:
    """Tests with at least one measurement, in canonical order."""
    return [t for t in sorted(dataset.tests) if cells.row(t)]


#: Partition dim -> TestCase attribute.
_AXES = {"chip": "chip", "app": "app", "input": "graph"}


def _curves(
    dataset: PerfDataset,
    cells: CellTable,
    strategy: str,
    budgets: Sequence[int],
    dims: Sequence[str],
    trials: int,
    seed: int,
) -> Dict[Tuple[str, ...], Dict[int, float]]:
    """Partition key -> budget -> geomean fraction over the partition's
    tests and ``trials`` replays: the one replay loop of both curves."""
    unknown = [d for d in dims if d not in _AXES]
    if unknown:
        raise SearchError(
            f"unknown partition dim(s) {unknown}; expected a subset of "
            f"{sorted(_AXES)}"
        )
    if trials < 1:
        raise SearchError(f"trials must be positive, got {trials}")
    groups: Dict[Tuple[str, ...], List[TestCase]] = {}
    for test in _scoreable_tests(dataset, cells):
        key = tuple(getattr(test, _AXES[d]) for d in dims)
        groups.setdefault(key, []).append(test)
    if not groups:
        raise SearchError("no measured test to replay")
    # Every test here has an oracle, so every replay has a fraction.
    return {
        key: {
            budget: geomean(
                [
                    replay_search(
                        dataset, cells, test, strategy, budget,
                        seed=seed, trial=trial,
                    ).fraction
                    for test in groups[key]
                    for trial in range(trials)
                ]
            )
            for budget in budgets
        }
        for key in sorted(groups)
    }


def budget_fractions(
    dataset: PerfDataset,
    *,
    strategies: Optional[Sequence[str]] = None,
    budgets: Sequence[int] = DEFAULT_BUDGETS,
    trials: int = 8,
    seed: int = 0,
) -> Dict[str, Dict[int, float]]:
    """Aggregate quality-vs-budget curves: strategy -> budget -> fraction.

    The partition curve with no dims: the fraction at each (strategy,
    budget) is the geometric mean over every scoreable test and every
    trial of the replay's fraction of oracle.  Budgets larger than the
    configuration pool are clamped (they buy nothing extra); ``trials``
    re-runs each replay under distinct derived seeds to average out
    draw luck.
    """
    names = list(strategies) if strategies is not None else sorted(
        SEARCH_STRATEGIES
    )
    cells = CellTable(dataset)
    return {
        name: _curves(dataset, cells, name, budgets, (), trials, seed)[()]
        for name in names
    }


def partition_fractions(
    dataset: PerfDataset,
    strategy: str,
    *,
    budgets: Sequence[int] = DEFAULT_BUDGETS,
    dims: Sequence[str] = ("chip",),
    trials: int = 8,
    seed: int = 0,
) -> Dict[Tuple[str, ...], Dict[int, float]]:
    """Per-lattice-partition curves: partition key -> budget -> fraction.

    ``dims`` picks the partitioning axes from ``("chip", "app",
    "input")`` — the same lattice the Table V strategies specialise on.
    Each partition aggregates (geomean) the fractions of its tests
    across ``trials`` replays.
    """
    return _curves(
        dataset, CellTable(dataset), strategy, budgets, dims, trials, seed
    )


def main(argv=None) -> int:
    """CLI: ``python -m repro search DATASET``."""
    import argparse
    import sys

    from ..cli import metrics_parent, save_run_report
    from ..errors import DatasetError, InsufficientCoverageError
    from ..obs import NULL_RECORDER, Recorder, recording
    from ..study.audit import (
        DEFAULT_COVERAGE_FLOOR,
        audit_dataset,
        require_coverage,
    )
    from .reporting import render_table

    parser = argparse.ArgumentParser(
        prog="repro-search",
        parents=[metrics_parent()],
        description=(
            "Replay budgeted search strategies against a study dataset "
            "(the exhaustive oracle) and report fraction-of-oracle at "
            "each budget."
        ),
    )
    parser.add_argument(
        "dataset",
        help="input PerfDataset: JSON (.gz ok) or binary columnar (.v3)",
    )
    parser.add_argument(
        "--strategy",
        choices=sorted(SEARCH_STRATEGIES) + ["all"],
        default="all",
        help="search strategy to replay (default: all)",
    )
    parser.add_argument(
        "--budget",
        type=int,
        action="append",
        default=None,
        metavar="N",
        help=(
            "evaluation budget(s), repeatable "
            f"(default {' '.join(str(b) for b in DEFAULT_BUDGETS)})"
        ),
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="base replay seed (default 0)"
    )
    parser.add_argument(
        "--trials",
        type=int,
        default=8,
        metavar="N",
        help="replays per (test, budget) to average draw luck (default 8)",
    )
    parser.add_argument(
        "--by",
        choices=["chip", "app", "input"],
        action="append",
        default=None,
        help=(
            "also print per-partition curves along these dims "
            "(repeatable; default: chip)"
        ),
    )
    parser.add_argument(
        "--min-coverage",
        type=float,
        default=DEFAULT_COVERAGE_FLOOR,
        metavar="FRACTION",
        help=(
            "refuse to analyse below this audited cell-coverage "
            f"fraction (default {DEFAULT_COVERAGE_FLOOR})"
        ),
    )
    args = parser.parse_args(argv)
    if args.budget is not None and any(b < 1 for b in args.budget):
        print("[search] --budget must be positive", file=sys.stderr)
        return 1
    if args.trials < 1:
        print("[search] --trials must be positive", file=sys.stderr)
        return 1

    try:
        dataset = PerfDataset.load(args.dataset)
    except DatasetError as exc:
        print(f"[search] {exc}", file=sys.stderr)
        return 1
    audit = audit_dataset(dataset)
    try:
        require_coverage(audit.coverage, args.min_coverage)
    except InsufficientCoverageError as exc:
        print(f"[search] {exc}", file=sys.stderr)
        return 1

    budgets = tuple(args.budget) if args.budget else DEFAULT_BUDGETS
    names = (
        sorted(SEARCH_STRATEGIES)
        if args.strategy == "all"
        else [args.strategy]
    )
    dims = tuple(args.by) if args.by else ("chip",)

    from ..experiments import budget_curve as experiment

    rec = Recorder() if args.metrics else NULL_RECORDER
    with recording(rec), rec.span("search.replay"):
        sections = [
            experiment.run(
                audit.dataset,
                strategies=names,
                budgets=budgets,
                trials=args.trials,
                seed=args.seed,
            )
        ]
        for name in names:
            per_part = partition_fractions(
                audit.dataset,
                name,
                budgets=budgets,
                dims=dims,
                trials=args.trials,
                seed=args.seed,
            )
            rows = [
                ["/".join(key)]
                + [f"{curve[b]:.1%}" for b in budgets]
                for key, curve in per_part.items()
            ]
            sections.append(
                render_table(
                    ["/".join(dims)] + [f"B={b}" for b in budgets],
                    rows,
                    title=(
                        f"Fraction of oracle by {'/'.join(dims)} "
                        f"partition — strategy: {name}"
                    ),
                )
            )
    print("\n\n".join(sections))
    if args.metrics:
        save_run_report(
            rec,
            args.metrics,
            meta={"dataset": args.dataset, "seed": args.seed},
        )
        print(f"[search] wrote run report to {args.metrics}", file=sys.stderr)
    return 0
