"""Multi-version portfolios: the "few fit most" greedy set-cover.

The paper shows no single configuration is best everywhere; *A Few Fit
Most* (Hochgraf & Pai, PAPERS.md) asks the natural follow-up: how many
configurations K must a deployment ship so that, picking the best of
the K per test, it achieves at least X % of oracle performance?  This
module answers that question for every specialisation level of the
paper's Table V lattice.

**Coverage metric.**  For a partition's tests and a configuration set
``S``, coverage is the geometric mean over tests of::

    median(oracle) / median(best config of S measured for the test)

— the fraction of exhaustively-tuned performance the portfolio
retains, in ``(0, 1]``.  A test where *no* configuration of ``S`` was
measured contributes ``median(oracle) / median(worst measured
config)`` (the pessimal deploy), so adding a configuration can never
lower coverage and the curve is exactly monotone in K.  Tests with no
measurements at all are skipped — the same degraded-mode semantics as
:func:`repro.core.evaluation.strategy_slowdown_vs_oracle`.

**Greedy construction.**  The first configuration is the Algorithm 1
strategy's recommendation for the partition (so a K = 1 portfolio *is*
the paper's strategy, by construction); each subsequent step adds the
configuration with the largest marginal coverage gain, ties broken by
lexicographic configuration key.  The curve stops when coverage
reaches 1.0 (per-test best of ``S`` equals the oracle everywhere), no
candidate gains, or ``k_max`` is hit — so ``coverage_at(len(configs))``
is always 1.0, the oracle.  All candidate orderings are canonical
(sorted tests, sorted configuration keys), making the output
independent of dataset insertion order.

The result is a :class:`PortfolioSet`: one :class:`PortfolioCurve` per
lattice partition, each a list of :class:`PortfolioStep` entries
carrying the chosen configuration, the cumulative coverage and the
marginal gain — the provenance a K-vs-coverage figure plots and the
``portfolios`` table of the strategy-index artifact serializes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import AnalysisError
from ..study.dataset import Coverage, PerfDataset, TestCase
from ..util import geomean
from .algorithm1 import Analysis
from .cells import CellTable
from .strategies import STRATEGY_DIMS, Strategy, build_strategies

__all__ = [
    "DEFAULT_TARGET",
    "PORTFOLIO_LEVELS",
    "PortfolioCurve",
    "PortfolioSet",
    "PortfolioStep",
    "build_portfolios",
    "greedy_portfolio",
    "portfolio_coverage",
]

#: Default fraction-of-oracle target when a query names neither ``k``
#: nor ``target``: the portfolio is grown until per-cell best-of-K
#: retains at least this fraction of exhaustive tuning.
DEFAULT_TARGET = 0.95

#: The lattice levels portfolios are computed for — every Algorithm 1
#: specialisation (the ``baseline`` level has no choice to make).
PORTFOLIO_LEVELS: Tuple[str, ...] = tuple(STRATEGY_DIMS)


@dataclass(frozen=True)
class PortfolioStep:
    """One greedy step: the configuration added and what it bought."""

    config: str  # OptConfig.key()
    coverage: float  # cumulative fraction-of-oracle after this step
    gain: float  # marginal coverage gain over the previous step

    def to_dict(self) -> dict:
        return {
            "config": self.config,
            "coverage": self.coverage,
            "gain": self.gain,
        }


@dataclass
class PortfolioCurve:
    """The K-vs-coverage curve of one lattice partition."""

    level: str
    key: Tuple[str, ...]
    steps: List[PortfolioStep] = field(default_factory=list)
    #: Tests of the partition with at least one measurement.
    n_tests: int = 0

    def coverage_at(self, k: int) -> float:
        """Fraction of oracle retained by the first ``k`` configs.

        ``k`` beyond the curve returns the final coverage (the greedy
        stops once nothing more can be gained); ``k < 1`` raises.
        """
        if k < 1:
            raise AnalysisError(f"portfolio size k must be positive, got {k}")
        if not self.steps:
            return 1.0
        return self.steps[min(k, len(self.steps)) - 1].coverage

    def configs_for(self, k: int) -> List[str]:
        """The first ``min(k, len(curve))`` configuration keys."""
        if k < 1:
            raise AnalysisError(f"portfolio size k must be positive, got {k}")
        return [step.config for step in self.steps[:k]]

    def k_for(self, target: float) -> int:
        """The smallest K whose coverage meets ``target``.

        Every curve ends at coverage 1.0, so any ``target <= 1`` is
        reachable; targets above 1 are rejected upstream.
        """
        for i, step in enumerate(self.steps):
            if step.coverage >= target:
                return i + 1
        return max(1, len(self.steps))

    def to_dict(self) -> dict:
        return {
            "key": list(self.key),
            "n_tests": self.n_tests,
            "steps": [step.to_dict() for step in self.steps],
        }

    @classmethod
    def from_dict(cls, level: str, data: dict) -> "PortfolioCurve":
        try:
            return cls(
                level=level,
                key=tuple(data["key"]),
                steps=[
                    PortfolioStep(
                        config=raw["config"],
                        coverage=raw["coverage"],
                        gain=raw["gain"],
                    )
                    for raw in data["steps"]
                ],
                n_tests=data["n_tests"],
            )
        except (KeyError, TypeError) as exc:
            raise AnalysisError(
                f"malformed portfolio curve at level {level!r}: {exc!r}"
            ) from exc


class _MedianMatrix:
    """A partition's tests × candidate configurations median matrix.

    Rows are the partition's tests with at least one measurement, in
    sorted order; columns are every configuration measured for any of
    them, in sorted key order.  A hole is ``inf``.  Each row's oracle
    (lowest median) and pessimal deploy (highest median) are computed
    once.
    """

    def __init__(self, cells: CellTable, tests: Sequence[TestCase]) -> None:
        rows = [cells.medians(test) for test in sorted(tests)]
        rows = [row for row in rows if row]
        self.candidates: List[str] = sorted({k for row in rows for k in row})
        self._column = {key: j for j, key in enumerate(self.candidates)}
        self.values = np.full((len(rows), len(self.candidates)), np.inf)
        for i, row in enumerate(rows):
            for key, med in row.items():
                self.values[i, self._column[key]] = med
        self.oracle = np.array([min(row.values()) for row in rows])
        self.worst = np.array([max(row.values()) for row in rows])

    @property
    def n_tests(self) -> int:
        return len(self.oracle)

    def best_of(self, configs: Sequence[str]) -> np.ndarray:
        """Per test, the lowest median of ``configs`` (``inf`` if none
        of them was measured for the test)."""
        best = np.full(self.n_tests, np.inf)
        for key in configs:
            if key in self._column:
                np.minimum(best, self.values[:, self._column[key]], out=best)
        return best

    def coverage(self, best: np.ndarray) -> float:
        """Geomean fraction-of-oracle of a per-test best vector; tests
        with no deployed configuration count their pessimal deploy."""
        deployed = np.where(np.isinf(best), self.worst, best)
        return geomean((self.oracle / deployed).tolist())


def portfolio_coverage(
    dataset: PerfDataset,
    tests: Sequence[TestCase],
    configs: Sequence[str],
) -> float:
    """Fraction of oracle a configuration set retains over ``tests``.

    Geomean over tests of ``median(oracle) / median(best of configs)``;
    a test none of ``configs`` was measured for counts its worst
    measured configuration (the pessimal deploy), and tests with no
    measurements at all are skipped.
    """
    matrix = _MedianMatrix(CellTable(dataset), tests)
    return matrix.coverage(matrix.best_of(configs))


def greedy_portfolio(
    dataset: PerfDataset,
    tests: Sequence[TestCase],
    *,
    level: str,
    key: Tuple[str, ...],
    seed: Optional[str] = None,
    k_max: Optional[int] = None,
) -> PortfolioCurve:
    """The greedy set-cover curve for one partition.

    ``seed`` (the Algorithm 1 strategy's configuration for this
    partition) is taken first so K = 1 reproduces the paper's strategy;
    subsequent steps add the configuration with the largest marginal
    coverage gain, ties broken by lexicographic configuration key.
    Stops at coverage 1.0, at ``k_max``, or when no candidate gains.
    """
    return _greedy(
        _MedianMatrix(CellTable(dataset), tests),
        level=level,
        key=key,
        seed=seed,
        k_max=k_max,
    )


def _greedy(
    matrix: _MedianMatrix,
    *,
    level: str,
    key: Tuple[str, ...],
    seed: Optional[str],
    k_max: Optional[int],
) -> PortfolioCurve:
    """:func:`greedy_portfolio` over a prepared median matrix.

    A running per-test best vector (``inf`` before anything is chosen)
    stands for the chosen set: a candidate's coverage is that of
    ``min(best, its column)``.  A candidate that lowers no test's best
    (every chosen one among them) cannot gain, so it is not re-scored.
    """
    curve = PortfolioCurve(level=level, key=key, n_tests=matrix.n_tests)
    if not matrix.n_tests:
        return curve
    chosen: List[str] = []
    best = np.full(matrix.n_tests, np.inf)
    coverage = 0.0
    if seed is not None:
        chosen.append(seed)
        best = matrix.best_of(chosen)
        coverage = matrix.coverage(best)
        curve.steps.append(
            PortfolioStep(config=seed, coverage=coverage, gain=coverage)
        )
    while coverage < 1.0 and (k_max is None or len(chosen) < k_max):
        best_j: Optional[int] = None
        best_cov = coverage
        for j, column in enumerate(matrix.values.T):
            if not (column < best).any():
                continue  # chosen already, or no test would gain
            cov = matrix.coverage(np.minimum(best, column))
            if cov > best_cov:
                best_j, best_cov = j, cov
        if best_j is None:
            break
        chosen.append(matrix.candidates[best_j])
        np.minimum(best, matrix.values[:, best_j], out=best)
        curve.steps.append(
            PortfolioStep(
                config=chosen[-1],
                coverage=best_cov,
                gain=best_cov - coverage,
            )
        )
        coverage = best_cov
    return curve


class PortfolioSet:
    """Every lattice partition's K-vs-coverage curve, queryable."""

    def __init__(
        self,
        levels: Dict[str, Dict[Tuple[str, ...], PortfolioCurve]],
        coverage: Optional[Coverage] = None,
    ) -> None:
        self.levels = levels
        #: Cell coverage of the dataset the portfolios were derived
        #: from (for footnoting degraded derivations).
        self.coverage = coverage

    @property
    def n_curves(self) -> int:
        return sum(len(cells) for cells in self.levels.values())

    def curve(
        self, level: str, key: Sequence[str]
    ) -> Optional[PortfolioCurve]:
        return self.levels.get(level, {}).get(tuple(key))

    def to_dict(self) -> dict:
        return {
            level: [
                curve.to_dict() for _, curve in sorted(cells.items())
            ]
            for level, cells in self.levels.items()
        }

    @classmethod
    def from_dict(
        cls, data: dict, coverage: Optional[Coverage] = None
    ) -> "PortfolioSet":
        if not isinstance(data, dict):
            raise AnalysisError(
                "malformed portfolio payload: expected a mapping of "
                "levels to curve lists"
            )
        levels: Dict[str, Dict[Tuple[str, ...], PortfolioCurve]] = {}
        for level, curves in data.items():
            if level not in PORTFOLIO_LEVELS:
                raise AnalysisError(
                    f"unknown portfolio level {level!r}; expected one "
                    f"of {PORTFOLIO_LEVELS}"
                )
            cells: Dict[Tuple[str, ...], PortfolioCurve] = {}
            for raw in curves:
                curve = PortfolioCurve.from_dict(level, raw)
                cells[curve.key] = curve
            levels[level] = cells
        return cls(levels, coverage=coverage)


def build_portfolios(
    dataset: PerfDataset,
    *,
    analysis: Optional[Analysis] = None,
    strategies: Optional[Dict[str, Strategy]] = None,
    k_max: Optional[int] = None,
    levels: Optional[Sequence[str]] = None,
) -> PortfolioSet:
    """Greedy portfolios for every partition of every lattice level.

    The dataset is expected to be audited already (quarantined cells
    removed — :func:`repro.study.audit.audit_dataset`); holes degrade
    coverage, not correctness.  ``analysis`` and ``strategies`` allow
    reuse of an existing Algorithm 1 run.
    """
    if analysis is None:
        analysis = Analysis(dataset)
    if strategies is None:
        strategies = build_strategies(dataset, analysis)
    wanted = tuple(levels) if levels is not None else PORTFOLIO_LEVELS
    unknown = set(wanted) - set(PORTFOLIO_LEVELS)
    if unknown:
        raise AnalysisError(
            f"unknown portfolio level(s) {sorted(unknown)}; expected a "
            f"subset of {PORTFOLIO_LEVELS}"
        )
    out: Dict[str, Dict[Tuple[str, ...], PortfolioCurve]] = {}
    for level in wanted:
        dims = STRATEGY_DIMS[level]
        partitions = analysis.partitions(dims)
        cells: Dict[Tuple[str, ...], PortfolioCurve] = {}
        for key in sorted(partitions):
            seed_config = strategies[level].assignment.get(key)
            cells[key] = _greedy(
                _MedianMatrix(analysis.cells, partitions[key]),
                level=level,
                key=key,
                seed=seed_config.key() if seed_config is not None else None,
                k_max=k_max,
            )
        out[level] = cells
    return PortfolioSet(out, coverage=analysis.coverage)


def main(argv=None) -> int:
    """CLI: ``python -m repro portfolio DATASET``."""
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

    parser = argparse.ArgumentParser(
        prog="repro-portfolio",
        parents=[metrics_parent()],
        description=(
            "Compute greedy K-vs-coverage configuration portfolios for "
            "every lattice level of a study dataset."
        ),
    )
    parser.add_argument(
        "dataset",
        help="input PerfDataset: JSON (.gz ok) or binary columnar (.v3)",
    )
    parser.add_argument(
        "--target",
        type=float,
        default=DEFAULT_TARGET,
        metavar="FRACTION",
        help=(
            "fraction-of-oracle target for the K-to-reach column "
            f"(default {DEFAULT_TARGET})"
        ),
    )
    parser.add_argument(
        "--k-max",
        type=int,
        default=None,
        metavar="N",
        help="cap portfolio size (default: grow until 100%% of oracle)",
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
    parser.add_argument(
        "--output",
        metavar="PATH",
        default=None,
        help="also write the portfolio curves as JSON to PATH",
    )
    args = parser.parse_args(argv)
    if not 0.0 < args.target <= 1.0:
        print("[portfolio] --target must be in (0, 1]", file=sys.stderr)
        return 1
    if args.k_max is not None and args.k_max < 1:
        print("[portfolio] --k-max must be positive", file=sys.stderr)
        return 1

    try:
        dataset = PerfDataset.load(args.dataset)
    except DatasetError as exc:
        print(f"[portfolio] {exc}", file=sys.stderr)
        return 1
    audit = audit_dataset(dataset)
    try:
        require_coverage(audit.coverage, args.min_coverage)
    except InsufficientCoverageError as exc:
        print(f"[portfolio] {exc}", file=sys.stderr)
        return 1

    from ..experiments import portfolio_curve as experiment

    rec = Recorder() if args.metrics else NULL_RECORDER
    with recording(rec), rec.span("portfolio.build"):
        portfolios = build_portfolios(audit.dataset, k_max=args.k_max)
        if args.output:
            with open(args.output, "w") as f:
                json.dump(portfolios.to_dict(), f, sort_keys=True)
            print(f"[portfolio] wrote {args.output}", file=sys.stderr)
        output = experiment.run(
            audit.dataset, portfolios=portfolios, target=args.target
        )
    print(output)
    if args.metrics:
        save_run_report(rec, args.metrics, meta={"dataset": args.dataset})
        print(
            f"[portfolio] wrote run report to {args.metrics}",
            file=sys.stderr,
        )
    return 0
