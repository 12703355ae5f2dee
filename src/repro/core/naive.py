"""The naive portability analyses the paper shows to fall short (II-C).

Each treats one optimisation *combination* as a candidate global
policy, applied to every (application, input, chip) tuple:

* **do no harm** — keep only combinations that never cause a
  significant slowdown (degenerates to the baseline on this domain);
* **fewest slowdowns** — the combination with the fewest significant
  slowdowns (trivially weak speedups);
* **maximise geomean** — the combination with the best geometric-mean
  speedup (biased towards optimisation-sensitive chips, Table IV).

The ranking these produce is the paper's Table III; the per-chip bias
breakdown is Table IV.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..compiler.options import BASELINE, OptConfig
from ..study.dataset import PerfDataset, TestCase
from .cells import CellTable
from .significance import summary_outcome
from .stats.summary import geomean

__all__ = [
    "ConfigRanking",
    "rank_configurations",
    "do_no_harm",
    "fewest_slowdowns",
    "max_geomean",
    "per_chip_breakdown",
]


@dataclass(frozen=True)
class ConfigRanking:
    """One row of Table III: a configuration's global record."""

    config: OptConfig
    slowdowns: int
    speedups: int
    geomean_speedup: float
    max_speedup: float
    max_slowdown: float

    @property
    def label(self) -> str:
        return self.config.label()


def _outcomes(
    cells: CellTable, config: OptConfig, tests: Sequence[TestCase]
) -> ConfigRanking:
    """One configuration's record over ``tests``, read from ``cells``."""
    slow = fast = 0
    ratios: List[float] = []
    best = 1.0
    worst = 1.0
    base_key, key = BASELINE.key(), config.key()
    for test in tests:
        row = cells.row(test)
        base = row.get(base_key)
        cell = row.get(key)
        if base is None or cell is None:
            continue
        outcome = summary_outcome(base, cell)
        speedup = base.median / cell.median
        ratios.append(speedup)
        if outcome == "slowdown":
            slow += 1
            worst = max(worst, 1.0 / speedup)
        elif outcome == "speedup":
            fast += 1
            best = max(best, speedup)
    return ConfigRanking(
        config=config,
        slowdowns=slow,
        speedups=fast,
        geomean_speedup=geomean(ratios),
        max_speedup=best,
        max_slowdown=worst,
    )


def rank_configurations(
    dataset: PerfDataset,
    tests: Optional[Sequence[TestCase]] = None,
    configs: Optional[Sequence[OptConfig]] = None,
) -> List[ConfigRanking]:
    """Table III: all non-baseline combinations ranked by #slowdowns.

    Ties broken by #speedups (descending) then geomean (descending),
    so the ranking is deterministic.
    """
    tests = list(tests) if tests is not None else dataset.tests
    if configs is None:
        configs = [c for c in dataset.configs if not c.is_baseline]
    cells = CellTable(dataset)
    rankings = [_outcomes(cells, c, tests) for c in configs]
    rankings.sort(
        key=lambda r: (r.slowdowns, -r.speedups, -r.geomean_speedup, r.label)
    )
    return rankings


def do_no_harm(
    dataset: PerfDataset, tests: Optional[Sequence[TestCase]] = None
) -> OptConfig:
    """The do-no-harm pick: no slowdown anywhere, else the baseline."""
    for ranking in rank_configurations(dataset, tests):
        if ranking.slowdowns == 0:
            return ranking.config
        break  # ranked by slowdowns: if the first harms, all do
    return BASELINE


def fewest_slowdowns(
    dataset: PerfDataset, tests: Optional[Sequence[TestCase]] = None
) -> ConfigRanking:
    """The harm-the-fewest pick (Table III rank 0)."""
    return rank_configurations(dataset, tests)[0]


def max_geomean(
    dataset: PerfDataset, tests: Optional[Sequence[TestCase]] = None
) -> ConfigRanking:
    """The maximise-geomean pick (Table III rank 12 in the paper)."""
    rankings = rank_configurations(dataset, tests)
    return max(rankings, key=lambda r: r.geomean_speedup)


def per_chip_breakdown(
    dataset: PerfDataset, config: OptConfig
) -> Dict[str, ConfigRanking]:
    """Table IV: a global configuration's record split per chip.

    Exposes the magnitude-bias failure mode: a config with a high
    global geomean can systematically harm the chips that are least
    sensitive to optimisation.
    """
    cells = CellTable(dataset)
    return {
        chip: _outcomes(cells, config, dataset.tests_where(chip=chip))
        for chip in dataset.chips
    }
