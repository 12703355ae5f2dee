"""Cross-chip portability analyses (paper Section II, Figs 1-2, Table II).

These consume only oracle queries over one per-call cell table:

* **cross-chip heatmap** (Fig 1) — how much a chip slows down when run
  with optimisation settings that are optimal for another chip;
* **performance envelope** (Table II) — each chip's most extreme
  speedup and slowdown over the baseline, with the responsible
  application and input;
* **top-speedup optimisations** (Fig 2) — which optimisations appear
  in each chip's per-test oracle configurations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..compiler.options import BASELINE, OPT_NAMES, OptConfig
from ..errors import DatasetError
from ..study.dataset import PerfDataset, TestCase
from .cells import CellTable
from .significance import summary_outcome
from .stats.summary import geomean

__all__ = [
    "cross_chip_heatmap",
    "EnvelopeEntry",
    "performance_envelope",
    "top_speedup_opts",
    "max_geomean_speedup",
]


def cross_chip_heatmap(
    dataset: PerfDataset,
) -> Tuple[List[str], Dict[Tuple[str, str], float]]:
    """Fig 1: geomean slowdown of chip-B-optimal settings on chip A.

    Returns the chip order and a map (run_chip, opt_chip) → geomean
    slowdown over all (application, input) pairs; the diagonal is 1.0
    by construction.
    """
    chips = dataset.chips
    pairs = sorted({(t.app, t.graph) for t in dataset.tests})
    cells = CellTable(dataset)
    # Oracle configuration key of every (app, input, chip).
    best: Dict[Tuple[str, str, str], str] = {}
    for test in dataset.tests:
        key = cells.oracle(test)
        if key is None:
            raise DatasetError(f"no measurements at all for {test}")
        best[(test.app, test.graph, test.chip)] = key

    heat: Dict[Tuple[str, str], float] = {}
    for run_chip in chips:
        for opt_chip in chips:
            ratios = []
            for app, graph in pairs:
                row = cells.row(TestCase(app, graph, run_chip))
                own = row.get(best.get((app, graph, run_chip)))
                ported = row.get(best.get((app, graph, opt_chip)))
                if own is None or ported is None:
                    # Degraded dataset: the ported configuration was
                    # never measured on this chip; the geomean is over
                    # the pairs that were.
                    continue
                ratios.append(ported.median / own.median)
            heat[(run_chip, opt_chip)] = (
                geomean(ratios) if ratios else float("nan")
            )
    return chips, heat


@dataclass(frozen=True)
class EnvelopeEntry:
    """One side of Table II's envelope for a chip."""

    chip: str
    app: str
    graph: str
    config: OptConfig
    factor: float  # speedup (>1) or slowdown (>1, i.e. base/config inverted)


def performance_envelope(
    dataset: PerfDataset,
) -> Dict[str, Tuple[EnvelopeEntry, EnvelopeEntry]]:
    """Table II: per chip, the extreme speedup and slowdown vs baseline.

    Only statistically significant outcomes qualify, matching the
    paper's definitions of speedup and slowdown.
    """
    cells = CellTable(dataset)
    result: Dict[str, Tuple[EnvelopeEntry, EnvelopeEntry]] = {}
    for chip in dataset.chips:
        best_entry: Optional[EnvelopeEntry] = None
        worst_entry: Optional[EnvelopeEntry] = None
        for test in dataset.tests_where(chip=chip):
            row = cells.row(test)
            base = row.get(BASELINE.key())
            if base is None:
                continue
            for config in dataset.configs:
                if config.is_baseline:
                    continue
                cell = row.get(config.key())
                if cell is None:
                    continue
                outcome = summary_outcome(base, cell)
                if outcome == "no-change":
                    continue
                speedup = base.median / cell.median
                if outcome == "speedup" and (
                    best_entry is None or speedup > best_entry.factor
                ):
                    best_entry = EnvelopeEntry(
                        chip, test.app, test.graph, config, speedup
                    )
                elif outcome == "slowdown" and (
                    worst_entry is None or 1.0 / speedup > worst_entry.factor
                ):
                    worst_entry = EnvelopeEntry(
                        chip, test.app, test.graph, config, 1.0 / speedup
                    )
        if best_entry is None:
            best_entry = EnvelopeEntry(chip, "-", "-", BASELINE, 1.0)
        if worst_entry is None:
            worst_entry = EnvelopeEntry(chip, "-", "-", BASELINE, 1.0)
        result[chip] = (best_entry, worst_entry)
    return result


def _oracle_speedup(
    cells: CellTable, test: TestCase
) -> Optional[Tuple[str, float]]:
    """The test's oracle key and its median speedup over the baseline,
    or ``None`` when the baseline was never measured."""
    row = cells.row(test)
    base = row.get(BASELINE.key())
    if base is None:
        return None
    best = cells.oracle(test)
    return best, base.median / row[best].median


def top_speedup_opts(
    dataset: PerfDataset, threshold: float = 0.0
) -> Dict[str, Dict[str, int]]:
    """Fig 2: per chip, how often each optimisation appears in the
    per-test oracle configuration (counted over tests whose oracle
    speedup exceeds ``threshold``)."""
    cells = CellTable(dataset)
    configs = {config.key(): config for config in dataset.configs}
    counts: Dict[str, Dict[str, int]] = {
        chip: {opt: 0 for opt in OPT_NAMES} for chip in dataset.chips
    }
    for test in dataset.tests:
        oracle = _oracle_speedup(cells, test)
        if oracle is None or oracle[1] <= 1.0 + threshold:
            continue
        for opt in configs[oracle[0]].enabled_names():
            counts[test.chip][opt] += 1
    return counts


def max_geomean_speedup(
    dataset: PerfDataset, tests: Optional[Sequence[TestCase]] = None
) -> float:
    """Section II-B's headline: the oracle's geomean speedup over baseline."""
    cells = CellTable(dataset)
    tests = list(tests) if tests is not None else dataset.tests
    oracles = [_oracle_speedup(cells, test) for test in tests]
    return geomean([oracle[1] for oracle in oracles if oracle is not None])
