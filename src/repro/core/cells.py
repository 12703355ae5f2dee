"""The per-cell summary table every analysis pass shares.

Algorithm 1, the portfolios, the strategy index, the portability
figures and search replay all read the same few numbers of each (test,
configuration) cell: its repetition count, mean, sample variance and
median.  :class:`CellTable` computes them in one pass over
``dataset.iter_cells()`` — which streams both the dict-backed and the
columnar (v3) store — so no analysis touches a raw timing tuple twice.
Two oracle tie rules read it: :meth:`CellTable.oracle` takes the first
lowest median in dataset configuration order, search replay
(:func:`repro.core.search_eval.oracle_best`) the lowest ``(median, key)``.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..study.dataset import PerfDataset, TestCase
from .stats.summary import CellSummary, summarise

__all__ = ["CellTable"]


class CellTable:
    """``(n, mean, var, median)`` per measured (test, configuration)."""

    def __init__(self, dataset: PerfDataset) -> None:
        #: Configuration keys in the dataset's own order (the order
        #: :meth:`oracle` breaks ties in).
        self.config_keys: List[str] = [c.key() for c in dataset.configs]
        self._rows: Dict[TestCase, Dict[str, CellSummary]] = {}
        for test, key, times in dataset.iter_cells():
            self._rows.setdefault(test, {})[key] = summarise(times)

    def row(self, test: TestCase) -> Dict[str, CellSummary]:
        """Config key -> summary for every measured cell of ``test``."""
        return self._rows.get(test, {})

    def medians(self, test: TestCase) -> Dict[str, float]:
        """Config key -> median, in the dataset's configuration order."""
        row = self.row(test)
        return {key: row[key].median for key in self.config_keys if key in row}

    def oracle(self, test: TestCase) -> Optional[str]:
        """The lowest-median configuration key (first on ties), or
        ``None`` for a test with no measurements."""
        medians = self.medians(test)
        if not medians:
            return None
        return min(medians, key=medians.__getitem__)
