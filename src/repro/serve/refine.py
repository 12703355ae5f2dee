"""Online explore/exploit: refine strategy answers from live traffic.

The strategy index is compiled offline from one study; a query for an
(app, input, chip) cell the study never measured can only fall back up
the specialisation lattice to a less-specialised (degraded) answer.
But a running server *sees* measurements: every successful
``POST /v1/predict`` prices a concrete (chip, app, input, config)
point.  ``GET /v1/strategy?refine=1`` opts into consulting those live
observations — the server-side half of the budgeted-autotuning loop
(:mod:`repro.core.search`): predict traffic explores the lattice, and
refined strategy answers exploit whatever it has learned so far.

:class:`ObservationStore` is the bounded memory between the two
endpoints.  It keeps, per (chip, app, input) cell, a running per-
configuration mean of observed medians, evicting whole cells LRU-wise
past ``capacity`` — a long-running server's store cannot grow without
bound, and a cell refreshed by traffic stays hot.  The best
configuration of a cell is the lowest mean median, ties broken by
lexicographic configuration key (the same order as
:mod:`repro.core.search`).

Refined responses are *additive*: they carry the normal answer schema
plus ``"refined": true``, a ``served_level`` of ``"refined"`` and a
provenance note naming the observation count — responses that are not
refined are byte-identical to the non-refine path, so precompiled
answers, goldens and caches are untouched.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

from ..core.stats.summary import sorted_median
from ..errors import ServeError

__all__ = ["DEFAULT_CAPACITY", "ObservationStore"]

#: Default bound on distinct (chip, app, input) cells remembered.
DEFAULT_CAPACITY = 256

#: One cell's accumulated evidence: config key -> [count, sum of medians].
_Cell = Dict[str, List[float]]


class ObservationStore:
    """Bounded LRU store of live per-cell prediction observations.

    Keys are full (chip, app, input) coordinate triples — the refine
    path only applies to fully-specified queries, matching the
    granularity ``/v1/predict`` prices at.  Thread-safe: the server's
    predict path records from executor callbacks while the strategy
    path reads.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise ServeError(
                f"observation store capacity must be positive, got "
                f"{capacity}"
            )
        self.capacity = int(capacity)
        self._cells: "OrderedDict[Tuple[str, str, str], _Cell]" = (
            OrderedDict()
        )
        self._observations: Dict[Tuple[str, str, str], int] = {}
        self._lock = threading.Lock()
        self.recorded = 0
        self.evicted = 0

    def record(
        self,
        chip: str,
        app: str,
        input: str,
        config: str,
        times_us: Tuple[float, ...],
    ) -> None:
        """Fold one priced observation into its cell (LRU-refreshing)."""
        if not times_us:
            return
        med = sorted_median([float(t) for t in times_us])
        key = (chip, app, input)
        with self._lock:
            cell = self._cells.get(key)
            if cell is None:
                cell = {}
                self._cells[key] = cell
                self._observations[key] = 0
            else:
                self._cells.move_to_end(key)
            stat = cell.setdefault(config, [0.0, 0.0])
            stat[0] += 1
            stat[1] += med
            self._observations[key] += 1
            self.recorded += 1
            while len(self._cells) > self.capacity:
                evicted_key, _ = self._cells.popitem(last=False)
                del self._observations[evicted_key]
                self.evicted += 1

    def best(
        self, chip: str, app: str, input: str
    ) -> Optional[Tuple[str, float, int]]:
        """The cell's best configuration so far, or ``None``.

        Returns ``(config key, mean observed median in us, number of
        observations in the cell)``; lowest mean wins, ties break on
        lexicographic key.  Reading refreshes the cell's LRU position —
        a cell that answers queries is worth keeping.
        """
        key = (chip, app, input)
        with self._lock:
            cell = self._cells.get(key)
            if not cell:
                return None
            self._cells.move_to_end(key)
            mean, config = min(
                (total / n, k) for k, (n, total) in cell.items()
            )
            return config, mean, self._observations[key]

    def __len__(self) -> int:
        return len(self._cells)

    def stats(self) -> dict:
        """Counters for ``/metrics``: shape and lifetime totals."""
        with self._lock:
            return {
                "cells": len(self._cells),
                "capacity": self.capacity,
                "recorded": self.recorded,
                "evicted": self.evicted,
            }
