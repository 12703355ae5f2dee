"""In-memory spans recorded by the benchmark around each public call.

A span is ``[name, start, end, parent]``: times come from
``time.perf_counter`` and ``parent`` is the index of the enclosing span
(``None`` for a root).  Spans are only recorded from the benchmark's
main thread.  A layer's *self time* is its duration minus the time its
child spans cover; whatever wall time no root span covers is reported
as unaccounted.  Self times plus unaccounted time equal the traced wall
time only if the spans nest: ``problems()`` checks that they do.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Dict, List, Optional


class Tracer:
    """Collects spans while ``enabled``; a disabled tracer records nothing."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: List[list] = []
        self._open: List[int] = []
        self.started = time.perf_counter()
        self.ended: Optional[float] = None

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        parent = self._open[-1] if self._open else None
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent])
        self._open.append(index)
        try:
            yield
        finally:
            self.spans[index][2] = time.perf_counter()
            self._open.pop()

    @contextmanager
    def paused(self, name: str):
        """One span ``name`` around a region whose inner spans are dropped.

        Used for the untraced reference pass: its wall time stays
        accounted for, but the calls inside run exactly as in an
        untraced run.
        """
        with self.span(name):
            enabled, self.enabled = self.enabled, False
            try:
                yield
            finally:
                self.enabled = enabled

    def finish(self) -> None:
        self.ended = time.perf_counter()

    def self_times(self) -> Dict[str, float]:
        """Seconds of self time per span name."""
        totals: Dict[str, float] = {}
        for name, start, end, parent in self.spans:
            duration = end - start
            totals[name] = totals.get(name, 0.0) + duration
            if parent is not None:
                pname = self.spans[parent][0]
                totals[pname] = totals.get(pname, 0.0) - duration
        return totals

    def wall(self) -> float:
        return (self.ended or time.perf_counter()) - self.started

    def unaccounted(self) -> float:
        covered = sum(
            end - start for _, start, end, parent in self.spans if parent is None
        )
        return self.wall() - covered

    def problems(self) -> List[str]:
        """Ways the spans fail to nest; empty when self times are trustworthy.

        Every span must have ended, lie within its parent and leave a
        non-negative self time, and the root spans must not overlap
        (so the unaccounted time is not negative).
        """
        found = []
        children: Dict[int, float] = {}
        for i, (name, start, end, parent) in enumerate(self.spans):
            if end is None or end < start:
                found.append(f"span {i} ({name}) has no valid end")
                continue
            if parent is not None:
                pstart, pend = self.spans[parent][1], self.spans[parent][2]
                if pend is None or start < pstart or end > pend:
                    found.append(f"span {i} ({name}) lies outside its parent {parent}")
                children[parent] = children.get(parent, 0.0) + end - start
        for i, covered in children.items():
            name, start, end, _ = self.spans[i]
            if end is not None and covered > end - start:
                found.append(f"span {i} ({name}) has negative self time")
        if self.unaccounted() < 0:
            found.append(f"root spans overlap: unaccounted {self.unaccounted()}s")
        return found

    def write(self, path: str) -> None:
        payload = {
            "started": self.started,
            "ended": self.ended,
            "spans": [
                {"name": n, "start": s, "end": e, "parent": p}
                for n, s, e, p in self.spans
            ],
        }
        with open(path, "w") as f:
            json.dump(payload, f)
            f.write("\n")
