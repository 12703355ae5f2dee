"""What the workloads share: scope, seeds, the run context, helpers."""

from __future__ import annotations

import hashlib
import math
import os
import resource
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from spans import Tracer

#: The checkout the benchmark runs in: ``perfbench/`` sits at its root.
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: One application per algorithm family; ``sssp-nf`` needs edge weights.
APPS = ("bfs-wl", "sssp-nf", "pr-topo", "cc-wl", "tri-hybrid", "mis-wl")


@dataclass(frozen=True)
class Scope:
    apps: Tuple[str, ...]
    study_chips: Tuple[str, ...]  # also the chips predict items name
    index_chips: Tuple[str, ...]  # the chips the served index covers
    scale: float  # study inputs, and the server's --predict-scale
    calib_loops: int


SCOPES = {
    # The benchmark's scope: 96 configurations x 3 repetitions always.
    "full": Scope(APPS, ("GTX1080", "IRIS", "R9", "MALI"), ("GTX1080", "MALI"),
                  0.25, 10_000_000),
    # A seconds-long smoke scope: one app, one chip.
    "tiny": Scope(("bfs-wl",), ("GTX1080",), ("GTX1080",), 0.05, 500_000),
}


def derive_seed(seed: int, *parts: object) -> int:
    """A 31-bit seed for one op, fixed by the run's ``--seed``."""
    text = ":".join(str(p) for p in (seed,) + parts)
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:4], "big") >> 1


def calibrate(loops: int) -> float:
    """Host drift diagnostic: iterations per second of a fixed pure-Python loop."""
    started = time.perf_counter()
    x = 0
    for i in range(loops):
        x = (x * 31 + i) & 0xFFFF
    return loops / (time.perf_counter() - started)


def peak_rss_mb() -> float:
    """The larger of this process's and its reaped children's peak RSS."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def cold_caches() -> None:
    """Empty the program's process-wide memo caches before an op.

    Each op then does the work a fresh process would, whether or not an
    earlier op of the run touched the same inputs.
    """
    from repro.compiler import plan_cache

    plan_cache.clear()
    for name, module in list(sys.modules.items()):
        if name != "repro" and not name.startswith("repro."):
            continue
        for value in list(vars(module).values()):
            if isinstance(value, type):
                continue
            if hasattr(value, "cache_info") and callable(
                getattr(value, "cache_clear", None)
            ):
                value.cache_clear()


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile, ``q`` in (0, 100]."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


@dataclass
class Run:
    """One benchmark invocation: arguments, tracer and the tallies."""

    seed: int
    seconds: float
    trace: bool
    scope: Scope
    workdir: str
    tracer: Tracer
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    #: Per-layer counts the traced pass accumulates (e.g. ``store.bytes``).
    counts: Dict[str, float] = field(default_factory=dict)

    def span(self, name: str):
        return self.tracer.span(name)

    def log(self, message: str) -> None:
        print(f"[perfbench] {message}", file=sys.stderr, flush=True)

    def note(self, message: str) -> None:
        """A result line on stdout (before the final JSON line)."""
        print(message, flush=True)

    def count(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def problem(self, message: str) -> None:
        """A failed correctness check: the run is reported incorrect."""
        self.problems.append(message)
        self.log(f"CHECK FAILED: {message}")

    def attempt(self, op: Callable[[], object]) -> Tuple[Optional[object], float]:
        """Run one op; returns ``(result, seconds)`` with ``None`` on failure."""
        self.attempted += 1
        started = time.perf_counter()
        try:
            result = op()
        except Exception:  # an op failure is counted, not fatal
            elapsed = time.perf_counter() - started
            self.failed += 1
            self.problem("op raised:\n" + traceback.format_exc())
            return None, elapsed
        return result, time.perf_counter() - started


@dataclass
class Outcome:
    """What a workload hands back to ``run.py``."""

    end_to_end: Dict[str, float] = field(default_factory=dict)
    per_layer: Dict[str, float] = field(default_factory=dict)
