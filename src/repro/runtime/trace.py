"""Workload traces: what a program actually did on an input.

The study's two-phase design runs each (application, input) pair once
*functionally* and records, per kernel launch, the quantities the
performance model prices: outer work items, inner-loop edge work, the
degree distribution of expanded nodes (load imbalance), worklist
pushes and other atomics (RMW pressure), and the spatial irregularity
of neighbour accesses (memory divergence).  Every (chip,
configuration) timing is then derived from the same trace — mirroring
the paper's premise that the optimisations are semantics-preserving,
so the *work* is fixed and only its *cost* varies.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

__all__ = ["LaunchRecord", "Trace", "TraceArrays", "TraceGroup"]


@dataclass(frozen=True)
class LaunchRecord:
    """Workload statistics of one kernel launch."""

    kernel: str
    iteration: int  # fixpoint iteration index; -1 outside fixpoints
    in_fixpoint: bool
    active_items: int  # outer-loop work items scanned
    expanded_items: int  # items whose inner loop actually ran
    edges: int  # total inner-loop iterations
    deg_mean: float = 0.0  # over expanded items
    deg_std: float = 0.0
    deg_max: int = 0
    deg_hist: tuple = ()  # power-of-two degree buckets of expanded items
    pushes: int = 0  # worklist appends (contended RMW each)
    contended_rmws: int = 0  # other hot-location RMWs (flags, tails)
    uncontended_rmws: int = 0  # distributed per-node/edge RMWs
    irregularity: float = 0.0  # [0, 1] neighbour-access scatter

    def __post_init__(self) -> None:
        if self.active_items < 0 or self.edges < 0:
            raise ValueError("work counts must be non-negative")
        if not 0.0 <= self.irregularity <= 1.0:
            raise ValueError("irregularity must lie in [0, 1]")

    @property
    def has_inner_work(self) -> bool:
        return self.edges > 0


@dataclass
class Trace:
    """Complete workload trace of one functional program execution."""

    program: str
    graph: str
    launches: List[LaunchRecord] = field(default_factory=list)
    converged: bool = True
    result_checksum: Optional[float] = None

    def add(self, record: LaunchRecord) -> None:
        self.launches.append(record)

    # -- summary quantities used by the performance model ---------------

    @property
    def n_launches(self) -> int:
        return len(self.launches)

    @property
    def n_fixpoint_iterations(self) -> int:
        """Dependent fixpoint iterations, each costing one host round-trip."""
        iters = {r.iteration for r in self.launches if r.in_fixpoint}
        return len(iters)

    @property
    def total_edges(self) -> int:
        return sum(r.edges for r in self.launches)

    @property
    def total_pushes(self) -> int:
        return sum(r.pushes for r in self.launches)

    def launches_of(self, kernel: str) -> Iterator[LaunchRecord]:
        return (r for r in self.launches if r.kernel == kernel)

    def arrays(self) -> "TraceArrays":
        """Structure-of-arrays view of the launches, cached on the trace.

        The conversion is paid once; every subsequent (chip,
        configuration) batch pricing reuses it.  The cache is
        invalidated when launches are appended.
        """
        cached = getattr(self, "_arrays_cache", None)
        if cached is None or cached.n_launches != len(self.launches):
            cached = TraceArrays.from_trace(self)
            self._arrays_cache = cached
        return cached

    # -- (de)serialisation ----------------------------------------------

    def to_dict(self) -> Dict:
        return {
            "program": self.program,
            "graph": self.graph,
            "converged": self.converged,
            "result_checksum": self.result_checksum,
            "launches": [asdict(r) for r in self.launches],
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "Trace":
        trace = cls(
            program=data["program"],
            graph=data["graph"],
            converged=data["converged"],
            result_checksum=data.get("result_checksum"),
        )
        for rec in data["launches"]:
            rec = dict(rec)
            rec["deg_hist"] = tuple(rec.get("deg_hist", ()))
            trace.add(LaunchRecord(**rec))
        return trace

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def from_json(cls, text: str) -> "Trace":
        return cls.from_dict(json.loads(text))


@dataclass(frozen=True)
class TraceGroup:
    """Launches of one kernel sharing one degree-histogram width.

    Grouping by (kernel, width) serves two purposes: every launch in a
    group is priced under the same :class:`~repro.compiler.plan.KernelPlan`,
    and the degree histograms stack into one rectangular array without
    padding — reductions over the bucket axis therefore see exactly the
    same operand lengths as the scalar model, which keeps the batch
    path bit-identical (padding with zeros would change NumPy's
    pairwise summation trees).
    """

    kernel: str
    width: int  # number of degree-histogram buckets
    indices: np.ndarray  # positions in Trace.launches (int64)
    active_items: np.ndarray  # int64
    expanded_items: np.ndarray  # int64
    edges: np.ndarray  # int64
    pushes: np.ndarray  # int64
    contended_rmws: np.ndarray  # int64
    uncontended_rmws: np.ndarray  # int64
    irregularity: np.ndarray  # float64
    in_fixpoint: np.ndarray  # bool
    deg_hist: np.ndarray  # float64, shape (n, width), C-contiguous

    @property
    def n(self) -> int:
        return int(self.indices.size)


@dataclass(frozen=True)
class TraceArrays:
    """Structure-of-arrays form of a :class:`Trace` for batch pricing.

    One-time conversion of the launch records into NumPy arrays (see
    :meth:`Trace.arrays` for the cached accessor), plus the host-side
    launch counts the overhead model needs.
    """

    program: str
    graph: str
    n_launches: int
    groups: Tuple[TraceGroup, ...]
    n_outside_fixpoint: int
    n_inside_fixpoint: int
    n_fixpoint_iterations: int

    @classmethod
    def from_trace(cls, trace: Trace) -> "TraceArrays":
        by_shape: Dict[Tuple[str, int], List[int]] = {}
        for i, rec in enumerate(trace.launches):
            by_shape.setdefault((rec.kernel, len(rec.deg_hist)), []).append(i)

        groups = []
        for (kernel, width), idxs in by_shape.items():
            recs = [trace.launches[i] for i in idxs]
            hist = np.array(
                [r.deg_hist for r in recs], dtype=np.float64
            ).reshape(len(recs), width)
            groups.append(
                TraceGroup(
                    kernel=kernel,
                    width=width,
                    indices=np.asarray(idxs, dtype=np.int64),
                    active_items=np.array(
                        [r.active_items for r in recs], dtype=np.int64
                    ),
                    expanded_items=np.array(
                        [r.expanded_items for r in recs], dtype=np.int64
                    ),
                    edges=np.array([r.edges for r in recs], dtype=np.int64),
                    pushes=np.array([r.pushes for r in recs], dtype=np.int64),
                    contended_rmws=np.array(
                        [r.contended_rmws for r in recs], dtype=np.int64
                    ),
                    uncontended_rmws=np.array(
                        [r.uncontended_rmws for r in recs], dtype=np.int64
                    ),
                    irregularity=np.array(
                        [r.irregularity for r in recs], dtype=np.float64
                    ),
                    in_fixpoint=np.array(
                        [r.in_fixpoint for r in recs], dtype=bool
                    ),
                    deg_hist=np.ascontiguousarray(hist),
                )
            )

        inside = sum(1 for r in trace.launches if r.in_fixpoint)
        return cls(
            program=trace.program,
            graph=trace.graph,
            n_launches=len(trace.launches),
            groups=tuple(groups),
            n_outside_fixpoint=len(trace.launches) - inside,
            n_inside_fixpoint=inside,
            n_fixpoint_iterations=trace.n_fixpoint_iterations,
        )
