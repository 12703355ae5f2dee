"""Application protocol and shared helpers.

An :class:`Application` is one of the study's 17 graph programs: it
owns (1) a DSL :class:`~repro.dsl.ast.Program` describing its kernel
structure — what the compiler optimises and the performance model
prices — and (2) vectorised *step functions*, one per kernel, giving
the kernels' value-level semantics so the functional executor can
compute real results and real workload traces.  Each application also
provides an independent reference implementation used by the test
suite to validate functional execution.
"""

from __future__ import annotations

import abc
from typing import Dict, Optional, Tuple

import numpy as np

from ..dsl.ast import Program
from ..errors import ExecutionError
from ..graphs.csr import CSRGraph
from ..runtime.executor import ExecutionResult, execute
from ..runtime.stats import StepResult
from ..util import expand_segments

__all__ = ["Application", "expand_frontier", "unique_nodes"]


def expand_frontier(
    graph: CSRGraph, frontier: np.ndarray, with_weights: bool = False
) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """All out-edges of a set of nodes: (sources, destinations, weights).

    Vectorised CSR expansion; sources are repeated per their degree so
    the three arrays are parallel.
    """
    frontier = np.asarray(frontier, dtype=np.int64)
    starts = graph.row_ptr[frontier]
    counts = graph.row_ptr[frontier + 1] - starts
    idx = expand_segments(starts, counts)
    srcs = np.repeat(frontier, counts)
    dsts = graph.col_idx[idx]
    wts = graph.weights[idx] if with_weights and graph.has_weights else None
    return srcs, dsts, wts


def unique_nodes(ids: np.ndarray, n_nodes: int) -> np.ndarray:
    """The distinct node ids in ``ids``, ascending.

    Equal to ``np.unique(ids)`` for ids in ``[0, n_nodes)``, but marks a
    boolmap instead of sorting: frontier dedup is linear in the nodes.
    """
    mask = np.zeros(n_nodes, dtype=bool)
    mask[ids] = True
    return np.flatnonzero(mask)


class Application(abc.ABC):
    """Base class for study applications (paper Table VII rows)."""

    #: Short study name, e.g. ``"bfs-wl"``.
    name: str = ""
    #: High-level problem, one of BFS/CC/MIS/MST/PR/SSSP/TRI.
    problem: str = ""
    #: Implementation-strategy label, e.g. ``"worklist"``.
    variant: str = ""
    #: Marks the fastest algorithm per problem (Table VII's ``*``).
    fastest_variant: bool = False
    #: Whether the input graph must carry edge weights.
    requires_weights: bool = False
    description: str = ""

    def __init__(self) -> None:
        self._program: Optional[Program] = None

    # -- protocol ---------------------------------------------------------

    def program(self) -> Program:
        """The application's DSL program (built once, cached)."""
        if self._program is None:
            self._program = self._build_program()
        return self._program

    @abc.abstractmethod
    def _build_program(self) -> Program:
        """Construct the DSL program."""

    @abc.abstractmethod
    def init_state(self, graph: CSRGraph, source: int) -> Dict:
        """Allocate and initialise device state for a run."""

    @abc.abstractmethod
    def kernel_step(self, kernel: str, state: Dict, graph: CSRGraph) -> StepResult:
        """Execute one launch of ``kernel``, mutating ``state``."""

    @abc.abstractmethod
    def extract_result(self, state: Dict, graph: CSRGraph) -> np.ndarray:
        """The application's output array (levels, distances, ...)."""

    @abc.abstractmethod
    def reference(self, graph: CSRGraph, source: int) -> np.ndarray:
        """Independent CPU oracle for result validation."""

    # -- conveniences -------------------------------------------------------

    def run(self, graph: CSRGraph, source: int = 0) -> ExecutionResult:
        """Execute functionally and return (state, trace)."""
        self._check_input(graph)
        return execute(self, graph, source)

    def validate(self, graph: CSRGraph, source: int = 0) -> bool:
        """Run and compare against the reference oracle.

        Exact comparison by default; applications with approximate
        semantics (PageRank) override :meth:`results_match`.
        """
        result = self.run(graph, source)
        computed = self.extract_result(result.state, graph)
        expected = self.reference(graph, source)
        return self.results_match(computed, expected)

    def results_match(self, computed: np.ndarray, expected: np.ndarray) -> bool:
        computed = np.asarray(computed, dtype=np.float64)
        expected = np.asarray(expected, dtype=np.float64)
        if computed.shape != expected.shape:
            return False
        both_inf = np.isinf(computed) & np.isinf(expected)
        close = np.isclose(computed, expected, rtol=1e-9, atol=1e-9)
        return bool(np.all(both_inf | close))

    def _check_input(self, graph: CSRGraph) -> None:
        if self.requires_weights and not graph.has_weights:
            raise ExecutionError(
                f"application {self.name!r} requires edge weights but "
                f"graph {graph.name!r} is unweighted"
            )

    def _unknown_kernel(self, kernel: str) -> ExecutionError:
        return ExecutionError(
            f"application {self.name!r} has no kernel {kernel!r}"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        star = "*" if self.fastest_variant else ""
        return f"<Application {self.name}{star} ({self.problem}/{self.variant})>"
