"""Single-source shortest paths: three strategies (Table VII).

* ``sssp-topo`` — topology-driven Bellman-Ford: relax every edge per
  iteration until no distance improves;
* ``sssp-wl``   — worklist Bellman-Ford: relax only out-edges of nodes
  whose distance improved;
* ``sssp-nf``   — near-far work scheduling (fastest variant): improved
  nodes below the current distance threshold are processed immediately
  (*near*), the rest deferred (*far*) until the near pile drains —
  delta-stepping's bucketing specialised to two piles.

The paper's extreme speedups/slowdowns all occur on the road input
(``usa.ny``) where SSSP iteration counts are enormous; these variants
are the main beneficiaries of ``oitergb``.  Validated against SciPy's
Dijkstra oracle.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from ..dsl.builder import fixpoint_program, relax_kernel, topology_kernel
from ..graphs.csr import CSRGraph
from ..ocl.memory import AtomicOp
from ..runtime.stats import StepResult, frontier_step_result
from ..runtime.worklist import Worklist
from .base import Application, expand_frontier, unique_nodes

__all__ = ["SSSPTopo", "SSSPWorklist", "SSSPNearFar", "dijkstra_reference"]


def dijkstra_reference(graph: CSRGraph, source: int) -> np.ndarray:
    """SciPy Dijkstra oracle; unreachable nodes get ``inf``."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import dijkstra

    mat = csr_matrix(
        (graph.weights, graph.col_idx, graph.row_ptr),
        shape=(graph.n_nodes, graph.n_nodes),
    )
    return dijkstra(mat, directed=True, indices=source)


class _SSSPBase(Application):
    problem = "SSSP"
    requires_weights = True

    def init_state(self, graph: CSRGraph, source: int) -> Dict:
        dist = np.full(graph.n_nodes, np.inf)
        dist[source] = 0.0
        return {
            "dist": dist,
            "worklist": Worklist([source]),
            "threshold": 0.0,
            "far": np.empty(0, dtype=np.int64),
        }

    def extract_result(self, state: Dict, graph: CSRGraph) -> np.ndarray:
        return state["dist"]

    def reference(self, graph: CSRGraph, source: int) -> np.ndarray:
        return dijkstra_reference(graph, source)

    def _relax(self, graph: CSRGraph, state: Dict, frontier: np.ndarray):
        """Relax all out-edges of ``frontier``; returns (dsts, improved)."""
        dist = state["dist"]
        srcs, dsts, wts = expand_frontier(graph, frontier, with_weights=True)
        cand = dist[srcs] + wts
        before = dist.copy()
        np.minimum.at(dist, dsts, cand)
        improved = unique_nodes(dsts[dist[dsts] < before[dsts]], graph.n_nodes)
        attempts = int(np.count_nonzero(cand < before[dsts]))
        return dsts, improved, attempts


class SSSPTopo(_SSSPBase):
    """Topology-driven Bellman-Ford."""

    name = "sssp-topo"
    variant = "topology-driven"
    description = "Bellman-Ford relaxing every settled node per iteration"

    def _build_program(self):
        return fixpoint_program(
            self.name,
            [
                topology_kernel(
                    "sssp_topo_step",
                    read_field="dist",
                    write_field="dist",
                    atomic=AtomicOp.MIN,
                )
            ],
            convergence="flag",
            description=self.description,
        )

    def kernel_step(self, kernel: str, state: Dict, graph: CSRGraph) -> StepResult:
        if kernel != "sssp_topo_step":
            raise self._unknown_kernel(kernel)
        reached = np.flatnonzero(np.isfinite(state["dist"])).astype(np.int64)
        dsts, improved, attempts = self._relax(graph, state, reached)
        return frontier_step_result(
            graph,
            reached,
            active_items=graph.n_nodes,
            destinations=dsts,
            uncontended_rmws=attempts,
            contended_rmws=1 if improved.size else 0,
            more_work=bool(improved.size),
        )


class SSSPWorklist(_SSSPBase):
    """Worklist Bellman-Ford."""

    name = "sssp-wl"
    variant = "worklist"
    description = "Bellman-Ford relaxing only improved nodes"

    def _build_program(self):
        return fixpoint_program(
            self.name,
            [relax_kernel("sssp_wl_step", "dist", AtomicOp.MIN, read_weights=True)],
            convergence="worklist-empty",
            description=self.description,
        )

    def kernel_step(self, kernel: str, state: Dict, graph: CSRGraph) -> StepResult:
        if kernel != "sssp_wl_step":
            raise self._unknown_kernel(kernel)
        wl: Worklist = state["worklist"]
        frontier = wl.items()
        dsts, improved, attempts = self._relax(graph, state, frontier)
        wl.push(improved)
        pushes = wl.swap()
        return frontier_step_result(
            graph,
            frontier,
            destinations=dsts,
            pushes=pushes,
            uncontended_rmws=attempts,
            more_work=not wl.is_empty,
        )


class SSSPNearFar(_SSSPBase):
    """Near-far work scheduling (fastest variant)."""

    name = "sssp-nf"
    variant = "near-far"
    fastest_variant = True
    description = (
        "Two-pile delta-stepping: near nodes relaxed eagerly, far "
        "nodes deferred until the near pile drains"
    )

    def _build_program(self):
        return fixpoint_program(
            self.name,
            [relax_kernel("sssp_nf_step", "dist", AtomicOp.MIN, read_weights=True)],
            convergence="worklist-empty",
            description=self.description,
        )

    def _delta(self, graph: CSRGraph) -> float:
        return float(graph.weights.mean())

    def kernel_step(self, kernel: str, state: Dict, graph: CSRGraph) -> StepResult:
        if kernel != "sssp_nf_step":
            raise self._unknown_kernel(kernel)
        wl: Worklist = state["worklist"]
        dist = state["dist"]
        if state["threshold"] == 0.0:
            state["threshold"] = self._delta(graph)
        frontier = wl.items()

        dsts, improved, attempts = self._relax(graph, state, frontier)
        near = improved[dist[improved] < state["threshold"]]
        far = improved[dist[improved] >= state["threshold"]]
        # A deferred node that has since improved into the near band is
        # promoted now rather than kept stale in the far pile.
        pile = np.zeros(graph.n_nodes, dtype=bool)
        pile[state["far"]] = True
        pile[far] = True
        pile[near] = False
        state["far"] = np.flatnonzero(pile)
        if near.size == 0:
            # Near pile drained: advance the threshold and promote.
            while state["far"].size and near.size == 0:
                state["threshold"] += self._delta(graph)
                fdist = dist[state["far"]]
                near = state["far"][fdist < state["threshold"]]
                state["far"] = state["far"][fdist >= state["threshold"]]
        wl.push(near)
        pushes = wl.swap()
        return frontier_step_result(
            graph,
            frontier,
            destinations=dsts,
            pushes=pushes,
            uncontended_rmws=attempts,
            more_work=not wl.is_empty or bool(state["far"].size),
        )
