"""PageRank: pull- and push-based variants (Table VII).

* ``pr-topo`` — topology-driven pull: every iteration gathers rank
  contributions over all edges until the update norm falls below
  tolerance;
* ``pr-wl``   — residual push (fastest variant): only nodes whose
  accumulated residual exceeds a threshold push it onward.

Both use damping 0.85.  Dangling-node mass is dropped (the usual GPU
convention — both variants and the oracle use the same convention, so
results agree to the push threshold's precision).
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

__all__ = ["PRTopo", "PRPush", "pagerank_reference"]

DAMPING = 0.85
PULL_TOLERANCE = 1e-9
PUSH_EPSILON = 1e-11


def pagerank_reference(
    graph: CSRGraph, damping: float = DAMPING, tolerance: float = PULL_TOLERANCE
) -> np.ndarray:
    """Power iteration oracle (dangling mass dropped)."""
    n = graph.n_nodes
    deg = graph.out_degrees().astype(np.float64)
    srcs = graph.edge_sources()
    rank = np.full(n, 1.0 / n)
    base = (1.0 - damping) / n
    inv_deg = np.where(deg > 0, 1.0 / np.maximum(deg, 1), 0.0)
    for _ in range(10_000):
        contrib = rank * inv_deg
        incoming = np.bincount(graph.col_idx, weights=contrib[srcs], minlength=n)
        new_rank = base + damping * incoming
        delta = float(np.abs(new_rank - rank).max())
        rank = new_rank
        if delta < tolerance:
            break
    return rank


class _PRBase(Application):
    problem = "PR"

    def reference(self, graph: CSRGraph, source: int) -> np.ndarray:
        return pagerank_reference(graph)

    def results_match(self, computed: np.ndarray, expected: np.ndarray) -> bool:
        return bool(np.allclose(computed, expected, atol=5e-6, rtol=1e-3))


class PRTopo(_PRBase):
    """Pull-based PageRank."""

    name = "pr-topo"
    variant = "pull"
    description = "Pull-based PageRank, full edge sweep per iteration"

    def _build_program(self):
        return fixpoint_program(
            self.name,
            [
                topology_kernel(
                    "pr_pull_step",
                    read_field="rank",
                    write_field="rank",
                    atomic=None,
                )
            ],
            convergence="flag",
            description=self.description,
        )

    def init_state(self, graph: CSRGraph, source: int) -> Dict:
        n = graph.n_nodes
        deg = graph.out_degrees().astype(np.float64)
        return {
            "rank": np.full(n, 1.0 / n),
            "inv_deg": np.where(deg > 0, 1.0 / np.maximum(deg, 1), 0.0),
            "srcs": graph.edge_sources(),
        }

    def kernel_step(self, kernel: str, state: Dict, graph: CSRGraph) -> StepResult:
        if kernel != "pr_pull_step":
            raise self._unknown_kernel(kernel)
        n = graph.n_nodes
        rank = state["rank"]
        contrib = rank * state["inv_deg"]
        incoming = np.bincount(
            graph.col_idx, weights=contrib[state["srcs"]], minlength=n
        )
        new_rank = (1.0 - DAMPING) / n + DAMPING * incoming
        delta = float(np.abs(new_rank - rank).max())
        state["rank"] = new_rank
        all_nodes = np.arange(n, dtype=np.int64)
        return frontier_step_result(
            graph,
            all_nodes,
            active_items=n,
            destinations=graph.col_idx,
            contended_rmws=1,
            more_work=delta >= PULL_TOLERANCE,
        )

    def extract_result(self, state: Dict, graph: CSRGraph) -> np.ndarray:
        return state["rank"]


class PRPush(_PRBase):
    """Residual push PageRank (fastest variant)."""

    name = "pr-wl"
    variant = "push-residual"
    fastest_variant = True
    description = "Residual-push PageRank over an active-node worklist"

    def _build_program(self):
        return fixpoint_program(
            self.name,
            [relax_kernel("pr_push_step", "residual", AtomicOp.ADD)],
            convergence="worklist-empty",
            description=self.description,
        )

    def init_state(self, graph: CSRGraph, source: int) -> Dict:
        n = graph.n_nodes
        deg = graph.out_degrees().astype(np.float64)
        return {
            "rank": np.zeros(n),
            "residual": np.full(n, (1.0 - DAMPING) / n),
            "inv_deg": np.where(deg > 0, 1.0 / np.maximum(deg, 1), 0.0),
            "worklist": Worklist(np.arange(n, dtype=np.int64)),
        }

    def kernel_step(self, kernel: str, state: Dict, graph: CSRGraph) -> StepResult:
        if kernel != "pr_push_step":
            raise self._unknown_kernel(kernel)
        wl: Worklist = state["worklist"]
        frontier = wl.items()
        residual = state["residual"]
        rank = state["rank"]

        res = residual[frontier].copy()
        rank[frontier] += res
        residual[frontier] = 0.0

        srcs, dsts, _ = expand_frontier(graph, frontier)
        push_amount = DAMPING * res * state["inv_deg"][frontier]
        per_edge = np.repeat(push_amount, graph.out_degrees()[frontier])
        before = residual.copy()
        np.add.at(residual, dsts, per_edge)
        crossed = unique_nodes(
            dsts[(residual[dsts] > PUSH_EPSILON) & (before[dsts] <= PUSH_EPSILON)],
            graph.n_nodes,
        )
        wl.push(crossed)
        pushes = wl.swap()
        return frontier_step_result(
            graph,
            frontier,
            destinations=dsts,
            pushes=pushes,
            uncontended_rmws=int(dsts.size),
            more_work=not wl.is_empty,
        )

    def extract_result(self, state: Dict, graph: CSRGraph) -> np.ndarray:
        # Residual below threshold is never applied; fold it in so the
        # result matches the pull oracle to within the push epsilon.
        return state["rank"] + state["residual"]
