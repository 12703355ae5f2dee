"""Connected components: label propagation, two strategies (Table VII).

Both variants propagate minimum labels over the undirected view of the
input until a fixed point:

* ``cc-topo`` — topology-driven: every iteration relaxes all edges;
* ``cc-wl``   — data-driven: only nodes whose label changed relax
  their neighbourhood (the fastest variant).

Validated against SciPy's connected-components oracle.
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

__all__ = ["CCTopo", "CCWorklist"]


def _canonical_labels(labels: np.ndarray) -> np.ndarray:
    """Relabel components to the minimum member id (order-independent).

    ``labels`` are component ids in ``[0, labels.size)``.
    """
    mins = np.full(labels.size, np.iinfo(np.int64).max, dtype=np.int64)
    np.minimum.at(mins, labels, np.arange(labels.size, dtype=np.int64))
    return mins[labels]


class _CCBase(Application):
    problem = "CC"

    def init_state(self, graph: CSRGraph, source: int) -> Dict:
        und = graph.undirected()
        labels = np.arange(graph.n_nodes, dtype=np.int64)
        return {
            "und": und,
            "labels": labels,
            "worklist": Worklist(np.arange(graph.n_nodes, dtype=np.int64)),
        }

    def extract_result(self, state: Dict, graph: CSRGraph) -> np.ndarray:
        return _canonical_labels(state["labels"])

    def reference(self, graph: CSRGraph, source: int) -> np.ndarray:
        from scipy.sparse import csr_matrix
        from scipy.sparse.csgraph import connected_components

        und = graph.undirected()
        mat = csr_matrix(
            (
                np.ones(und.n_edges, dtype=np.int8),
                und.col_idx,
                und.row_ptr,
            ),
            shape=(und.n_nodes, und.n_nodes),
        )
        _, labels = connected_components(mat, directed=False)
        return _canonical_labels(labels.astype(np.int64))


class CCTopo(_CCBase):
    """Topology-driven label propagation."""

    name = "cc-topo"
    variant = "topology-driven"
    description = "Min-label propagation relaxing every edge per iteration"

    def _build_program(self):
        return fixpoint_program(
            self.name,
            [
                topology_kernel(
                    "cc_topo_step",
                    read_field="label",
                    write_field="label",
                    atomic=AtomicOp.MIN,
                )
            ],
            convergence="flag",
            description=self.description,
        )

    def kernel_step(self, kernel: str, state: Dict, graph: CSRGraph) -> StepResult:
        if kernel != "cc_topo_step":
            raise self._unknown_kernel(kernel)
        und: CSRGraph = state["und"]
        labels = state["labels"]
        srcs = und.edge_sources()
        dsts = und.col_idx
        before = labels.copy()
        np.minimum.at(labels, dsts, before[srcs])
        improved = int(np.count_nonzero(labels != before))
        all_nodes = np.arange(und.n_nodes, dtype=np.int64)
        return frontier_step_result(
            und,
            all_nodes,
            active_items=und.n_nodes,
            destinations=dsts,
            uncontended_rmws=improved,
            contended_rmws=1 if improved else 0,
            more_work=bool(improved),
        )


class CCWorklist(_CCBase):
    """Data-driven label propagation (fastest variant)."""

    name = "cc-wl"
    variant = "worklist"
    fastest_variant = True
    description = "Min-label propagation relaxing only changed nodes"

    def _build_program(self):
        return fixpoint_program(
            self.name,
            [relax_kernel("cc_wl_step", "label", AtomicOp.MIN)],
            convergence="worklist-empty",
            description=self.description,
        )

    def kernel_step(self, kernel: str, state: Dict, graph: CSRGraph) -> StepResult:
        if kernel != "cc_wl_step":
            raise self._unknown_kernel(kernel)
        und: CSRGraph = state["und"]
        labels = state["labels"]
        wl: Worklist = state["worklist"]
        frontier = wl.items()
        srcs, dsts, _ = expand_frontier(und, frontier)
        before = labels.copy()
        np.minimum.at(labels, dsts, before[srcs])
        improved_nodes = unique_nodes(dsts[labels[dsts] != before[dsts]], und.n_nodes)
        attempts = int(np.count_nonzero(before[srcs] < before[dsts]))
        wl.push(improved_nodes)
        pushes = wl.swap()
        return frontier_step_result(
            und,
            frontier,
            destinations=dsts,
            pushes=pushes,
            uncontended_rmws=attempts,
            more_work=not wl.is_empty,
        )
