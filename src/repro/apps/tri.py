"""Triangle counting: three strategies (Table VII).

All variants count triangles of the undirected simple view of the
input via intersection of adjacency lists; they differ in how the
intersection work is distributed — the classic regularity trade-off:

* ``tri-nodeiter`` — node-iterator: each node intersects its
  neighbourhood pairs (irregular inner loop, hub-dominated on
  power-law inputs);
* ``tri-edgeiter`` — edge-iterator: one work item per edge (balanced,
  but more total traffic);
* ``tri-hybrid``   — node-iterator for light nodes, edge-iterator for
  hub edges (fastest variant).

Unlike the rest of the suite these programs are single-sweep (no
fixpoint), so iteration outlining has nothing to outline — useful
variety for the specialisation analysis.  The triangle total is
computed on a degree-ordered orientation (each triangle counted
exactly once) and validated against a direct set-intersection oracle.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from ..dsl.ast import IterationSpace, Kernel, Load, NeighborLoop, Program
from ..dsl.builder import edge_kernel, phased_program
from ..graphs.csr import CSRGraph
from ..ocl.memory import AccessPattern, AtomicOp
from ..runtime.stats import StepResult, access_irregularity, degree_histogram
from .base import Application

__all__ = ["TriNodeIterator", "TriEdgeIterator", "TriHybrid", "triangle_count_oracle"]


def triangle_count_oracle(graph: CSRGraph) -> int:
    """Direct set-intersection triangle count (test oracle).

    O(m · d) with Python sets — intended for the small graphs used in
    tests, not the study inputs.
    """
    und = graph.undirected()
    adj = {v: set(map(int, und.neighbors(v))) for v in range(und.n_nodes)}
    total = 0
    for u in range(und.n_nodes):
        for v in adj[u]:
            if u < v:
                total += len(adj[u] & adj[v])
    return total // 3


def _oriented_count(und: CSRGraph) -> int:
    """Triangle count via degree-ordered orientation and sparse matmul."""
    from scipy.sparse import csr_matrix

    deg = und.out_degrees()
    # Total order: by degree, ties by id; orient edges upward.
    rank = np.lexsort((np.arange(und.n_nodes), deg))
    rank_pos = np.empty(und.n_nodes, dtype=np.int64)
    rank_pos[rank] = np.arange(und.n_nodes)
    srcs = und.edge_sources()
    dsts = und.col_idx
    keep = rank_pos[srcs] < rank_pos[dsts]
    d = csr_matrix(
        (np.ones(int(keep.sum()), dtype=np.int64), (srcs[keep], dsts[keep])),
        shape=(und.n_nodes, und.n_nodes),
    )
    return int((d @ d).multiply(d).sum())


class _TriBase(Application):
    problem = "TRI"

    def init_state(self, graph: CSRGraph, source: int) -> Dict:
        und = graph.undirected()
        return {"und": und, "count": 0}

    def extract_result(self, state: Dict, graph: CSRGraph) -> np.ndarray:
        return np.array([state["count"]], dtype=np.float64)

    def reference(self, graph: CSRGraph, source: int) -> np.ndarray:
        return np.array([triangle_count_oracle(graph)], dtype=np.float64)

    @staticmethod
    def _merge_work(und: CSRGraph, nodes: np.ndarray) -> int:
        """Total list-merge cost of node-iterating ``nodes``."""
        deg = und.out_degrees()
        starts = und.row_ptr[nodes]
        counts = deg[nodes]
        # Each edge (u, v) costs deg(u) + deg(v) comparisons to merge.
        from ..util import expand_segments

        idx = expand_segments(starts, counts)
        dsts = und.col_idx[idx]
        srcs = np.repeat(nodes, counts)
        return int((deg[srcs] + deg[dsts]).sum())


class TriNodeIterator(_TriBase):
    """Node-iterator triangle counting."""

    name = "tri-nodeiter"
    variant = "node-iterator"
    description = "Each node merges adjacency lists with all its neighbours"

    def _build_program(self) -> Program:
        kernel = Kernel(
            "tri_node_step",
            IterationSpace.ALL_NODES,
            ops=[
                Load("adj", AccessPattern.COALESCED),
                NeighborLoop([Load("adj", AccessPattern.IRREGULAR)]),
            ],
        )
        return phased_program(self.name, [kernel], description=self.description)

    def kernel_step(self, kernel: str, state: Dict, graph: CSRGraph) -> StepResult:
        if kernel != "tri_node_step":
            raise self._unknown_kernel(kernel)
        und: CSRGraph = state["und"]
        state["count"] = _oriented_count(und)
        nodes = np.arange(und.n_nodes, dtype=np.int64)
        return StepResult(
            active_items=und.n_nodes,
            expanded_items=und.n_nodes,
            edges=self._merge_work(und, nodes),
            deg_hist=degree_histogram(und.out_degrees() ** 2),
            irregularity=access_irregularity(und.col_idx),
        )


class TriEdgeIterator(_TriBase):
    """Edge-iterator triangle counting."""

    name = "tri-edgeiter"
    variant = "edge-iterator"
    description = "One work item per edge; merges its endpoints' lists"

    def _build_program(self) -> Program:
        kernel = edge_kernel(
            "tri_edge_step",
            read_fields=["adj_u", "adj_v"],
            write_field="count",
            atomic=AtomicOp.ADD,
        )
        return phased_program(self.name, [kernel], description=self.description)

    def kernel_step(self, kernel: str, state: Dict, graph: CSRGraph) -> StepResult:
        if kernel != "tri_edge_step":
            raise self._unknown_kernel(kernel)
        und: CSRGraph = state["und"]
        state["count"] = _oriented_count(und)
        nodes = np.arange(und.n_nodes, dtype=np.int64)
        return StepResult(
            active_items=und.n_edges // 2,
            expanded_items=und.n_edges // 2,
            edges=self._merge_work(und, nodes),
            uncontended_rmws=und.n_edges // 2,
            irregularity=access_irregularity(und.col_idx),
        )


class TriHybrid(_TriBase):
    """Hybrid node/edge-iterator triangle counting (fastest variant)."""

    name = "tri-hybrid"
    variant = "hybrid"
    fastest_variant = True
    description = (
        "Node-iterator for light nodes; hub edges handled edge-centric"
    )

    def _build_program(self) -> Program:
        node_kernel = Kernel(
            "tri_light_step",
            IterationSpace.ALL_NODES,
            ops=[
                Load("adj", AccessPattern.COALESCED),
                NeighborLoop([Load("adj", AccessPattern.IRREGULAR)]),
            ],
        )
        hub_kernel = edge_kernel(
            "tri_hub_step",
            read_fields=["adj_u", "adj_v"],
            write_field="count",
            atomic=AtomicOp.ADD,
        )
        return phased_program(
            self.name, [node_kernel, hub_kernel], description=self.description
        )

    def kernel_step(self, kernel: str, state: Dict, graph: CSRGraph) -> StepResult:
        und: CSRGraph = state["und"]
        deg = und.out_degrees()
        threshold = max(8.0, float(np.sqrt(max(1, und.n_edges))))
        if kernel == "tri_light_step":
            state["count"] = _oriented_count(und)
            light = np.flatnonzero(deg <= threshold).astype(np.int64)
            return StepResult(
                active_items=und.n_nodes,
                expanded_items=int(light.size),
                edges=self._merge_work(und, light),
                deg_hist=degree_histogram(deg[light] ** 2),
                irregularity=access_irregularity(und.col_idx),
            )
        if kernel == "tri_hub_step":
            heavy = np.flatnonzero(deg > threshold).astype(np.int64)
            hub_edges = int(deg[heavy].sum())
            return StepResult(
                active_items=hub_edges,
                expanded_items=hub_edges,
                edges=self._merge_work(und, heavy),
                uncontended_rmws=hub_edges,
                irregularity=access_irregularity(und.col_idx),
            )
        raise self._unknown_kernel(kernel)
