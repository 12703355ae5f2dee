"""Minimum spanning tree/forest: Borůvka's algorithm (Table VII).

Classic GPU Borůvka over the undirected weighted view of the input:
each round, every component selects its cheapest outgoing edge
(edge-centric atomic-min kernel), components are grafted along the
selected edges, and labels are flattened by pointer jumping.  Ties are
broken by canonical edge id, making effective weights distinct — the
standard trick that guarantees Borůvka forms no cycles.

Validated by total forest weight against a sequential Kruskal oracle
(the minimum weight is unique even when the MST itself is not).
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from ..dsl.ast import IterationSpace, Kernel, Load, Store
from ..dsl.builder import edge_kernel, phased_program
from ..graphs.csr import CSRGraph
from ..ocl.memory import AccessPattern, AtomicOp
from ..runtime.stats import StepResult, access_irregularity
from .base import Application, unique_nodes

__all__ = ["MSTBoruvka", "kruskal_weight"]


def kruskal_weight(und: CSRGraph) -> float:
    """Sequential Kruskal union-find oracle: total forest weight."""
    srcs = und.edge_sources()
    dsts = und.col_idx
    weights = und.weights
    keep = srcs < dsts  # one direction per undirected edge
    srcs, dsts, weights = srcs[keep], dsts[keep], weights[keep]
    order = np.argsort(weights, kind="stable")

    parent = np.arange(und.n_nodes, dtype=np.int64)

    def find(x: int) -> int:
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    total = 0.0
    for e in order:
        ru, rv = find(int(srcs[e])), find(int(dsts[e]))
        if ru != rv:
            parent[ru] = rv
            total += float(weights[e])
    return total


class MSTBoruvka(Application):
    """Borůvka MST with edge-centric minimum-edge selection."""

    name = "mst-boruvka"
    problem = "MST"
    variant = "boruvka"
    fastest_variant = True
    requires_weights = True
    description = "Borůvka rounds: min-edge per component, graft, compress"

    def _build_program(self):
        find_min = edge_kernel(
            "mst_find_min",
            read_fields=["component", "weight"],
            write_field="min_edge",
            atomic=AtomicOp.MIN,
        )
        union = Kernel(
            "mst_union",
            IterationSpace.ALL_NODES,
            ops=[
                Load("min_edge", AccessPattern.COALESCED),
                Store("parent", AccessPattern.IRREGULAR),
            ],
        )
        compress = Kernel(
            "mst_compress",
            IterationSpace.ALL_NODES,
            ops=[
                Load("parent", AccessPattern.IRREGULAR),
                Store("component", AccessPattern.COALESCED),
            ],
        )
        return phased_program(
            self.name,
            [([find_min, union, compress], "flag")],
            description=self.description,
        )

    def init_state(self, graph: CSRGraph, source: int) -> Dict:
        und = graph.symmetrized()
        srcs = und.edge_sources()
        dsts = und.col_idx
        canon = np.minimum(srcs, dsts) * und.n_nodes + np.maximum(srcs, dsts)
        return {
            "und": und,
            "srcs": srcs,
            "dsts": dsts,
            "canon": canon,
            # Edges cheapest first by (weight, canonical id): the
            # tie-broken effective weight, ranked once for all rounds.
            "by_rank": np.lexsort((canon, und.weights)),
            "component": np.arange(und.n_nodes, dtype=np.int64),
            "chosen": None,  # per-round selected edge index per component
            "mst_weight": 0.0,
            "round_active_edges": int(und.n_edges),
        }

    # -- kernel steps -------------------------------------------------------

    def kernel_step(self, kernel: str, state: Dict, graph: CSRGraph) -> StepResult:
        if kernel == "mst_find_min":
            return self._find_min(state)
        if kernel == "mst_union":
            return self._union(state)
        if kernel == "mst_compress":
            return self._compress(state)
        raise self._unknown_kernel(kernel)

    def _find_min(self, state: Dict) -> StepResult:
        und: CSRGraph = state["und"]
        comp = state["component"]
        comp_s = comp[state["srcs"]]
        comp_d = comp[state["dsts"]]
        by_rank = state["by_rank"]
        external = by_rank[(comp_s != comp_d)[by_rank]]  # cheapest first
        state["round_active_edges"] = int(external.size)
        if external.size == 0:
            state["chosen"] = np.empty(0, dtype=np.int64)
            return StepResult(active_items=und.n_edges, edges=und.n_edges)
        # A stable sort by component keeps each component's edges in
        # rank order, so its first edge is its cheapest.
        ordered = external[np.argsort(comp_s[external], kind="stable")]
        first = np.ones(ordered.size, dtype=bool)
        first[1:] = comp_s[ordered[1:]] != comp_s[ordered[:-1]]
        state["chosen"] = ordered[first]
        return StepResult(
            active_items=und.n_edges,
            expanded_items=und.n_edges,
            edges=und.n_edges,
            uncontended_rmws=int(external.size),
            irregularity=access_irregularity(comp_d),
            more_work=True,
        )

    def _union(self, state: Dict) -> StepResult:
        und: CSRGraph = state["und"]
        comp = state["component"]
        chosen = state["chosen"]
        n_comps = int(unique_nodes(comp, und.n_nodes).size)
        if chosen is None or chosen.size == 0:
            return StepResult(active_items=n_comps, more_work=False)
        comp_s = comp[state["srcs"][chosen]]
        comp_d = comp[state["dsts"][chosen]]
        parent = np.arange(und.n_nodes, dtype=np.int64)
        parent[comp_s] = comp_d
        # Break mutual-graft 2-cycles: keep the smaller label as root.
        two_cycle = parent[parent[comp_s]] == comp_s
        roots = comp_s[two_cycle & (comp_s < parent[comp_s])]
        parent[roots] = roots
        state["parent"] = parent
        # Accumulate each selected undirected edge once.
        order = np.argsort(state["canon"][chosen], kind="stable")
        chosen_sorted = chosen[order]
        canon_sorted = state["canon"][chosen_sorted]
        keep_first = np.ones(canon_sorted.size, dtype=bool)
        keep_first[1:] = canon_sorted[1:] != canon_sorted[:-1]
        state["mst_weight"] += float(und.weights[chosen_sorted[keep_first]].sum())
        return StepResult(
            active_items=n_comps,
            uncontended_rmws=int(chosen.size),
            more_work=True,
        )

    def _compress(self, state: Dict) -> StepResult:
        und: CSRGraph = state["und"]
        comp = state["component"]
        parent = state.get("parent")
        if parent is None:
            return StepResult(active_items=und.n_nodes, more_work=False)
        # Pointer jumping to a fixed point.
        hops = 0
        while True:
            nxt = parent[parent]
            hops += 1
            if np.array_equal(nxt, parent):
                break
            parent = nxt
        state["component"] = parent[comp]
        state["parent"] = None
        more = state["round_active_edges"] > 0
        return StepResult(
            active_items=und.n_nodes,
            edges=und.n_nodes * hops,
            irregularity=access_irregularity(parent[comp]),
            more_work=more,
        )

    # -- results -----------------------------------------------------------

    def extract_result(self, state: Dict, graph: CSRGraph) -> np.ndarray:
        return np.array([state["mst_weight"]], dtype=np.float64)

    def reference(self, graph: CSRGraph, source: int) -> np.ndarray:
        return np.array([kruskal_weight(graph.symmetrized())], dtype=np.float64)

    def results_match(self, computed: np.ndarray, expected: np.ndarray) -> bool:
        return bool(np.allclose(computed, expected, rtol=1e-9))
