"""Maximal independent set: priority-based (Luby-style), two strategies.

Each node draws a fixed random priority; an undecided node joins the
set when its priority beats every undecided neighbour's, and its
neighbours are then removed.  With fixed priorities the resulting MIS
is *unique* (the lexicographically-first MIS in priority order), so
the parallel variants can be validated exactly against a sequential
greedy oracle.

* ``mis-topo`` — topology-driven rounds over all nodes;
* ``mis-wl``   — worklist of still-undecided nodes (fastest variant).
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from ..dsl.builder import fixpoint_program, relax_kernel, topology_kernel
from ..graphs.csr import CSRGraph
from ..ocl.memory import AtomicOp
from ..runtime.stats import StepResult, frontier_step_result
from ..runtime.worklist import Worklist
from ..util import stable_hash
from .base import Application, expand_frontier

__all__ = ["MISTopo", "MISWorklist", "mis_priorities"]

_UNDECIDED, _IN_SET, _REMOVED = 0, 1, 2


def mis_priorities(graph: CSRGraph) -> np.ndarray:
    """Deterministic per-node priorities shared by apps and oracle."""
    rng = np.random.default_rng(stable_hash("mis", graph.name, graph.n_nodes))
    return rng.permutation(graph.n_nodes).astype(np.int64)


def _mis_round(und: CSRGraph, status: np.ndarray, priority: np.ndarray,
               frontier: np.ndarray) -> np.ndarray:
    """One parallel MIS round over ``frontier``; returns new members."""
    srcs, dsts, _ = expand_frontier(und, frontier)
    alive_edge = status[dsts] == _UNDECIDED
    min_nb = np.full(und.n_nodes, np.iinfo(np.int64).max, dtype=np.int64)
    np.minimum.at(min_nb, srcs[alive_edge], priority[dsts[alive_edge]])
    winners = frontier[
        (status[frontier] == _UNDECIDED)
        & (priority[frontier] < min_nb[frontier])
    ]
    status[winners] = _IN_SET
    # Remove the winners' undecided neighbours.
    _, wdsts, _ = expand_frontier(und, winners)
    removed = wdsts[status[wdsts] == _UNDECIDED]
    status[removed] = _REMOVED
    return winners


class _MISBase(Application):
    problem = "MIS"

    def init_state(self, graph: CSRGraph, source: int) -> Dict:
        und = graph.undirected()
        return {
            "und": und,
            "status": np.full(graph.n_nodes, _UNDECIDED, dtype=np.int8),
            "priority": mis_priorities(graph),
            "worklist": Worklist(np.arange(graph.n_nodes, dtype=np.int64)),
        }

    def extract_result(self, state: Dict, graph: CSRGraph) -> np.ndarray:
        return (state["status"] == _IN_SET).astype(np.int64)

    def reference(self, graph: CSRGraph, source: int) -> np.ndarray:
        und = graph.undirected()
        priority = mis_priorities(graph)
        order = np.argsort(priority, kind="stable")
        in_set = np.zeros(graph.n_nodes, dtype=bool)
        blocked = np.zeros(graph.n_nodes, dtype=bool)
        for v in order:
            if not blocked[v]:
                in_set[v] = True
                blocked[und.neighbors(v)] = True
                blocked[v] = True
        return in_set.astype(np.int64)


class MISTopo(_MISBase):
    """Topology-driven priority MIS."""

    name = "mis-topo"
    variant = "topology-driven"
    description = "Priority MIS scanning all nodes per round"

    def _build_program(self):
        return fixpoint_program(
            self.name,
            [
                topology_kernel(
                    "mis_topo_step",
                    read_field="priority",
                    write_field="status",
                    atomic=AtomicOp.MIN,
                )
            ],
            convergence="flag",
            description=self.description,
        )

    def kernel_step(self, kernel: str, state: Dict, graph: CSRGraph) -> StepResult:
        if kernel != "mis_topo_step":
            raise self._unknown_kernel(kernel)
        und: CSRGraph = state["und"]
        status = state["status"]
        undecided = np.flatnonzero(status == _UNDECIDED).astype(np.int64)
        winners = _mis_round(und, status, state["priority"], undecided)
        srcs, dsts, _ = expand_frontier(und, undecided)
        remaining = int(np.count_nonzero(status == _UNDECIDED))
        return frontier_step_result(
            und,
            undecided,
            active_items=und.n_nodes,
            destinations=dsts,
            uncontended_rmws=int(winners.size),
            contended_rmws=1 if winners.size else 0,
            more_work=remaining > 0,
        )


class MISWorklist(_MISBase):
    """Worklist priority MIS (fastest variant)."""

    name = "mis-wl"
    variant = "worklist"
    fastest_variant = True
    description = "Priority MIS iterating only still-undecided nodes"

    def _build_program(self):
        return fixpoint_program(
            self.name,
            [relax_kernel("mis_wl_step", "status", AtomicOp.MIN)],
            convergence="worklist-empty",
            description=self.description,
        )

    def kernel_step(self, kernel: str, state: Dict, graph: CSRGraph) -> StepResult:
        if kernel != "mis_wl_step":
            raise self._unknown_kernel(kernel)
        und: CSRGraph = state["und"]
        status = state["status"]
        wl: Worklist = state["worklist"]
        frontier = wl.items()
        srcs, dsts, _ = expand_frontier(und, frontier)
        winners = _mis_round(und, status, state["priority"], frontier)
        still = frontier[status[frontier] == _UNDECIDED]
        wl.push(still)
        pushes = wl.swap()
        return frontier_step_result(
            und,
            frontier,
            destinations=dsts,
            pushes=pushes,
            uncontended_rmws=int(winners.size),
            more_work=not wl.is_empty,
        )
