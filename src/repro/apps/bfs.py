"""Breadth-first search: four implementation strategies (Table VII).

* ``bfs-topo``   — topology-driven: every iteration scans all nodes and
  expands those on the current level (cheap per iteration bookkeeping,
  wasteful scans on high-diameter inputs);
* ``bfs-wl``     — data-driven worklist with atomic CAS visitation;
* ``bfs-wlc``    — worklist variant exploiting BFS's benign write race:
  plain stores plus a visited-bitmap filter instead of CAS;
* ``bfs-hybrid`` — switches between worklist and topology-driven sweeps
  on frontier density (the fastest variant).

All variants are level-synchronous and produce identical level arrays,
validated against the vectorised CPU BFS oracle.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from ..dsl.ast import IterationSpace, Kernel, Load, NeighborLoop, Program, Push, Store
from ..dsl.builder import fixpoint_program, relax_kernel, topology_kernel
from ..graphs.csr import CSRGraph
from ..graphs.properties import bfs_levels
from ..ocl.memory import AccessPattern, AtomicOp
from ..runtime.stats import StepResult, frontier_step_result
from ..runtime.worklist import Worklist
from .base import Application, expand_frontier, unique_nodes

__all__ = ["BFSTopo", "BFSWorklist", "BFSWorklistCautious", "BFSHybrid"]

_UNREACHED = -1


def _init_kernel(name: str = "bfs_init") -> Kernel:
    return Kernel(
        name,
        IterationSpace.ALL_NODES,
        ops=[Store("level", AccessPattern.COALESCED)],
    )


class _BFSBase(Application):
    """Shared state handling and result extraction for all variants."""

    problem = "BFS"

    def init_state(self, graph: CSRGraph, source: int) -> Dict:
        level = np.full(graph.n_nodes, _UNREACHED, dtype=np.int64)
        level[source] = 0
        return {
            "level": level,
            "current": 0,
            "frontier": np.array([source], dtype=np.int64),
            "worklist": Worklist([source]),
        }

    def extract_result(self, state: Dict, graph: CSRGraph) -> np.ndarray:
        return state["level"]

    def reference(self, graph: CSRGraph, source: int) -> np.ndarray:
        return bfs_levels(graph, source)

    def _init_step(self, state: Dict, graph: CSRGraph) -> StepResult:
        return StepResult(active_items=graph.n_nodes)

    def _expand_level(self, state: Dict, graph: CSRGraph):
        """Expand the current frontier; returns (frontier, dsts, new)."""
        frontier = state["frontier"]
        _, dsts, _ = expand_frontier(graph, frontier)
        level = state["level"]
        candidates = dsts[level[dsts] == _UNREACHED]
        new = unique_nodes(candidates, graph.n_nodes)
        level[new] = state["current"] + 1
        state["current"] += 1
        state["frontier"] = new
        return frontier, dsts, candidates, new


class BFSTopo(_BFSBase):
    """Topology-driven BFS."""

    name = "bfs-topo"
    variant = "topology-driven"
    description = "Level-synchronous BFS scanning all nodes per iteration"

    def _build_program(self) -> Program:
        return fixpoint_program(
            self.name,
            [
                topology_kernel(
                    "bfs_topo_step",
                    read_field="level",
                    write_field="level",
                    atomic=AtomicOp.MIN,
                )
            ],
            convergence="flag",
            init_kernel=_init_kernel(),
            description=self.description,
        )

    def kernel_step(self, kernel: str, state: Dict, graph: CSRGraph) -> StepResult:
        if kernel == "bfs_init":
            return self._init_step(state, graph)
        if kernel != "bfs_topo_step":
            raise self._unknown_kernel(kernel)
        frontier, dsts, candidates, new = self._expand_level(state, graph)
        return frontier_step_result(
            graph,
            frontier,
            active_items=graph.n_nodes,
            destinations=dsts,
            uncontended_rmws=int(candidates.size),
            contended_rmws=1 if new.size else 0,
            more_work=bool(new.size),
        )


class BFSWorklist(_BFSBase):
    """Data-driven BFS with CAS visitation."""

    name = "bfs-wl"
    variant = "worklist"
    description = "Worklist BFS; atomic CAS claims each discovered node"

    def _build_program(self) -> Program:
        return fixpoint_program(
            self.name,
            [relax_kernel("bfs_wl_step", "level", AtomicOp.CAS)],
            convergence="worklist-empty",
            init_kernel=_init_kernel(),
            description=self.description,
        )

    def kernel_step(self, kernel: str, state: Dict, graph: CSRGraph) -> StepResult:
        if kernel == "bfs_init":
            return self._init_step(state, graph)
        if kernel != "bfs_wl_step":
            raise self._unknown_kernel(kernel)
        wl: Worklist = state["worklist"]
        frontier = wl.items()
        state["frontier"] = frontier
        frontier_before = frontier
        frontier, dsts, candidates, new = self._expand_level(state, graph)
        wl.push(new)
        pushes = wl.swap()
        return frontier_step_result(
            graph,
            frontier_before,
            destinations=dsts,
            pushes=pushes,
            uncontended_rmws=int(candidates.size),
            more_work=not wl.is_empty,
        )


class BFSWorklistCautious(_BFSBase):
    """Worklist BFS exploiting the benign write race (no CAS)."""

    name = "bfs-wlc"
    variant = "worklist-racy"
    description = (
        "Worklist BFS; plain stores with a visited-bitmap filter "
        "instead of CAS (benign race)"
    )

    def _build_program(self) -> Program:
        kernel = Kernel(
            "bfs_wlc_step",
            IterationSpace.WORKLIST,
            ops=[
                Load("level", AccessPattern.COALESCED),
                NeighborLoop(
                    [
                        Load("visited", AccessPattern.IRREGULAR),
                        Store("level", AccessPattern.IRREGULAR),
                        Push(),
                    ]
                ),
            ],
        )
        return fixpoint_program(
            self.name,
            [kernel],
            convergence="worklist-empty",
            init_kernel=_init_kernel(),
            description=self.description,
        )

    def kernel_step(self, kernel: str, state: Dict, graph: CSRGraph) -> StepResult:
        if kernel == "bfs_init":
            return self._init_step(state, graph)
        if kernel != "bfs_wlc_step":
            raise self._unknown_kernel(kernel)
        wl: Worklist = state["worklist"]
        frontier_before = wl.items()
        state["frontier"] = frontier_before
        frontier, dsts, _, new = self._expand_level(state, graph)
        wl.push(new)
        pushes = wl.swap()
        return frontier_step_result(
            graph,
            frontier_before,
            destinations=dsts,
            pushes=pushes,
            uncontended_rmws=0,
            more_work=not wl.is_empty,
        )


class BFSHybrid(_BFSBase):
    """Frontier-density hybrid of worklist and topology-driven sweeps."""

    name = "bfs-hybrid"
    variant = "hybrid"
    fastest_variant = True
    description = (
        "Worklist BFS that falls back to topology-driven sweeps when "
        "the frontier exceeds 5% of the nodes"
    )

    #: Frontier density above which a topology sweep is cheaper.
    DENSE_THRESHOLD = 0.05

    def _build_program(self) -> Program:
        return fixpoint_program(
            self.name,
            [relax_kernel("bfs_hybrid_step", "level", AtomicOp.CAS)],
            convergence="worklist-empty",
            init_kernel=_init_kernel(),
            description=self.description,
        )

    def kernel_step(self, kernel: str, state: Dict, graph: CSRGraph) -> StepResult:
        if kernel == "bfs_init":
            return self._init_step(state, graph)
        if kernel != "bfs_hybrid_step":
            raise self._unknown_kernel(kernel)
        wl: Worklist = state["worklist"]
        frontier_before = wl.items()
        state["frontier"] = frontier_before
        dense = frontier_before.size > self.DENSE_THRESHOLD * graph.n_nodes
        frontier, dsts, candidates, new = self._expand_level(state, graph)
        pushes = 0
        if not dense:
            wl.push(new)
            pushes = wl.swap()
        else:
            # Topology sweep: the next frontier is recomputed by
            # scanning levels, not pushed through the worklist.
            wl.push(new)
            wl.swap()
            pushes = 0
        return frontier_step_result(
            graph,
            frontier_before,
            active_items=graph.n_nodes if dense else None,
            destinations=dsts,
            pushes=pushes,
            uncontended_rmws=int(candidates.size),
            more_work=not wl.is_empty,
        )
