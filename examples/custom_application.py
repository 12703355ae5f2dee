#!/usr/bin/env python3
"""Scenario: bring your own graph algorithm into the framework.

Implements k-core decomposition — an application *not* in the paper's
suite — against the public Application protocol: a DSL program for the
compiler, vectorised step functions for the executor, and an
independent oracle.  The new application immediately gets everything
the framework offers: functional validation, trace collection,
compilation under all 96 configurations, and per-chip pricing.

Run:  python examples/custom_application.py
"""

from typing import Dict

import numpy as np

from repro import BASELINE, OptConfig, compile_program, get_chip
from repro.apps.base import Application, expand_frontier, unique_nodes
from repro.dsl import fixpoint_program, relax_kernel
from repro.graphs import CSRGraph, rmat_graph
from repro.ocl import AtomicOp
from repro.perfmodel import estimate_runtime_us
from repro.runtime import Worklist, frontier_step_result
from repro.runtime.stats import StepResult


class KCore(Application):
    """Iterative k-core peeling: repeatedly remove nodes of degree < k."""

    name = "kcore-wl"
    problem = "KCORE"
    variant = "worklist"
    description = "Worklist peeling to the k-core of the undirected graph"

    def __init__(self, k: int = 3) -> None:
        super().__init__()
        self.k = k

    def _build_program(self):
        return fixpoint_program(
            self.name,
            [relax_kernel("peel", "degree", AtomicOp.ADD)],
            convergence="worklist-empty",
            description=self.description,
        )

    def init_state(self, graph: CSRGraph, source: int) -> Dict:
        und = graph.undirected()
        degree = und.out_degrees().copy()
        doomed = np.flatnonzero((degree > 0) & (degree < self.k))
        return {
            "und": und,
            "degree": degree,
            "alive": np.ones(graph.n_nodes, dtype=bool),
            "worklist": Worklist(doomed.astype(np.int64)),
        }

    def kernel_step(self, kernel: str, state: Dict, graph: CSRGraph) -> StepResult:
        if kernel != "peel":
            raise self._unknown_kernel(kernel)
        und: CSRGraph = state["und"]
        wl: Worklist = state["worklist"]
        frontier = wl.items()
        frontier = frontier[state["alive"][frontier]]
        state["alive"][frontier] = False
        if frontier.size:
            _, dsts, _ = expand_frontier(und, frontier)
            np.subtract.at(state["degree"], dsts, 1)
            alive_dsts = dsts[state["alive"][dsts]]
            newly_doomed = unique_nodes(
                alive_dsts[state["degree"][alive_dsts] < self.k], und.n_nodes
            )
        else:
            dsts = np.empty(0, dtype=np.int64)
            newly_doomed = np.empty(0, dtype=np.int64)
        wl.push(newly_doomed)
        pushes = wl.swap()
        return frontier_step_result(
            und,
            frontier,
            destinations=dsts,
            pushes=pushes,
            uncontended_rmws=int(dsts.size),
            more_work=not wl.is_empty,
        )

    def extract_result(self, state: Dict, graph: CSRGraph) -> np.ndarray:
        # A node is in the k-core iff it survived peeling with degree >= k.
        return (state["alive"] & (state["degree"] >= self.k)).astype(np.int64)

    def reference(self, graph: CSRGraph, source: int) -> np.ndarray:
        """Sequential peeling oracle."""
        und = graph.undirected()
        degree = und.out_degrees().copy()
        alive = np.ones(graph.n_nodes, dtype=bool)
        changed = True
        while changed:
            changed = False
            for v in range(graph.n_nodes):
                if alive[v] and 0 < degree[v] < self.k:
                    alive[v] = False
                    for u in und.neighbors(v):
                        degree[u] -= 1
                    changed = True
        return (alive & (degree >= self.k)).astype(np.int64)


def main() -> None:
    graph = rmat_graph(10, edge_factor=6, seed=11, name="demo-rmat")
    app = KCore(k=4)

    print(f"custom application: {app.name} (k={app.k}) on {graph}")
    print(f"oracle-correct: {app.validate(graph)}")

    result = app.run(graph)
    core_size = int(app.extract_result(result.state, graph).sum())
    print(
        f"4-core: {core_size}/{graph.n_nodes} nodes; peeled in "
        f"{result.trace.n_fixpoint_iterations} rounds\n"
    )

    print("pricing the new app across the study chips (baseline vs portable pick):")
    portable = OptConfig.from_names({"sg", "fg8", "oitergb"})
    for chip_name in ("GTX1080", "IRIS", "R9", "MALI"):
        chip = get_chip(chip_name)
        t_base = estimate_runtime_us(
            compile_program(app.program(), chip, BASELINE), result.trace
        )
        t_opt = estimate_runtime_us(
            compile_program(app.program(), chip, portable), result.trace
        )
        print(
            f"  {chip_name:8s} baseline {t_base/1000:6.2f}ms -> "
            f"portable {t_opt/1000:6.2f}ms ({t_base/t_opt:.2f}x)"
        )


if __name__ == "__main__":
    main()
