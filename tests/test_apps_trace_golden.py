"""Golden digest of every study application's workload trace.

The performance model prices traces, so any change to how an
application computes its frontiers, its undirected view or its node
sets must leave every :class:`~repro.runtime.trace.LaunchRecord`
exactly as it was.  This test traces all 17 applications on the three
study inputs at a small scale, plus one unweighted multigraph with
self-loops and duplicate edges, and compares a sha256 over the
launches with a digest committed here.

Records are serialised with :func:`dataclasses.astuple` and JSON, whose
float formatting (shortest round-trip ``repr``) is the same on every
supported Python, so the digest does not depend on the numpy release.
"""

import dataclasses
import hashlib
import json

import numpy as np

from repro.graphs import CSRGraph
from repro.graphs.inputs import StudyInput, study_inputs
from repro.study import StudyConfig
from repro.study.runner import collect_traces

#: sha256 of the traces below; only a deliberate change to the
#: applications' work accounting may update it.
TRACE_DIGEST = (
    "0c9409cb986ff668b18bb8549f07c0e8de04add19c8138ad7556ad4d589161f4"
)


def _unweighted_multigraph() -> CSRGraph:
    rng = np.random.default_rng(11)
    n = 300
    edges = rng.integers(0, n, size=(1500, 2))
    # Guarantee self-loops and duplicate edges whatever the draw.
    edges = np.concatenate([edges, [[5, 5], [7, 7]], edges[:40]])
    return CSRGraph.from_edges(n, edges, name="multi-unweighted")


def _inputs():
    inputs = study_inputs(scale=0.05, seed=7)
    inputs["multi-unweighted"] = StudyInput(
        name="multi-unweighted",
        input_class="random",
        description="Unweighted multigraph with self-loops and duplicates",
        _builder=_unweighted_multigraph,
    )
    return inputs


def trace_digest() -> str:
    traces = collect_traces(StudyConfig(inputs=_inputs()))
    h = hashlib.sha256()
    for (app, graph), trace in sorted(traces.items()):
        header = [app, graph, trace.program, trace.converged, trace.result_checksum]
        h.update(json.dumps(header).encode())
        for record in trace.launches:
            h.update(json.dumps(dataclasses.astuple(record)).encode())
    return h.hexdigest()


def test_every_application_trace_matches_golden():
    assert trace_digest() == TRACE_DIGEST
