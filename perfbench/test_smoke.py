"""Smoke test of the benchmark at a tiny scope (one app, one chip).

    python -m pytest perfbench/test_smoke.py

Each workload runs for about a second in both modes.  The test checks
that every end-to-end and per-layer metric of ``BENCHMARK.json`` is
printed with its unit, that the correctness checks pass, that each
workload's own layers report non-zero figures, and that the traced
run's spans nest (so their self times account for the wall time).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)

#: Per-layer metrics each workload must measure as non-zero.
EXERCISED = {
    "study": ["graphs.build_s", "runtime.trace_s", "runtime.launches",
              "compiler.compile_s", "compiler.plans", "perfmodel.sweep_s",
              "study.measurements", "perfmodel.measurements_per_s",
              "store.save_s", "store.bytes", "store.load_s", "store.verify_s",
              "store.spill_sweep_s"],
    "serve": ["serve.setup.study_s", "serve.setup.index_s", "serve.setup.start_s",
              "serve.setup.warm_s", "serve.load_s", "serve.requests",
              "serve.strategy.p50_ms", "serve.predict.p99_ms",
              "serve.answers.precompiled", "serve.predict.batches",
              "perfmodel.price_many_s",
              # the analysis pass over the set-up's dataset
              "store.load_s", "audit.audit_s", "core.algorithm1_s",
              "core.partitions", "core.portfolio_s", "core.portfolio_curves",
              "core.search_s", "core.search_replays", "index.compile_s",
              "index.answers"],
}


def _run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--scope", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_end_to_end_metrics(workload):
    result = _run(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    got = result["metrics"]
    assert {name: got[name]["unit"] for name in got} == want
    assert all(got[name]["value"] > 0 for name in want)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_per_layer_metrics(workload):
    result = _run(workload, 1)
    assert result["correct"] is True and result["failed"] == 0
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    got = result["metrics"]
    assert {name: got[name]["unit"] for name in got} == want
    values = {name: got[name]["value"] for name in got}
    for name in EXERCISED[workload] + ["trace.wall_s", "host.calib_ops_per_s"]:
        assert values[name] > 0, name
    assert values["trace.unaccounted_s"] >= 0
    _assert_spans_nest(os.path.join(ROOT, ".perfbench", f"trace-{workload}-3.json"))


def _assert_spans_nest(path: str) -> None:
    """Every span ended inside its parent; children never outlast it."""
    with open(path) as f:
        spans = json.load(f)["spans"]
    covered = {}
    for span in spans:
        assert span["end"] is not None and span["end"] >= span["start"], span
        parent = span["parent"]
        if parent is None:
            continue
        outer = spans[parent]
        assert outer["start"] <= span["start"] and span["end"] <= outer["end"], span
        covered[parent] = covered.get(parent, 0.0) + span["end"] - span["start"]
    for parent, seconds in covered.items():
        assert seconds <= spans[parent]["end"] - spans[parent]["start"], spans[parent]
    roots = sorted((s["start"], s["end"]) for s in spans if s["parent"] is None)
    for (_, end), (start, _) in zip(roots, roots[1:]):
        assert end <= start, "root spans overlap"
