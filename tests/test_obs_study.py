"""Metrics-correctness tests: the study's counters must reconcile.

The invariant under test everywhere: for any single run,

    study.shards.priced + study.shards.skipped_checkpoint
        == study.shards.total

with no double counting — across fresh runs, parallel runs, resumed
runs and fault-injected runs — and a parallel run's merged RunReport
must agree with a serial run's on every placement-independent total.
"""

from __future__ import annotations

import os

import pytest

from repro import Recorder, RunReport, StudyConfig, run_study
from repro.apps import get_application
from repro.chips import get_chip
from repro.compiler import enumerate_configs
from repro.compiler.pipeline import plan_cache
from repro.faults import FaultPlan
from repro.graphs.inputs import StudyInput
from repro.graphs import rmat_graph
from repro.study.checkpoint import StudyCheckpoint
from repro.study.runner import collect_traces


@pytest.fixture(scope="module")
def small_config() -> StudyConfig:
    rmat_a = rmat_graph(7, edge_factor=8, seed=9, name="obs-rmat-a")
    rmat_b = rmat_graph(7, edge_factor=8, seed=11, name="obs-rmat-b")
    return StudyConfig(
        apps=[get_application("bfs-topo"), get_application("pr-topo")],
        inputs={
            "obs-rmat-a": StudyInput(
                name="obs-rmat-a",
                input_class="social",
                description="obs test input a",
                _builder=lambda: rmat_a,
            ),
            "obs-rmat-b": StudyInput(
                name="obs-rmat-b",
                input_class="social",
                description="obs test input b",
                _builder=lambda: rmat_b,
            ),
        },
        chips=[get_chip("GTX1080"), get_chip("MALI")],
        configs=enumerate_configs()[:6],
        repetitions=2,
    )


@pytest.fixture(scope="module")
def small_traces(small_config):
    return collect_traces(small_config)


@pytest.fixture(autouse=True)
def _fresh_process_caches():
    """Clear the process-global caches so each run's cache-delta
    counters start from a clean slate (mirrors bench_study)."""
    plan_cache.clear()
    yield


def _grid_size(config: StudyConfig) -> int:
    return len(config.chips) * len(config.configs)


def _reconciles(rec: Recorder, config: StudyConfig) -> None:
    report = RunReport.from_recorder(rec)
    priced = report.counter("study.shards.priced")
    skipped = report.counter("study.shards.skipped_checkpoint")
    assert priced + skipped == report.gauges["study.shards.total"]
    assert report.gauges["study.shards.total"] == _grid_size(config)


def test_fresh_serial_run_reconciles(small_config, small_traces):
    rec = Recorder(clock=lambda: 0.0)
    run_study(small_config, traces=small_traces, jobs=1, recorder=rec)
    _reconciles(rec, small_config)
    assert rec.counter_value("study.shards.priced") == _grid_size(small_config)
    assert rec.counter_value("study.shards.skipped_checkpoint") == 0
    # One span per block (one chip's shards), whose shards cover the grid.
    block_spans = [s for s in rec.spans if s.name == "study.price_block"]
    assert len(block_spans) == len(small_config.chips)
    assert sum(s.attrs["shards"] for s in block_spans) == _grid_size(
        small_config
    )
    chips = {s.attrs["chip"] for s in block_spans}
    assert chips == {c.short_name for c in small_config.chips}
    # The pricing compiles each (chip, config) plan once, then hits.
    misses = rec.counter_value("compiler.plan_cache.misses")
    hits = rec.counter_value("compiler.plan_cache.hits")
    assert misses == _grid_size(small_config) * len(small_config.apps)
    assert hits > 0


def test_parallel_totals_match_serial(small_config, small_traces):
    serial = Recorder(clock=lambda: 0.0)
    ds1 = run_study(small_config, traces=small_traces, jobs=1, recorder=serial)

    plan_cache.clear()
    parallel = Recorder(clock=lambda: 0.0)
    ds2 = run_study(
        small_config, traces=small_traces, jobs=2, recorder=parallel
    )

    assert ds1 == ds2  # datasets identical regardless of job count
    _reconciles(parallel, small_config)
    for name in (
        "study.shards.priced",
        "study.shards.skipped_checkpoint",
        "study.shards.retried",
        "study.pool.rebuilds",
    ):
        assert parallel.counter_value(name) == serial.counter_value(name), name
    # Cache hit/miss *splits* depend on process placement (workers may
    # inherit warm caches under fork), but every lookup happens exactly
    # once per shard regardless, so the totals are placement-independent.
    prefix = "compiler.plan_cache"
    assert (
        parallel.counter_value(f"{prefix}.hits")
        + parallel.counter_value(f"{prefix}.misses")
    ) == (
        serial.counter_value(f"{prefix}.hits")
        + serial.counter_value(f"{prefix}.misses")
    ), prefix
    # Worker spans survive the process boundary into the merged report.
    block_spans = [s for s in parallel.spans if s.name == "study.price_block"]
    assert sum(s.attrs["shards"] for s in block_spans) == _grid_size(
        small_config
    )


@pytest.mark.parametrize("jobs", [1, 2])
def test_interrupted_then_resumed_run_reconciles(
    small_config, small_traces, tmp_path, jobs
):
    ckpt_dir = str(tmp_path / "ckpt")
    faults = FaultPlan(str(tmp_path / "faults"))
    faults.arm("interrupt", "shard-0-3")

    first = Recorder(clock=lambda: 0.0)
    with pytest.raises(KeyboardInterrupt):
        run_study(
            small_config,
            traces=small_traces,
            jobs=jobs,
            checkpoint=ckpt_dir,
            recorder=first,
            faults=faults,
        )
    interrupted_priced = first.counter_value("study.shards.priced")
    # (With jobs=2 the armed shard can in principle finish last, so the
    # upper bound is inclusive.)
    assert 0 < interrupted_priced <= _grid_size(small_config)

    # The metrics sidecar persisted alongside the shards.
    segments = StudyCheckpoint(ckpt_dir).load_metrics()
    assert segments
    assert (
        segments[-1]["counters"]["study.shards.priced"] == interrupted_priced
    )

    plan_cache.clear()
    second = Recorder(clock=lambda: 0.0)
    run_study(
        small_config,
        traces=small_traces,
        jobs=jobs,
        checkpoint=ckpt_dir,
        resume=True,
        recorder=second,
    )
    _reconciles(second, small_config)
    report = RunReport.from_recorder(second)
    # This run skipped exactly what the interrupted run priced...
    assert (
        report.counter("study.shards.skipped_checkpoint")
        == interrupted_priced
    )
    # ...and the merged view over both runs covers the grid exactly once.
    assert report.prior
    assert (
        report.total_counter("study.shards.priced")
        == _grid_size(small_config)
    )


def test_fault_injected_retries_are_counted(
    small_config, small_traces, tmp_path
):
    faults = FaultPlan(str(tmp_path / "faults"))
    faults.arm("error", "shard-0-1")
    faults.arm("error", "shard-1-2")
    rec = Recorder(clock=lambda: 0.0)
    ds = run_study(
        small_config,
        traces=small_traces,
        jobs=2,
        recorder=rec,
        faults=faults,
        backoff=0.0,
    )
    _reconciles(rec, small_config)
    assert rec.counter_value("study.shards.priced") == _grid_size(small_config)
    assert rec.counter_value("study.shards.retried") == 2
    assert len(ds) > 0


def test_disabled_recorder_records_nothing(small_config, small_traces):
    from repro.obs import NULL_RECORDER

    ds = run_study(small_config, traces=small_traces, jobs=1)
    assert NULL_RECORDER.snapshot() == {
        "counters": {},
        "gauges": {},
        "histograms": {},
        "spans": [],
    }
    assert len(ds) > 0


def test_analysis_counters_flow_through_run_report(mini_dataset):
    from repro.core.algorithm1 import Analysis

    rec = Recorder(clock=lambda: 0.0)
    analysis = Analysis(mini_dataset, recorder=rec)
    analysis.specialise(("chip",))
    report = RunReport.from_recorder(rec)
    assert report.counter("analysis.mwu.tests") > 0
    assert (
        report.counter("analysis.filter.significant")
        + report.counter("analysis.filter.insignificant")
        > 0
    )
    assert report.counter("analysis.welch_intervals") == 0  # not scoped
    spans = [s for s in rec.spans if s.name == "analysis.specialise"]
    assert len(spans) == 1
    assert spans[0].attrs["level"] == "chip"
    assert spans[0].attrs["partitions"] == 3  # one per chip
    assert spans[0].attrs["mwu_tests"] == rec.counter_value(
        "analysis.mwu.tests"
    )


def test_welch_intervals_counted_under_recording_scope(mini_dataset):
    from repro import obs
    from repro.core.algorithm1 import Analysis

    rec = Recorder(clock=lambda: 0.0)
    with obs.recording(rec):
        Analysis(mini_dataset).specialise(())
    assert rec.counter_value("analysis.welch_intervals") > 0
    assert rec.counter_value("analysis.mwu.tests") > 0
