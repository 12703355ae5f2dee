"""``study``: one op is one seed's fresh pricing sweep through the store.

Set-up builds each op seed's inputs and collects their traces.  An op
then runs ``run_study(traces=..., jobs=2)``, saves the result as
``.v3``, loads it back and runs the full ``verify()`` walk.

The op's workers hand their rows back over the pool's pipes, not as
``store="v3"`` spill chunks: the spill path fsyncs one file per
(chip, configuration) shard, 384 per op, which ties the op's time to
the latency of the host's disk.  The traced run times the spill path
on its own and checks that it writes the same ``.v3`` bytes.
"""

from __future__ import annotations

import os
import statistics
import time

from common import (
    Outcome, Run, cold_caches, derive_seed, peak_rss_mb, percentile, sha256_file,
)

from repro.apps import get_application
from repro.chips import get_chip
from repro.compiler import compile_program, enumerate_configs
from repro.errors import ReproError
from repro.graphs.inputs import study_inputs
from repro.study import StudyConfig, collect_traces, run_study
from repro.study.dataset import PerfDataset

MIN_OPS = 3
#: Op seeds prepared by a traced run (each is priced untraced, then traced).
TRACED_OPS = 3


def study_config(scope, seed: int, chips) -> StudyConfig:
    """The benchmark scope on ``chips``, with ``seed``'s inputs."""
    return StudyConfig(
        apps=[get_application(a) for a in scope.apps],
        inputs=study_inputs(scale=scope.scale, seed=seed),
        chips=[get_chip(c) for c in chips],
        configs=enumerate_configs(),
    )


def build_traces(run: Run, seed: int):
    """An op's set-up: build the inputs, collect the traces."""
    config = study_config(run.scope, seed, run.scope.study_chips)
    with run.span("graphs.build"):
        for inp in config.inputs.values():
            inp.graph
    with run.span("runtime.trace"):
        traces = collect_traces(config)
    return config, traces


def _compile_pass(run: Run, config) -> int:
    """Compile every (program, chip, configuration) of the scope once."""
    plans = 0
    with run.span("compiler.compile"):
        for app in config.apps:
            program = app.program()
            for chip in config.chips:
                for cfg in config.configs:
                    try:
                        compile_program(program, chip, cfg)
                    except ReproError:
                        continue  # illegal on this chip: the sweep skips it too
                    plans += 1
    return plans


def _timed(run: Run, prepare, op) -> Outcome:
    """Set up and run op after op until ``run.seconds`` of op time.

    Each op's set-up runs just before it, so set-ups and ops sample the
    host over the same stretch of the run.  ``setup_s`` is the run's
    total set-up time over its number of set-ups.  Throughput is the
    median op's rate, so a stretch in which the host runs slow moves it
    only if it covers half the run; a failed or wrong op counts as
    lasting the whole window and doing no work.  A run has too few ops
    for a high percentile, so the tail is the upper quartile.
    """
    setup_times, latencies, oks, rates = [], [], [], []
    while len(latencies) < MIN_OPS or sum(latencies) < run.seconds:
        cold_caches()
        started = time.perf_counter()
        item = prepare(len(latencies))
        setup_times.append(time.perf_counter() - started)
        seconds, ok, done, _ = op(item)
        latencies.append(seconds)
        oks.append(ok)
        rates.append(done / seconds if ok else 0.0)
        run.log(f"op {len(latencies)}: set-up {setup_times[-1]:.3f} s, op {seconds:.3f} s")
    window = sum(latencies)
    charged = [s if ok else window for s, ok in zip(latencies, oks)]
    return Outcome(end_to_end={
        "setup_s": statistics.fmean(setup_times),
        "throughput_per_s": statistics.median(rates),
        "latency_p50_ms": statistics.median(charged) * 1000.0,
        "latency_tail_ms": percentile(charged, 75) * 1000.0,
        "peak_rss_mb": peak_rss_mb(),
    })


def _spill_pass(run: Run, items, digests, path: str) -> None:
    """Sweep each item through the ``store="v3"`` spill/merge path.

    The saved bytes must equal the op's, whose workers return rows.
    """
    for (seed, config, traces), digest in zip(items, digests):
        cold_caches()
        with run.span("store.spill_sweep"):
            dataset = run_study(config, traces=traces, jobs=2, store="v3")
            dataset.save(path)
        with run.span("bench.check"):
            if sha256_file(path) != digest:
                run.problem(f"seed {seed}: the spill path's .v3 bytes differ from the op's")
            os.remove(path)


def _traced(run: Run, prepare, op, path: str) -> Outcome:
    """Set up ``TRACED_OPS`` ops, run each untraced, then each traced.

    The untraced reference pass runs inside one ``trace.reference``
    span; both passes must give the same ``.v3`` digests.  A compile
    pass comes before the traced ops and a spill pass after them.
    """
    items = []
    for i in range(TRACED_OPS):
        cold_caches()
        items.append(prepare(i))
    with run.tracer.paused("trace.reference"):
        reference = [op(item) for item in items]
    run.counts.clear()
    plans = _compile_pass(run, items[0][1])
    traced = [op(item) for item in items]
    for item, ref, got in zip(items, reference, traced):
        if ref[3] != got[3]:
            run.problem(f"seed {item[0]}: the traced op's digest differs from the untraced one")
    _spill_pass(run, items, [r[3] for r in reference], path)
    sweep_s = run.tracer.self_times()["perfmodel.sweep"]
    return Outcome(per_layer=dict(run.counts, **{
        "runtime.launches": sum(
            t.n_launches for _, _, traces in items for t in traces.values()
        ),
        "compiler.plans": plans,
        "perfmodel.measurements_per_s": run.counts["study.measurements"] / sweep_s,
        "trace.overhead_frac": sum(r[0] for r in traced) / sum(r[0] for r in reference) - 1.0,
    }))


def run_workload(run: Run) -> Outcome:
    path = os.path.join(run.workdir, "study.v3")

    def prepare(i):
        seed = derive_seed(run.seed, "study", i)
        return (seed,) + build_traces(run, seed)

    def op(item):
        seed, config, traces = item
        cold_caches()
        for trace in traces.values():  # each op pays its own SoA conversion
            trace.__dict__.pop("_arrays_cache", None)

        def priced():
            with run.span("perfmodel.sweep"):
                dataset = run_study(config, traces=traces, jobs=2)
            with run.span("store.save"):
                dataset.save(path)
            with run.span("store.load"):
                loaded = PerfDataset.load(path)
            with run.span("store.verify"):
                loaded.verify()
            return loaded

        loaded, seconds = run.attempt(priced)
        if loaded is None:
            return seconds, False, 0, None
        with run.span("bench.check"):
            grid = len(traces) * len(config.chips) * len(config.configs)
            coverage = loaded.coverage()
            ok = coverage.present == grid and coverage.fraction == 1.0
            if not ok:
                run.problem(
                    f"study seed {seed}: {coverage.present} cells, grid {grid}, "
                    f"coverage {coverage.fraction}"
                )
            measurements = loaded.n_measurements
            loaded.close()
            run.count("study.measurements", measurements)
            run.count("store.bytes", os.path.getsize(path))
            sha = sha256_file(path)
            os.remove(path)
        run.note(f"study op seed={seed} sha256={sha}")
        return seconds, ok, measurements, sha

    return _traced(run, prepare, op, path) if run.trace else _timed(run, prepare, op)
