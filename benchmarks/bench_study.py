#!/usr/bin/env python3
"""Benchmark the study sweep: scalar vs. vectorized vs. parallel.

Runs a reduced study (a few applications and chips, the full 96-way
configuration axis) three ways over the same precollected traces:

* ``scalar`` — the reference pricing path, one launch record at a time;
* ``batch``  — the vectorized engine (each trace priced under a whole
  chip's configuration block in one plan-axis pass of NumPy ops);
* ``batch --jobs N`` — the batch engine with one chip block per pool
  task of N worker processes.

All must produce the *identical* dataset (exact float equality); the
harness asserts this before reporting.

Every mode then measures the dataset *store* backends: the swept
dataset is saved as both checksummed JSON (``perf-dataset-v2``) and
binary columnar (``perf-dataset-v3``), and each is loaded in a fresh
subprocess — wall time, peak RSS, and coverage-touch cost — yielding
``columnar_load_speedup``, the floor bench_guard enforces.

``--scope 10x`` sweeps the full 17-application registry across all six
chips (~29k cells, ~10x the full scope) with the batch engine only
(the scalar reference would take minutes for no extra signal), plus a
``--jobs`` sweep of the same grid.  It is gated behind the explicit
flag so ``--quick`` and the tier-1 tests stay fast.

Results go to ``BENCH_study.json`` at the repository root.

Run:  PYTHONPATH=src python benchmarks/bench_study.py [--quick]
      PYTHONPATH=src python benchmarks/bench_study.py --scope 10x
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import subprocess
import sys
import tempfile
import time

from repro.apps import all_applications, get_application
from repro.chips import all_chips, get_chip
from repro.compiler import enumerate_configs, plan_cache
from repro.core.cells import CellTable
from repro.core.search import SEARCH_STRATEGIES
from repro.core.search_eval import replay_search
from repro.graphs.inputs import study_inputs
from repro.study import StudyConfig, collect_traces, run_study

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_DEFAULT_OUTPUT = os.path.join(_ROOT, "BENCH_study.json")

SCOPES = ("quick", "full", "10x")


def _reduced_config(scope: str) -> StudyConfig:
    """A study small enough to sweep repeatedly, large enough to matter."""
    if scope == "quick":
        apps = [get_application(a) for a in ("bfs-wl", "pr-topo")]
        chips = [get_chip(c) for c in ("GTX1080", "MALI")]
        scale = 0.1
    elif scope == "full":
        apps = [get_application(a) for a in ("bfs-wl", "sssp-nf", "pr-topo")]
        chips = [get_chip(c) for c in ("GTX1080", "R9", "MALI")]
        scale = 0.25
    else:  # 10x: the whole registry across every chip
        apps = all_applications()
        chips = all_chips()
        scale = 0.1
    return StudyConfig(
        apps=apps,
        inputs=study_inputs(scale=scale),
        chips=chips,
        configs=enumerate_configs(),
    )


_LOAD_SNIPPET = """\
import json, sys, time
from repro.study.dataset import PerfDataset
path = sys.argv[1]
started = time.perf_counter()
ds = PerfDataset.load(path)
n = ds.n_measurements
fraction = ds.coverage().fraction
elapsed = time.perf_counter() - started
with open("/proc/self/status") as status:
    hwm = next(line for line in status if line.startswith("VmHWM:"))
print(json.dumps({
    "load_seconds": elapsed,
    "n_measurements": n,
    "coverage_fraction": fraction,
    "max_rss_kb": int(hwm.split()[1]),
}))
"""


def _measure_load(path: str) -> dict:
    """Load ``path`` in a fresh interpreter; time + peak RSS.

    A subprocess isolates the measurement from this process's already-
    allocated heap.  Its peak RSS is Linux's ``VmHWM``, which belongs
    to the address space and starts over at ``exec``; ``ru_maxrss``
    would carry the forked bench process's high-water mark into the
    child.  So the number is what the load itself costs — the number
    that distinguishes an mmap from a full parse.
    """
    proc = subprocess.run(
        [sys.executable, "-c", _LOAD_SNIPPET, path],
        capture_output=True,
        text=True,
        check=True,
    )
    result = json.loads(proc.stdout)
    result["bytes"] = os.path.getsize(path)
    return result


def _measure_store(dataset) -> dict:
    """Save the dataset both ways; measure each backend's load."""
    with tempfile.TemporaryDirectory(prefix="repro-bench-store-") as tmp:
        json_path = os.path.join(tmp, "bench.json.gz")
        v3_path = os.path.join(tmp, "bench.v3")
        dataset.save(json_path)
        dataset.save(v3_path)
        json_load = _measure_load(json_path)
        v3_load = _measure_load(v3_path)
    assert json_load["n_measurements"] == v3_load["n_measurements"]
    assert json_load["coverage_fraction"] == v3_load["coverage_fraction"]
    speedup = json_load["load_seconds"] / v3_load["load_seconds"]
    return {
        "json": json_load,
        "v3": v3_load,
        "columnar_load_speedup": round(speedup, 2),
        "rss_ratio_v3_vs_json": round(
            v3_load["max_rss_kb"] / json_load["max_rss_kb"], 3
        ),
    }


def _time_sweep(config, traces, *, engine: str, jobs: int):
    """One timed pricing sweep over precollected traces."""
    plan_cache.clear()  # each sweep pays its own compilations
    for trace in traces.values():  # ... and its own SoA conversions
        trace.__dict__.pop("_arrays_cache", None)
    started = time.perf_counter()
    dataset = run_study(config, jobs=jobs, engine=engine, traces=traces)
    return dataset, time.perf_counter() - started


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true", help="smaller sweep for CI smoke runs"
    )
    parser.add_argument(
        "--scope",
        choices=SCOPES,
        default=None,
        help="sweep scope (default: full, or quick with --quick); 10x "
        "sweeps every app on every chip, batch engine only",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=min(4, multiprocessing.cpu_count()),
        help="worker processes for the parallel sweep",
    )
    parser.add_argument("--output", default=_DEFAULT_OUTPUT)
    args = parser.parse_args()

    scope = args.scope or ("quick" if args.quick else "full")
    config = _reduced_config(scope)
    n_points = (
        len(config.chips) * len(config.configs) * config.repetitions
    )
    print(
        f"reduced study: {len(config.apps)} apps x {len(config.inputs)} inputs "
        f"x {len(config.chips)} chips x {len(config.configs)} configs"
    )

    started = time.perf_counter()
    traces = collect_traces(config)
    trace_s = time.perf_counter() - started
    launches = sum(t.n_launches for t in traces.values())
    print(f"collected {len(traces)} traces ({launches} launches) in {trace_s:.2f}s")

    if scope == "10x":
        # The scalar reference would take minutes at this scope for no
        # extra signal; the batch serial sweep is the reference instead.
        batch_ds, batch_s = _time_sweep(
            config, traces, engine="batch", jobs=1
        )
        print(f"batch sweep:           {batch_s:8.3f}s")
        scalar_ds, scalar_s = batch_ds, None
        par_ds, par_s = _time_sweep(
            config, traces, engine="batch", jobs=args.jobs
        )
        print(f"batch --jobs {args.jobs}:        {par_s:8.3f}s")
    else:
        scalar_ds, scalar_s = _time_sweep(
            config, traces, engine="scalar", jobs=1
        )
        print(f"scalar sweep:          {scalar_s:8.3f}s")
        batch_ds, batch_s = _time_sweep(config, traces, engine="batch", jobs=1)
        print(
            f"batch sweep:           {batch_s:8.3f}s  "
            f"({scalar_s / batch_s:.1f}x)"
        )
        par_ds, par_s = _time_sweep(
            config, traces, engine="batch", jobs=args.jobs
        )
        print(
            f"batch --jobs {args.jobs}:        {par_s:8.3f}s  "
            f"({scalar_s / par_s:.1f}x)"
        )

    assert batch_ds == scalar_ds, "batch dataset differs from scalar reference"
    assert par_ds == scalar_ds, "parallel dataset differs from scalar reference"
    print(
        f"datasets identical across engines and job counts "
        f"({scalar_ds.n_measurements} measurements)"
    )

    # Store backends: the same dataset saved as JSON and columnar, each
    # loaded (and coverage-touched) in a fresh interpreter.
    store = _measure_store(batch_ds)
    print(
        f"store: json load {store['json']['load_seconds'] * 1000:8.1f}ms "
        f"({store['json']['bytes']} bytes, "
        f"{store['json']['max_rss_kb']} kB peak)"
    )
    print(
        f"store: v3 load   {store['v3']['load_seconds'] * 1000:8.1f}ms "
        f"({store['v3']['bytes']} bytes, "
        f"{store['v3']['max_rss_kb']} kB peak)  "
        f"{store['columnar_load_speedup']:.1f}x"
    )

    # Budgeted-search replay throughput over the freshly swept dataset
    # (the repro search / report-budget hot loop: propose/observe against
    # the dataset-as-oracle, no re-simulation).  The cell table is built
    # once per sweep, as budget_fractions does, outside the timed loop.
    # At 10x scope a fixed sample of tests keeps the replay phase
    # proportionate.
    budgets = (8, 32) if scope == "quick" else (8, 32, 96)
    search_tests = (
        scalar_ds.tests[:24] if scope == "10x" else scalar_ds.tests
    )
    if len(search_tests) < len(scalar_ds.tests):
        print(
            f"search: sampling {len(search_tests)}/{len(scalar_ds.tests)} "
            f"tests at 10x scope"
        )
    cells = CellTable(scalar_ds)
    search_started = time.perf_counter()
    replays = 0
    for test in search_tests:
        for name in sorted(SEARCH_STRATEGIES):
            for budget in budgets:
                replay_search(scalar_ds, cells, test, name, budget)
                replays += 1
    search_s = time.perf_counter() - search_started
    print(
        f"search replays:        {search_s:8.3f}s  "
        f"({replays / search_s:.0f} replays/s over {replays})"
    )

    payload = {
        "benchmark": "study-sweep",
        "quick": scope == "quick",
        "scope_mode": scope,
        "scope": {
            "apps": [a.name for a in config.apps],
            "inputs": list(config.inputs),
            "chips": [c.short_name for c in config.chips],
            "n_configs": len(config.configs),
            "repetitions": config.repetitions,
            "n_traces": len(traces),
            "n_launches": launches,
            "n_measurements": scalar_ds.n_measurements,
        },
        "trace_collection_s": round(trace_s, 4),
        "sweeps": {
            "batch": {
                "jobs": 1,
                "seconds": round(batch_s, 4),
            },
            "batch_parallel": {
                "jobs": args.jobs,
                "seconds": round(par_s, 4),
            },
        },
        "points_per_second": {
            "batch": round(n_points * len(traces) / batch_s, 1),
        },
        "study_rows_per_s": round(batch_ds.n_measurements / batch_s, 1),
        "store": store,
        "search": {
            "budgets": list(budgets),
            "replays": replays,
            "seconds": round(search_s, 4),
            "replays_per_s": round(replays / search_s, 1),
        },
        "identical_datasets": True,
    }
    if scalar_s is not None:
        payload["sweeps"]["scalar"] = {
            "jobs": 1,
            "seconds": round(scalar_s, 4),
        }
        payload["sweeps"]["batch"]["speedup_vs_scalar"] = round(
            scalar_s / batch_s, 2
        )
        payload["sweeps"]["batch_parallel"]["speedup_vs_scalar"] = round(
            scalar_s / par_s, 2
        )
        payload["points_per_second"]["scalar"] = round(
            n_points * len(traces) / scalar_s, 1
        )
    with open(args.output, "w") as f:
        json.dump(payload, f, indent=2)
        f.write("\n")
    print(f"wrote {args.output}")

    if scalar_s is not None:
        speedup = scalar_s / batch_s
        if speedup < 5.0:
            print(f"WARNING: batch speedup {speedup:.1f}x below the 5x target")
            # Only the full bench enforces the target; --quick stays a
            # correctness smoke test (tiny traces on noisy CI runners).
            return 0 if scope == "quick" else 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
