#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload {study,serve} --seed N \\
        --seconds S --trace {0,1} [--scope {full,tiny}]

Run it from the root of a checkout: it imports the program from
``src/`` there and keeps its scratch files under ``.perfbench/``.  With
``--trace 0`` the last stdout line carries every end-to-end metric of
``BENCHMARK.json``; with ``--trace 1`` every per-layer metric, taken
from spans the benchmark records around each public call.  Layers a
workload never reaches report 0.  ``perfbench/README.md`` describes
the workloads and which end-to-end metric each layer should move.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import shutil
import signal
import statistics
import sys
import tempfile

# Pinned before numpy loads; server and pool children inherit them.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

from common import ROOT, SCOPES, Run, calibrate  # noqa: E402
from spans import Tracer  # noqa: E402

WORKLOADS = ("study", "serve")


def _import_program() -> bool:
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        return False
    sys.path.insert(0, src)
    import repro

    return os.path.dirname(os.path.abspath(repro.__file__)) == os.path.join(src, "repro")


def _layer_metrics(run: Run, outcome, names, calib) -> dict:
    """Per-layer values: span self times, the outcome's counts, the trace totals."""
    tracer = run.tracer
    values = {f"{name}_s": seconds for name, seconds in tracer.self_times().items()}
    for found in tracer.problems():
        run.problem(found)
    wall, unaccounted = tracer.wall(), tracer.unaccounted()
    values.update(outcome.per_layer)
    values["trace.wall_s"] = wall
    values["trace.unaccounted_s"] = unaccounted
    values["host.calib_ops_per_s"] = statistics.fmean(calib)
    unknown = sorted(set(values) - set(names))
    if unknown:
        raise RuntimeError(f"values without a per-layer metric: {unknown}")
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scope", choices=sorted(SCOPES), default="full")
    args = parser.parse_args(argv)
    # A SIGTERM unwinds like an error, so the server and the sweep's
    # pool are stopped and waited for on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if not _import_program():
        print(f"perfbench: no importable repro package under {ROOT}/src",
              file=sys.stderr)
        return 2
    workload = importlib.import_module(f"wl_{args.workload}")
    scope = SCOPES[args.scope]

    scratch = os.path.join(ROOT, ".perfbench")
    workdir = os.path.join(scratch, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    os.environ["TMPDIR"] = workdir  # the program's temp files stay in the checkout
    tempfile.tempdir = workdir
    try:
        calib = [calibrate(scope.calib_loops)]
        run = Run(args.seed, args.seconds, bool(args.trace), scope, workdir,
                  Tracer(bool(args.trace)))
        outcome = workload.run_workload(run)
        run.tracer.finish()
        calib.append(calibrate(scope.calib_loops))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    run.note(f"host.calib_ops_per_s before={calib[0]:.0f} after={calib[1]:.0f}")

    if args.trace:
        names = [m["name"] for m in spec["per_layer"]]
        values = _layer_metrics(run, outcome, names, calib)
        trace_path = os.path.join(scratch, f"trace-{args.workload}-{args.seed}.json")
        run.tracer.write(trace_path)
        run.note(f"spans written to {os.path.relpath(trace_path, ROOT)}")
        metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
                   for m in spec["per_layer"]}
    else:
        missing = [m["name"] for m in spec["end_to_end"]
                   if m["name"] not in outcome.end_to_end]
        if missing:
            raise RuntimeError(f"end-to-end metrics not measured: {missing}")
        metrics = {m["name"]: {"value": outcome.end_to_end[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    correct = not run.problems
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
