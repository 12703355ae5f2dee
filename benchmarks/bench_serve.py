#!/usr/bin/env python3
"""Benchmark the strategy-advisor serving layer under closed-loop load.

Builds a strategy index from the committed mini dataset (no study run
needed), starts the asyncio server on a free port, and drives it with
``--concurrency`` closed-loop worker threads — each holding one
persistent keep-alive connection and issuing ``GET /v1/strategy``
queries back-to-back over a seeded cycle of the index's coordinates (a
mix of exact and degraded queries).  Reports p50/p99 latency and total
throughput to ``BENCH_serve.json`` at the repository root; the p99 is
a sustained-load SLO that ``bench_guard.py`` checks against the
``serve_p99_ms`` ceiling in ``bench_floor.json``.

With ``--workers N`` (N > 1) the bench instead launches the real
``python -m repro serve --workers N`` CLI as a subprocess, so the
measured path includes SO_REUSEPORT kernel load balancing across the
forked workers — the closest thing to production deployment this
repository can measure.

With ``--chaos`` the bench becomes a serve-path chaos harness: it
launches a fleet (at least 2 workers) with a deterministic fault
schedule armed — worker crashes mid-dispatch, stalled handlers, and a
corrupted hot-reload candidate — then drives load through the failures
while firing SIGHUP reloads at the parent.  Clients reconnect through
connection resets (a killed worker drops its connections; that is the
contract, not a failure) but every *received* response must be
well-formed: status 200/429/503 with a parseable JSON body.  The run
fails on any malformed response, on throughput under the committed
chaos floor, or when the merged ``--metrics`` run report does not
reconcile under ``repro doctor``'s run-report rules.

Run:  PYTHONPATH=src python benchmarks/bench_serve.py [--quick]
      PYTHONPATH=src python benchmarks/bench_serve.py --workers 2
      PYTHONPATH=src python benchmarks/bench_serve.py --chaos --quick
"""

from __future__ import annotations

import argparse
import asyncio
import http.client
import json
import os
import random
import signal
import subprocess
import sys
import tempfile
import threading
import time

from repro.faults import (
    FaultPlan,
    SERVE_HANDLER_SLOW,
    SERVE_RELOAD_CORRUPT,
    SERVE_WORKER_CRASH,
)
from repro.serve import StrategyServer, build_index
from repro.study.dataset import PerfDataset
from repro.study.doctor import diagnose_run_report

_HERE = os.path.dirname(os.path.abspath(__file__))
_ROOT = os.path.dirname(_HERE)
_DEFAULT_OUTPUT = os.path.join(_ROOT, "BENCH_serve.json")
_DEFAULT_CHAOS_OUTPUT = os.path.join(_ROOT, "BENCH_serve_chaos.json")
_MINI_DATASET = os.path.join(_ROOT, "tests", "goldens", "mini-dataset.json.gz")


def _query_cycle(dataset: PerfDataset, seed: int = 7):
    """A seeded, repeatable mix of strategy and portfolio queries."""
    rng = random.Random(seed)
    apps, inputs, chips = dataset.apps, dataset.graphs, dataset.chips
    queries = []
    for chip in chips:
        for app in apps:
            for inp in inputs:
                queries.append(f"/v1/strategy?chip={chip}&app={app}&input={inp}")
    for chip in chips:  # partial queries exercise shorter lattice walks
        queries.append(f"/v1/strategy?chip={chip}")
    for app in apps:
        queries.append(f"/v1/strategy?app={app}")
    # Unknown coordinates force full fallback walks to the global level.
    queries.append("/v1/strategy?chip=UNKNOWN&app=UNKNOWN&input=UNKNOWN")
    # Portfolio queries: pre-serialized defaults for every chip, the
    # explicit-k/target render path, and a degraded fallback walk.
    for chip in chips:
        queries.append(f"/v1/portfolio?chip={chip}&app={apps[0]}&input={inputs[0]}")
        queries.append(f"/v1/portfolio?chip={chip}&k=2")
    queries.append(f"/v1/portfolio?app={apps[0]}&target=0.99")
    queries.append("/v1/portfolio?chip=UNKNOWN&app=UNKNOWN")
    rng.shuffle(queries)
    return queries


def _worker(
    host: str,
    port: int,
    queries,
    n_requests: int,
    offset: int,
    latencies,
    errors,
) -> None:
    """One closed-loop client: a persistent connection, no think time."""
    conn = http.client.HTTPConnection(host, port, timeout=30)
    try:
        for i in range(n_requests):
            path = queries[(offset + i) % len(queries)]
            started = time.perf_counter()
            conn.request("GET", path)
            resp = conn.getresponse()
            body = resp.read()
            latencies.append((path, (time.perf_counter() - started) * 1000.0))
            if resp.status != 200 or not body:
                errors.append((path, resp.status))
    finally:
        conn.close()


#: Statuses a chaos client may legitimately receive: success, shed
#: (429 + Retry-After) and overload/breaker fast-fail (503).
_CHAOS_OK_STATUSES = frozenset({200, 429, 503})


def _chaos_worker(
    host: str,
    port: int,
    queries,
    n_requests: int,
    offset: int,
    latencies,
    malformed,
    resets,
) -> None:
    """A closed-loop client that survives worker kills.

    A crashed SO_REUSEPORT worker drops its connections — the client's
    contract is to reconnect and retry, so connection-level failures
    count as ``resets``, not errors.  What is *never* acceptable is a
    malformed received response: a status outside
    :data:`_CHAOS_OK_STATUSES`, or a 200 whose body is not valid JSON.
    """
    conn = http.client.HTTPConnection(host, port, timeout=30)
    i = 0
    while i < n_requests:
        path = queries[(offset + i) % len(queries)]
        started = time.perf_counter()
        try:
            conn.request("GET", path)
            resp = conn.getresponse()
            body = resp.read()
        except (http.client.HTTPException, OSError):
            resets.append(path)
            conn.close()
            conn = http.client.HTTPConnection(host, port, timeout=30)
            time.sleep(0.05)  # give the supervisor a beat to respawn
            continue
        latencies.append((path, (time.perf_counter() - started) * 1000.0))
        i += 1
        if resp.status not in _CHAOS_OK_STATUSES:
            malformed.append((path, resp.status, b"unexpected status"))
            continue
        try:
            json.loads(body)
        except (ValueError, UnicodeDecodeError):
            malformed.append((path, resp.status, body[:80]))
    conn.close()


def _percentile(sorted_values, q: float) -> float:
    if not sorted_values:
        return float("nan")
    idx = min(len(sorted_values) - 1, int(round(q * (len(sorted_values) - 1))))
    return sorted_values[idx]


class _InProcessServer:
    """Single-worker target: the asyncio server on a thread, no fork."""

    def __init__(self, index) -> None:
        self._loop = asyncio.new_event_loop()
        self._server = StrategyServer(index, predictor=None)
        self._loop.run_until_complete(self._server.start())
        self._runner = threading.Thread(
            target=self._loop.run_until_complete,
            args=(self._server.serve_until_stopped(),),
            daemon=True,
        )
        self._runner.start()
        self.host = self._server.host
        self.port = self._server.port

    def stop(self) -> None:
        self._loop.call_soon_threadsafe(self._server.request_shutdown)
        self._runner.join(timeout=30)
        self._loop.close()


class _SubprocessServer:
    """Multi-worker target: the real ``repro serve --workers N`` CLI."""

    def __init__(self, index, workers: int, extra_args=None) -> None:
        self._tmp = tempfile.TemporaryDirectory(prefix="bench-serve-")
        index_path = os.path.join(self._tmp.name, "index.json")
        index.save(index_path)
        self._proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve", index_path,
                "--port", "0", "--workers", str(workers), "--no-predict",
            ]
            + list(extra_args or []),
            cwd=_ROOT,
            env=dict(os.environ, PYTHONPATH=os.path.join(_ROOT, "src")),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        line = self._proc.stderr.readline()
        if "listening on http://" not in line:
            rest = self._proc.stderr.read()
            raise RuntimeError(f"server did not start: {line!r} {rest!r}")
        addr = line.split("http://", 1)[1].split()[0]
        self.host, port = addr.rsplit(":", 1)
        self.port = int(port)

    def signal(self, sig) -> None:
        self._proc.send_signal(sig)

    def stop(self) -> None:
        try:
            self._proc.send_signal(signal.SIGTERM)
            code = self._proc.wait(timeout=30)
            if code != 0:
                raise RuntimeError(
                    f"serve exited {code}: {self._proc.stderr.read()!r}"
                )
        finally:
            if self._proc.poll() is None:
                self._proc.kill()
                self._proc.wait()
            self._proc.stdout.close()
            self._proc.stderr.close()
            self._tmp.cleanup()


def _run_chaos(
    index, queries, concurrency: int, per_client: int, quick: bool,
    output: str,
) -> int:
    """The ``--chaos`` harness: load a fleet through a fault schedule."""
    with open(os.path.join(_HERE, "bench_floor.json")) as f:
        floors = json.load(f)
    floor = floors["serve_chaos_throughput_rps"]["quick" if quick else "full"]

    with tempfile.TemporaryDirectory(prefix="bench-chaos-") as tmp:
        spool = os.path.join(tmp, "faults")
        plan = FaultPlan(spool)
        # The deterministic failure schedule: two worker kills
        # mid-dispatch, four stalled handlers, and one corrupted
        # hot-reload candidate (the first SIGHUP's loser rolls back).
        plan.arm("crash", SERVE_WORKER_CRASH, count=2)
        plan.arm("slow", SERVE_HANDLER_SLOW, count=4, param=0.05)
        plan.arm("corrupt", SERVE_RELOAD_CORRUPT, count=1)
        report_path = os.path.join(tmp, "report.json")
        server = _SubprocessServer(
            index,
            workers=2,
            extra_args=[
                "--faults", spool,
                "--max-restarts", "10",
                "--restart-backoff", "0.1",
                "--heartbeat-interval", "0.5",
                "--metrics", report_path,
            ],
        )

        latencies: list = []
        malformed: list = []
        resets: list = []
        threads = [
            threading.Thread(
                target=_chaos_worker,
                args=(
                    server.host,
                    server.port,
                    queries,
                    per_client,
                    w * 17,
                    latencies,
                    malformed,
                    resets,
                ),
            )
            for w in range(concurrency)
        ]
        started = time.perf_counter()
        for t in threads:
            t.start()
        # Hot-reload the fleet twice while it is under fire: the first
        # SIGHUP spends the corrupt token (one worker validates the
        # garbled candidate, rejects it and keeps serving the old
        # index); the second reloads everywhere cleanly.
        time.sleep(0.75)
        server.signal(signal.SIGHUP)
        time.sleep(0.75)
        server.signal(signal.SIGHUP)
        for t in threads:
            t.join()
        elapsed = time.perf_counter() - started
        server.stop()  # raises unless the fleet exits 0

        diag = diagnose_run_report(report_path)
        print(diag.render())
        reconciled = diag.ok and not any(
            f.severity == "warning" for f in diag.findings
        )

    total = concurrency * per_client
    ordered = sorted(ms for _, ms in latencies)
    throughput = total / elapsed
    print(
        f"chaos: served {total} requests in {elapsed:.2f}s through "
        f"2 kills, 4 stalls and 2 reloads (1 corrupt): "
        f"{throughput:.0f} req/s (floor {floor:.0f}), "
        f"p99 {_percentile(ordered, 0.99):.2f}ms, "
        f"{len(resets)} connection resets, "
        f"{len(malformed)} malformed responses"
    )

    failed = False
    if malformed:
        print(f"FAIL: malformed responses, e.g. {malformed[:3]}")
        failed = True
    if throughput < floor:
        print(
            f"FAIL: chaos throughput {throughput:.0f} req/s fell below "
            f"the committed floor {floor:.0f} req/s — the fleet is not "
            f"healing fast enough (or shedding everything)"
        )
        failed = True
    if not reconciled:
        print(
            "FAIL: the merged run report does not reconcile under the "
            "doctor's run-report rules (a worker's final delta was "
            "dropped, or the merge regressed)"
        )
        failed = True

    payload = {
        "benchmark": "serve-chaos",
        "quick": quick,
        "concurrency": concurrency,
        "workers": 2,
        "requests": total,
        "seconds": round(elapsed, 4),
        "throughput_rps": round(throughput, 1),
        "p50_ms": round(_percentile(ordered, 0.50), 3),
        "p99_ms": round(_percentile(ordered, 0.99), 3),
        "resets": len(resets),
        "malformed": len(malformed),
        "report_reconciled": reconciled,
    }
    with open(output, "w") as f:
        json.dump(payload, f, indent=2)
        f.write("\n")
    print(f"wrote {output}")
    return 1 if failed else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true", help="smaller load for CI smoke runs"
    )
    parser.add_argument(
        "--chaos",
        action="store_true",
        help="run the serve-path chaos harness instead of the clean "
        "benchmark: a 2-worker fleet with worker kills, stalled "
        "handlers and a corrupted hot-reload armed",
    )
    parser.add_argument(
        "--concurrency",
        type=int,
        default=None,
        help="closed-loop client threads (default: 4 quick, 8 full)",
    )
    parser.add_argument(
        "--requests",
        type=int,
        default=None,
        help="requests per client (default: 75 quick, 500 full)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="serve workers; >1 benchmarks the real CLI as a subprocess "
        "with SO_REUSEPORT sharing (default: 1, in-process)",
    )
    parser.add_argument("--output", default=None)
    args = parser.parse_args()

    output = args.output or (
        _DEFAULT_CHAOS_OUTPUT if args.chaos else _DEFAULT_OUTPUT
    )
    concurrency = args.concurrency or (4 if args.quick else 8)
    per_client = args.requests or (75 if args.quick else 500)

    dataset = PerfDataset.load(_MINI_DATASET)
    index = build_index(dataset, portfolios=True)
    queries = _query_cycle(dataset)
    if args.chaos:
        return _run_chaos(
            index, queries, concurrency, per_client, args.quick, output
        )
    print(
        f"index: {index.n_entries} entries, {index.n_answers} pre-serialized "
        f"answers, {index.n_portfolio_answers} portfolio answers; "
        f"{len(queries)} distinct queries; "
        f"{concurrency} clients x {per_client} requests; "
        f"{args.workers} worker(s)"
    )

    if args.workers > 1:
        server = _SubprocessServer(index, args.workers)
    else:
        server = _InProcessServer(index)

    latencies: list = []
    errors: list = []
    threads = [
        threading.Thread(
            target=_worker,
            args=(
                server.host,
                server.port,
                queries,
                per_client,
                w * 17,  # staggered offsets: clients do not march in step
                latencies,
                errors,
            ),
        )
        for w in range(concurrency)
    ]
    started = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    elapsed = time.perf_counter() - started

    server.stop()

    if errors:
        print(f"FAIL: {len(errors)} non-200 responses, e.g. {errors[:3]}")
        return 1

    total = concurrency * per_client
    ordered = sorted(ms for _, ms in latencies)
    portfolio = sorted(
        ms for path, ms in latencies if path.startswith("/v1/portfolio")
    )
    p50 = _percentile(ordered, 0.50)
    p99 = _percentile(ordered, 0.99)
    throughput = total / elapsed
    print(
        f"served {total} requests in {elapsed:.2f}s: "
        f"{throughput:.0f} req/s, p50 {p50:.2f}ms, p99 {p99:.2f}ms; "
        f"portfolio p99 {_percentile(portfolio, 0.99):.2f}ms "
        f"({len(portfolio)} requests)"
    )

    payload = {
        "benchmark": "serve-load",
        "quick": args.quick,
        "concurrency": concurrency,
        "workers": args.workers,
        "requests": total,
        "seconds": round(elapsed, 4),
        "throughput_rps": round(throughput, 1),
        "p50_ms": round(p50, 3),
        "p99_ms": round(p99, 3),
        "max_ms": round(ordered[-1], 3),
        "errors": 0,
        "portfolio": {
            "requests": len(portfolio),
            "p50_ms": round(_percentile(portfolio, 0.50), 3),
            "p99_ms": round(_percentile(portfolio, 0.99), 3),
        },
    }
    with open(output, "w") as f:
        json.dump(payload, f, indent=2)
        f.write("\n")
    print(f"wrote {output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
