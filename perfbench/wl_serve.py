"""``serve``: a closed-loop request mix against a single-worker ``repro serve``.

Set-up is the end-to-end path from nothing to the first served answer:
a fresh study on the index chips, ``build_index(portfolios=True)``
and ``save``, then server start, one warm predict per (app, input) and
a first strategy answer checked against the offline bytes.  The load is
one client process (this one) driving two keep-alive connections with
no think time through a seeded cycle of requests.
"""

from __future__ import annotations

import http.client
import itertools
import json
import os
import random
import re
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional
from urllib.parse import parse_qsl, urlencode

from analysis import analyse
from common import ROOT, Outcome, Run, cold_caches, derive_seed, percentile
from wl_study import study_config

from repro.chips import all_chips
from repro.compiler import enumerate_configs
from repro.serve import build_index
from repro.serve.index import StrategyIndex, render_answer, render_portfolio_answer
from repro.serve.predict import Predictor
from repro.study import run_study

#: Set-ups per timed run; ``setup_s`` is their mean.
SETUPS = 2
CONNECTIONS = 2
CYCLE = 1000
#: Request classes and their share of the cycle, per hundred requests.
MIX = (
    ("strategy", 54),
    ("portfolio", 13),
    ("fallback", 3),
    ("portfolio_explicit", 3),
    ("predict", 27),
)
#: ``/metrics`` counters whose change over the traced load window is reported.
COUNTERS = (
    "serve.answers.precompiled",
    "serve.cache.hits",
    "serve.cache.misses",
    "serve.portfolio.cache.hits",
    "serve.portfolio.cache.misses",
    "serve.predict.batches",
    "serve.shed",
    "serve.errors",
)
_JSON = {"Content-Type": "application/json"}


@dataclass(frozen=True)
class Request:
    cls: str
    method: str
    path: str
    body: Optional[bytes] = None


class Server:
    """A ``python -m repro serve`` child whose log goes to the work dir."""

    def __init__(self, run: Run, index_path: str, tag: str) -> None:
        self.log_path = os.path.join(run.workdir, f"server-{tag}.log")
        self._log = open(self.log_path, "w")
        src = os.path.join(ROOT, "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", index_path, "--port", "0",
             "--predict-scale", str(run.scope.scale),
             # A recorder, so /metrics counts what the load window did.
             "--metrics", os.path.join(run.workdir, f"serve-report-{tag}.json")],
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=self._log,
            env=env, cwd=ROOT,
        )
        self.port = 0

    def wait_listening(self, timeout: float = 60.0) -> None:
        deadline = time.perf_counter() + timeout
        while True:
            with open(self.log_path) as f:
                text = f.read()
            found = re.search(r"listening on http://[^\s:]+:(\d+)", text)
            if found:
                self.port = int(found.group(1))
                return
            if self.proc.poll() is not None or time.perf_counter() > deadline:
                raise RuntimeError(f"server did not start: {text!r}")
            time.sleep(0.002)

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        try:
            if self.proc.poll() is None:
                self.proc.send_signal(signal.SIGTERM)
                try:
                    self.proc.wait(timeout=30)
                except subprocess.TimeoutExpired:
                    self.proc.kill()
                    self.proc.wait()
        finally:
            self._log.close()


def _call(conn, request: Request):
    conn.request(request.method, request.path, body=request.body,
                 headers=_JSON if request.body is not None else {})
    response = conn.getresponse()
    return response.status, response.read()


def _setup(run: Run, seed: int, tag: str):
    """Study -> index -> server -> warm predicts -> first correct answer."""
    scope = run.scope
    index_path = os.path.join(run.workdir, f"index-{tag}.json")
    with run.span("serve.setup.study"):
        config = study_config(scope, seed, scope.index_chips)
        dataset = run_study(config, jobs=2)
    with run.span("serve.setup.index"):
        index = build_index(dataset, portfolios=True)
        index.save(index_path)
    server = None
    try:
        with run.span("serve.setup.start"):
            server = Server(run, index_path, tag)
            server.wait_listening()
        with run.span("serve.setup.warm"):
            conn = server.connect()
            try:
                for app in scope.apps:
                    for inp in config.inputs:
                        query = {"chip": scope.study_chips[0], "app": app,
                                 "input": inp, "config": "baseline"}
                        status, body = _call(conn, Request(
                            "predict", "POST", "/v1/predict",
                            json.dumps({"queries": [query]}).encode()))
                        if status != 200 or json.loads(body)["errors"]:
                            raise RuntimeError(f"warm predict failed: {status} {body[:200]!r}")
                key = (scope.index_chips[0], scope.apps[0], next(iter(config.inputs)))
                _, body = _call(conn, Request("strategy", "GET", "/v1/strategy?" + urlencode(
                    dict(zip(("chip", "app", "input"), key)))))
                if body != index.answer(key)[0]:
                    raise RuntimeError("first strategy answer differs from the index")
            finally:
                conn.close()
    except BaseException:
        if server is not None:
            server.stop()
        raise
    return index_path, server, dataset


def _deck(rng: random.Random, values: list):
    """Endless draws that use every value once per shuffled round.

    Balanced draws keep a cycle's cost close to the mix's average, so
    the seed changes which requests are sent, not how much work they are.
    """
    while True:
        rng.shuffle(values)
        yield from values


def _cycle(seed: int, index: StrategyIndex, scope) -> List[Request]:
    """The seeded request cycle the two connections walk through together."""
    rng = random.Random(seed)
    chips, apps, inputs = (index.meta[k] for k in ("chips", "apps", "inputs"))
    outside = [c.short_name for c in all_chips() if c.short_name not in chips]
    configs = [c.key() for c in enumerate_configs()]
    cells = _deck(rng, list(itertools.product(chips, apps, inputs)))
    points = _deck(rng, list(itertools.product(scope.study_chips, apps, inputs)))
    classes = [cls for cls, share in MIX for _ in range(share * CYCLE // 100)]
    rng.shuffle(classes)
    cycle = []
    for cls in classes:
        if cls == "predict":
            queries = [dict(zip(("chip", "app", "input"), next(points)))
                       for _ in range(4)]
            for query in queries[:3]:  # the fourth is an advisor pick
                query["config"] = rng.choice(configs)
            body = json.dumps({"queries": queries}).encode()
            cycle.append(Request(cls, "POST", "/v1/predict", body))
            continue
        params = dict(zip(("chip", "app", "input"), next(cells)))
        if cls == "fallback":
            if rng.random() < 0.5:  # partial coordinates: a shorter lattice walk
                for name in rng.sample(sorted(params), rng.choice((1, 2))):
                    del params[name]
            else:  # a chip the index never saw: full walk, encode-on-miss cache
                params["chip"] = rng.choice(outside)
        if cls == "portfolio_explicit":
            if rng.random() < 0.5:
                params["k"] = rng.choice((1, 2, 3, 4))
            else:
                params["target"] = rng.choice((0.9, 0.95, 0.99))
        endpoint = "portfolio" if cls.startswith("portfolio") else "strategy"
        cycle.append(Request(cls, "GET", f"/v1/{endpoint}?" + urlencode(params)))
    return cycle


def _expected_get(index: StrategyIndex, request: Request) -> bytes:
    """The offline bytes for a strategy or portfolio query."""
    params = dict(parse_qsl(request.path.split("?", 1)[1]))
    key = (params.get("chip"), params.get("app"), params.get("input"))
    if request.cls in ("strategy", "fallback"):
        pre = index.answer(key)
        return pre[0] if pre else render_answer(index, *key)[0]
    if request.cls == "portfolio":
        pre = index.portfolio_answer(key)
        return pre[0] if pre else render_portfolio_answer(index, *key)[0]
    k = int(params["k"]) if "k" in params else None
    target = float(params["target"]) if "target" in params else None
    return render_portfolio_answer(index, *key, k=k, target=target)[0]


def _expected_predict(run: Run, predictor: Predictor, index: StrategyIndex,
                      cycle: List[Request]) -> Dict[int, list]:
    """Offline ``Predictor.price_many`` results for every predict in the cycle."""
    bodies = {i: json.loads(r.body)["queries"] for i, r in enumerate(cycle)
              if r.cls == "predict"}
    points, advisors = [], []
    for queries in bodies.values():
        for q in queries:
            advisor = None
            if "config" not in q:
                advisor = index.lookup(chip=q["chip"], app=q["app"], input=q["input"])
            config = Predictor.parse_config(q["config"] if advisor is None else advisor.config)
            points.append((q["chip"], q["app"], q["input"], config))
            advisors.append(advisor)
    pairs = sorted({(p[1], p[2]) for p in points})
    baseline = Predictor.parse_config("baseline")
    with run.span("runtime.trace"):  # the traces, once per (app, input)
        predictor.price_many([(run.scope.study_chips[0], app, inp, baseline)
                              for app, inp in pairs])
    with run.span("perfmodel.price_many"):
        priced = predictor.price_many(points)
    run.count("perfmodel.price_many.items", len(points))
    expected, at = {}, 0
    for i, queries in bodies.items():
        results = []
        for result, advisor in zip(priced[at:at + len(queries)], advisors[at:at + len(queries)]):
            if isinstance(result, Exception):
                raise RuntimeError(f"offline predict failed: {result}")
            if advisor is not None:
                result = dict(result, advisor=advisor.to_dict())
            results.append(result)
        expected[i] = json.loads(json.dumps(results))
        at += len(queries)
    return expected


def _drive(server: Server, cycle: List[Request], seconds: float):
    """Closed loop over ``CONNECTIONS`` keep-alive connections for ``seconds``.

    Returns ``(records, window)``; a record is ``(slot, seconds, status,
    body)`` and status 0 marks a connection-level failure.
    """
    slots = itertools.count()
    records: List[list] = [[] for _ in range(CONNECTIONS)]
    started = time.perf_counter()
    deadline = started + seconds

    def client(out: list) -> None:
        conn = server.connect()
        try:
            while time.perf_counter() < deadline:
                slot = next(slots)
                request = cycle[slot % len(cycle)]
                sent = time.perf_counter()
                try:
                    status, body = _call(conn, request)
                except (http.client.HTTPException, OSError):
                    status, body = 0, b""
                    conn.close()
                    conn = server.connect()
                out.append((slot, time.perf_counter() - sent, status, body))
        finally:
            conn.close()

    threads = [threading.Thread(target=client, args=(out,)) for out in records]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return [r for out in records for r in out], time.perf_counter() - started


def _metrics(server: Server) -> dict:
    conn = server.connect()
    try:
        status, body = _call(conn, Request("metrics", "GET", "/metrics"))
    finally:
        conn.close()
    if status != 200:
        raise RuntimeError(f"/metrics answered {status}")
    return json.loads(body)


def _check(run: Run, predictor: Predictor, index: StrategyIndex, cycle: List[Request],
           records) -> List[bool]:
    """Per record: did it succeed with exactly the offline answer?"""
    with run.span("bench.check"):
        expected_get = {r.path: _expected_get(index, r) for r in cycle if r.method == "GET"}
    expected_predict = _expected_predict(run, predictor, index, cycle)
    verdicts = []
    with run.span("bench.check"):
        for slot, _, status, body in records:
            position = slot % len(cycle)
            request = cycle[position]
            if status != 200:
                ok = False
            elif request.cls == "predict":
                payload = json.loads(body)
                ok = (payload["errors"] == 0
                      and payload["results"] == expected_predict[position])
            else:
                ok = body == expected_get[request.path]
            if not ok and len(run.problems) < 20:
                run.problem(f"serve {request.method} {request.path}: status "
                            f"{status}, body {body[:120]!r}")
            verdicts.append(ok)
        run.attempted += len(records)
        run.failed += verdicts.count(False)
    return verdicts


def _latencies(records, verdicts, window: float) -> List[float]:
    """Request seconds; a failed or wrong response counts as the whole window."""
    return [r[1] if ok else window for r, ok in zip(records, verdicts)]


def run_workload(run: Run) -> Outcome:
    """``SETUPS`` set-ups, then one load window on the last server.

    ``setup_s`` is the mean set-up; the latencies and the rate come from
    one ``--seconds`` window, not from shorter pieces.
    """
    predictor = Predictor(scale=run.scope.scale)  # the offline reference
    if run.trace:
        return _traced(run, predictor)
    setup_times = []
    for i in range(SETUPS):
        cold_caches()
        started = time.perf_counter()
        index_path, server, _ = _setup(run, derive_seed(run.seed, "serve", i), str(i))
        setup_times.append(time.perf_counter() - started)
        if i < SETUPS - 1:
            server.stop()
    try:
        index = StrategyIndex.load(index_path)
        cycle = _cycle(derive_seed(run.seed, "serve-cycle"), index, run.scope)
        records, window = _drive(server, cycle, run.seconds)
        rss = server.peak_rss_mb()
    finally:
        server.stop()
    verdicts = _check(run, predictor, index, cycle, records)
    latencies = _latencies(records, verdicts, window)
    return Outcome(end_to_end={
        "setup_s": statistics.fmean(setup_times),
        "throughput_per_s": verdicts.count(True) / window,
        "latency_p50_ms": statistics.median(latencies) * 1000.0,
        "latency_tail_ms": percentile(latencies, 99) * 1000.0,
        "peak_rss_mb": rss,
    })


def _traced(run: Run, predictor: Predictor) -> Outcome:
    """One set-up, one traced load window, ``/metrics`` deltas over it.

    No span runs inside the request loop or the server, so tracing adds
    no work per request: ``trace.overhead_frac`` is 0 by construction.
    Then one analysis pass over the set-up's dataset gives the analysis
    layers that the set-up's ``build_index`` runs in a single call.
    """
    cold_caches()
    seed = derive_seed(run.seed, "serve", 0)
    index_path, server, dataset = _setup(run, seed, "0")
    path = os.path.join(run.workdir, "analysis.v3")
    try:
        # Saved and dropped before the load window, which then runs
        # beside the same heap as in an untraced run.
        with run.span("store.save"):
            dataset.save(path)
        del dataset
        index = StrategyIndex.load(index_path)
        cycle = _cycle(derive_seed(run.seed, "serve-cycle"), index, run.scope)
        before = _metrics(server)
        with run.span("serve.load"):
            records, window = _drive(server, cycle, run.seconds)
        after = _metrics(server)
    finally:
        server.stop()
    verdicts = _check(run, predictor, index, cycle, records)
    latencies = _latencies(records, verdicts, window)

    layers = {}
    for cls, _ in MIX:
        samples = [s for s, r in zip(latencies, records)
                   if cycle[r[0] % len(cycle)].cls == cls]
        layers[f"serve.{cls}.p50_ms"] = statistics.median(samples) * 1000.0
        layers[f"serve.{cls}.p99_ms"] = percentile(samples, 99) * 1000.0
    for name in COUNTERS:
        layers[name] = after["counters"].get(name, 0) - before["counters"].get(name, 0)
    empty = [0, 0, 0, 0]  # histograms are [count, sum, min, max]
    sizes_after = after["histograms"].get("serve.predict.batch_size", empty)
    sizes_before = before["histograms"].get("serve.predict.batch_size", empty)
    batches = sizes_after[0] - sizes_before[0]
    layers["serve.predict.mean_batch_size"] = (
        (sizes_after[1] - sizes_before[1]) / batches if batches else 0.0
    )
    layers["serve.requests"] = len(records)
    layers["trace.overhead_frac"] = 0.0

    analysed = analyse(run, seed, path)
    if analysed is not None and _strategy_tables(analysed) != _strategy_tables(index):
        run.problem("serve: the analysis pass's index differs from the served one")
    return Outcome(per_layer=dict(run.counts, **layers))


def _strategy_tables(index: StrategyIndex) -> dict:
    """An index's strategy levels and answers, without its portfolios."""
    data = index.to_dict()
    data.pop("portfolios", None)
    return data
