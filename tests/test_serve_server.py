"""In-process tests for the asyncio strategy server.

Each test runs a real :class:`~repro.serve.server.StrategyServer` on a
loopback port inside ``asyncio.run`` and speaks raw HTTP/1.1 through
``asyncio.open_connection`` — the same byte stream a production client
would send, with no test-only shortcuts into the handler.
"""

from __future__ import annotations

import asyncio
import json
import os
import threading
import time

import pytest

from repro.errors import FlushTimeoutError, PredictionError, ServeError
from repro.obs import Recorder
from repro.serve import StrategyServer, build_index
from repro.study.dataset import PerfDataset

GOLDEN_DATASET = "mini-dataset.json.gz"


@pytest.fixture(scope="module")
def golden_dataset(goldens_dir) -> PerfDataset:
    return PerfDataset.load(os.path.join(goldens_dir, GOLDEN_DATASET))


@pytest.fixture(scope="module")
def index(golden_dataset):
    return build_index(golden_dataset)


async def http_request(
    port: int, method: str, target: str, body: bytes = b"", host="127.0.0.1"
):
    """One raw HTTP/1.1 exchange; returns (status, parsed JSON, raw body)."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        head = (
            f"{method} {target} HTTP/1.1\r\n"
            f"Host: {host}\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: close\r\n\r\n"
        )
        writer.write(head.encode() + body)
        await writer.drain()
        status_line = await reader.readline()
        status = int(status_line.split()[1])
        length = None
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            if line.lower().startswith(b"content-length:"):
                length = int(line.split(b":")[1])
        raw = await reader.readexactly(length)
        return status, json.loads(raw), raw
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except ConnectionError:
            pass


def run(coro):
    return asyncio.run(coro)


class StubPredictor:
    """A predictable stand-in for the batch-engine predictor."""

    def __init__(self, delay: float = 0.0) -> None:
        self.delay = delay
        self.calls = []

    def price(self, chip, app, inp, config):
        if self.delay:
            time.sleep(self.delay)  # runs in the executor thread
        if chip == "BOOM":
            raise PredictionError("no such chip")
        self.calls.append((chip, app, inp, config.key()))
        return {"chip": chip, "app": app, "input": inp, "config": config.key(),
                "predicted_us": 123.0, "times_us": [124.0], "repetitions": 1}

    def price_many(self, points):
        """Per-item results, failures as :class:`PredictionError` values."""
        results = []
        for chip, app, inp, config in points:
            try:
                results.append(self.price(chip, app, inp, config))
            except PredictionError as exc:
                results.append(exc)
        return results


class BatchStubPredictor(StubPredictor):
    """A stub recording batch composition, with an optional batch delay."""

    def __init__(self, delay: float = 0.0) -> None:
        super().__init__()
        self.batch_delay = delay
        self.batches = []

    def price_many(self, points):
        if self.batch_delay:
            time.sleep(self.batch_delay)
        self.batches.append([p[:3] for p in points])
        return super().price_many(points)


class TestEndpoints:
    def test_healthz(self, index):
        async def go():
            server = StrategyServer(index)
            await server.start()
            try:
                status, body, _ = await http_request(server.port, "GET", "/healthz")
            finally:
                await server.stop()
            return status, body

        status, body = run(go())
        assert status == 200
        assert body["status"] == "ok"
        assert body["entries"] == index.n_entries
        assert body["levels"]["chip+app+input"] == 18

    def test_strategy_exact_and_degraded(self, index, golden_dataset):
        t = golden_dataset.tests[0]

        async def go():
            server = StrategyServer(index, recorder=Recorder())
            await server.start()
            try:
                s1, exact, _ = await http_request(
                    server.port,
                    "GET",
                    f"/v1/strategy?chip={t.chip}&app={t.app}&input={t.graph}",
                )
                s2, degraded, _ = await http_request(
                    server.port,
                    "GET",
                    "/v1/strategy?chip=UNKNOWN&app=UNKNOWN&input=UNKNOWN",
                )
                counters = dict(server.recorder.counters)
            finally:
                await server.stop()
            return s1, exact, s2, degraded, counters

        s1, exact, s2, degraded, counters = run(go())
        assert (s1, s2) == (200, 200)
        assert not exact["degraded"]
        assert exact["served_level"] == "chip+app+input"
        assert degraded["degraded"]
        assert degraded["served_level"] == "global"
        assert counters["serve.fallbacks"] == 1
        assert counters["serve.requests.strategy"] == 2

    def test_strategy_cache_hit_returns_identical_payload(self, index):
        """A repeated query gets the same bytes on both answer paths."""

        async def go():
            server = StrategyServer(index, recorder=Recorder())
            await server.start()
            try:
                raws = []
                for query in ("chip=MALI", "chip=MALI", "chip=UNKNOWN",
                              "chip=UNKNOWN"):
                    _, _, raw = await http_request(
                        server.port, "GET", f"/v1/strategy?{query}"
                    )
                    raws.append(raw)
                counters = dict(server.recorder.counters)
            finally:
                await server.stop()
            return raws, counters

        raws, counters = run(go())
        # Byte-identical, not merely equal, on both answer paths.
        assert raws[0] == raws[1]
        assert raws[2] == raws[3]
        # Known lattice coordinates are pre-serialized at build time;
        # an unknown chip is rendered per request, every time.
        assert counters["serve.answers.precompiled"] == 2
        assert counters["serve.answers.rendered"] == 2
        assert raws[0] == index.answer(("MALI", None, None))[0]

    def test_every_answer_is_precompiled_or_rendered(self, golden_dataset):
        """Without refine or 4xx, each strategy and portfolio request
        takes exactly one of the two answer paths."""
        strategy = [
            "chip=MALI", "chip=MALI&app=bfs-wl&input=tiny-road",
            "chip=UNKNOWN", "app=bfs-wl&input=UNKNOWN", "",
        ]
        portfolio = ["chip=MALI", "chip=MALI&k=2", "app=UNKNOWN",
                     "target=0.9", "chip=R9&app=bfs-wl"]

        async def go():
            server = StrategyServer(
                build_index(golden_dataset, portfolios=True),
                recorder=Recorder(),
            )
            await server.start()
            try:
                for _ in range(2):
                    for query in strategy:
                        status, _, _ = await http_request(
                            server.port, "GET", f"/v1/strategy?{query}"
                        )
                        assert status == 200
                    for query in portfolio:
                        status, _, _ = await http_request(
                            server.port, "GET", f"/v1/portfolio?{query}"
                        )
                        assert status == 200
                counters = dict(server.recorder.counters)
            finally:
                await server.stop()
            return counters

        counters = run(go())
        assert counters["serve.requests.strategy"] == 10
        assert counters["serve.requests.strategy"] == (
            counters["serve.answers.precompiled"]
            + counters["serve.answers.rendered"]
        )
        assert counters["serve.answers.rendered"] == 4
        assert counters["serve.requests.portfolio"] == 10
        assert counters["serve.requests.portfolio"] == (
            counters["serve.portfolio.precompiled"]
            + counters["serve.portfolio.rendered"]
        )
        assert counters["serve.portfolio.rendered"] == 6

    def test_strategy_validation_errors(self, index):
        async def go():
            server = StrategyServer(index)
            await server.start()
            try:
                s1, b1, _ = await http_request(
                    server.port, "GET", "/v1/strategy?vendor=ARM"
                )
                s2, b2, _ = await http_request(
                    server.port, "GET", "/v1/strategy?chip="
                )
                s3, _, _ = await http_request(server.port, "GET", "/nope")
                s4, _, _ = await http_request(server.port, "POST", "/v1/strategy")
            finally:
                await server.stop()
            return s1, b1, s2, b2, s3, s4

        s1, b1, s2, b2, s3, s4 = run(go())
        assert s1 == 400 and "vendor" in b1["error"]
        assert s2 == 400 and "empty value" in b2["error"]
        assert s3 == 404
        assert s4 == 405

    def test_metrics_counters_reconcile_with_requests(self, index):
        async def go():
            server = StrategyServer(index, recorder=Recorder())
            await server.start()
            try:
                for _ in range(3):
                    await http_request(server.port, "GET", "/v1/strategy?chip=R9")
                await http_request(server.port, "GET", "/healthz")
                status, metrics, _ = await http_request(
                    server.port, "GET", "/metrics"
                )
            finally:
                await server.stop()
            return status, metrics

        status, metrics = run(go())
        assert status == 200
        counters = metrics["counters"]
        # The /metrics request itself is the 5th; its own counter
        # increments at dispatch start, so it sees itself.
        assert counters["serve.requests"] == 5
        assert counters["serve.requests.strategy"] == 3
        assert counters["serve.answers.precompiled"] == 3
        assert "serve.answers.rendered" not in counters
        assert metrics["requests_served"] == 5
        assert "serve.latency_ms" not in metrics["counters"]
        assert "spans" not in metrics  # unbounded; never exposed


class TestPredict:
    def test_predict_batch_with_explicit_and_advisor_configs(self, index):
        stub = StubPredictor()

        async def go():
            server = StrategyServer(index, predictor=stub, recorder=Recorder())
            await server.start()
            try:
                body = json.dumps(
                    {
                        "queries": [
                            {"chip": "MALI", "app": "bfs-wl",
                             "input": "tiny-road", "config": "wg+sg"},
                            {"chip": "MALI", "app": "bfs-wl",
                             "input": "tiny-road"},
                            {"chip": "BOOM", "app": "bfs-wl",
                             "input": "tiny-road", "config": "wg"},
                            {"chip": "MALI", "app": "bfs-wl"},
                        ]
                    }
                ).encode()
                status, out, _ = await http_request(
                    server.port, "POST", "/v1/predict", body
                )
                counters = dict(server.recorder.counters)
            finally:
                await server.stop()
            return status, out, counters

        status, out, counters = run(go())
        assert status == 200
        assert out["errors"] == 2
        r0, r1, r2, r3 = out["results"]
        assert r0["config"] == "sg+wg"
        # Advisor-selected config comes with its provenance attached.
        assert r1["config"] == r1["advisor"]["config"]
        assert not r1["advisor"]["degraded"]
        assert "no such chip" in r2["error"]
        assert "input" in r3["error"]
        assert counters["serve.predictions"] == 2
        assert counters["serve.predictions.errors"] == 2

    def test_predict_disabled_returns_501(self, index):
        async def go():
            server = StrategyServer(index, predictor=None)
            await server.start()
            try:
                body = json.dumps(
                    {"chip": "MALI", "app": "bfs-wl", "input": "tiny-road"}
                ).encode()
                status, out, _ = await http_request(
                    server.port, "POST", "/v1/predict", body
                )
            finally:
                await server.stop()
            return status, out

        status, out = run(go())
        assert status == 501
        assert "disabled" in out["error"]

    def test_predict_rejects_bad_json_and_empty_queries(self, index):
        async def go():
            server = StrategyServer(index, predictor=StubPredictor())
            await server.start()
            try:
                s1, _, _ = await http_request(
                    server.port, "POST", "/v1/predict", b"{not json"
                )
                s2, _, _ = await http_request(
                    server.port, "POST", "/v1/predict", b"[]"
                )
            finally:
                await server.stop()
            return s1, s2

        assert run(go()) == (400, 400)


class TestOperationalLimits:
    def test_request_timeout_returns_503_and_counts(self, index):
        async def go():
            server = StrategyServer(
                index,
                predictor=StubPredictor(delay=0.4),
                request_timeout=0.05,
                recorder=Recorder(),
            )
            await server.start()
            try:
                body = json.dumps(
                    {"chip": "MALI", "app": "bfs-wl", "input": "tiny-road"}
                ).encode()
                status, out, _ = await http_request(
                    server.port, "POST", "/v1/predict", body
                )
                counters = dict(server.recorder.counters)
            finally:
                await server.stop()
            return status, out, counters

        status, out, counters = run(go())
        assert status == 503
        assert "timeout" in out["error"]
        assert counters["serve.timeouts"] == 1
        assert counters["serve.responses.5xx"] == 1

    def test_oversized_body_is_rejected(self, index):
        async def go():
            server = StrategyServer(index, predictor=StubPredictor())
            await server.start()
            try:
                status, out, _ = await http_request(
                    server.port, "POST", "/v1/predict", b"x" * (1 << 20 + 1)
                )
            finally:
                await server.stop()
            return status, out

        status, out = run(go())
        assert status == 413

    def test_sixteen_concurrent_clients_get_identical_answers(self, index):
        async def go():
            server = StrategyServer(index, max_concurrency=4)
            await server.start()
            try:
                results = await asyncio.gather(
                    *(
                        http_request(
                            server.port,
                            "GET",
                            "/v1/strategy?chip=MALI&app=bfs-wl&input=tiny-road",
                        )
                        for _ in range(16)
                    )
                )
            finally:
                await server.stop()
            return results

        results = run(go())
        assert all(status == 200 for status, _, _ in results)
        raws = {raw for _, _, raw in results}
        assert len(raws) == 1  # byte-identical across all 16 clients

    def test_invalid_construction(self, index):
        with pytest.raises(ServeError):
            StrategyServer(index, max_concurrency=0)
        with pytest.raises(ServeError):
            StrategyServer(index, request_timeout=0)


class TestShutdown:
    def test_stop_drains_inflight_request(self, index):
        """A request racing shutdown completes before the server exits."""

        async def go():
            server = StrategyServer(
                index, predictor=StubPredictor(delay=0.2), request_timeout=5.0
            )
            await server.start()
            body = json.dumps(
                {"chip": "MALI", "app": "bfs-wl", "input": "tiny-road"}
            ).encode()
            inflight = asyncio.ensure_future(
                http_request(server.port, "POST", "/v1/predict", body)
            )
            await asyncio.sleep(0.05)  # the predict is now in the executor
            await server.stop()
            status, out, _ = await inflight
            return status, out

        status, out = run(go())
        assert status == 200
        assert out["results"][0]["predicted_us"] == 123.0

    def test_stop_closes_idle_keepalive_connections(self, index):
        async def go():
            server = StrategyServer(index)
            await server.start()
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            # Complete one keep-alive request, then go idle.
            writer.write(
                b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"
            )
            await writer.drain()
            await reader.readline()
            await server.stop()
            # The server must have dropped the idle connection: reading
            # eventually hits EOF rather than hanging.
            data = await asyncio.wait_for(reader.read(), timeout=5.0)
            writer.close()
            return server._connections

        connections = run(go())
        assert connections == set()

    def test_requests_after_stop_are_refused(self, index):
        async def go():
            server = StrategyServer(index)
            await server.start()
            port = server.port
            await server.stop()
            try:
                await http_request(port, "GET", "/healthz")
            except OSError:
                return True
            return False

        assert run(go())


def _predict_body(*queries) -> bytes:
    return json.dumps({"queries": list(queries)}).encode()


class TestCoalescing:
    """ISSUE 6's predict micro-batching window."""

    def test_concurrent_requests_coalesce_into_one_batch(self, index):
        """Four concurrent single-item requests arriving within the
        window ride one vectorized ``price_many`` call."""
        stub = BatchStubPredictor()

        async def go():
            server = StrategyServer(
                index,
                predictor=stub,
                recorder=Recorder(),
                predict_window=0.2,
            )
            await server.start()
            try:
                bodies = [
                    _predict_body(
                        {"chip": "MALI", "app": "bfs-wl",
                         "input": f"graph-{i}", "config": "wg"}
                    )
                    for i in range(4)
                ]
                responses = await asyncio.gather(
                    *(
                        http_request(server.port, "POST", "/v1/predict", b)
                        for b in bodies
                    )
                )
                counters = dict(server.recorder.counters)
                histograms = dict(server.recorder.histograms)
            finally:
                await server.stop()
            return responses, counters, histograms

        responses, counters, histograms = run(go())
        assert all(status == 200 for status, _, _ in responses)
        assert len(stub.batches) == 1
        assert len(stub.batches[0]) == 4
        assert counters["serve.predict.batches"] == 1
        count, total, lo, hi = histograms["serve.predict.batch_size"]
        assert (count, total) == (1, 4.0)
        # Every item still got its own correct answer.
        for i, (_, out, _) in enumerate(sorted(
            responses, key=lambda r: r[1]["results"][0]["input"]
        )):
            assert out["results"][0]["input"] == f"graph-{i}"

    def test_coalesced_and_sequential_responses_byte_identical(self, index):
        """Coalescing changes when pricing happens, never what a client
        reads: per-item response bytes are identical either way."""
        queries = [
            {"chip": "MALI", "app": "bfs-wl", "input": "tiny-road",
             "config": "wg+sg"},
            {"chip": "GTX1080", "app": "pr-topo", "input": "tiny-rmat",
             "config": "baseline"},
            {"chip": "R9", "app": "mis-wl", "input": "tiny-road",
             "config": "wg"},
        ]

        async def serve_and_collect(window, concurrent):
            server = StrategyServer(
                index,
                predictor=BatchStubPredictor(),
                predict_window=window,
            )
            await server.start()
            try:
                if concurrent:
                    responses = await asyncio.gather(
                        *(
                            http_request(
                                server.port, "POST", "/v1/predict",
                                _predict_body(q),
                            )
                            for q in queries
                        )
                    )
                else:
                    responses = []
                    for q in queries:
                        responses.append(
                            await http_request(
                                server.port, "POST", "/v1/predict",
                                _predict_body(q),
                            )
                        )
            finally:
                await server.stop()
            return [raw for _, _, raw in responses]

        async def go():
            sequential = await serve_and_collect(0.0, concurrent=False)
            coalesced = await serve_and_collect(0.2, concurrent=True)
            return sequential, coalesced

        sequential, coalesced = run(go())
        assert sequential == coalesced

    def test_mixed_valid_and_invalid_items_in_one_batch(self, index):
        """Per-item errors survive coalescing: one bad item never
        poisons the batch it rode in on."""
        stub = BatchStubPredictor()

        async def go():
            server = StrategyServer(
                index,
                predictor=stub,
                recorder=Recorder(),
                predict_window=0.2,
            )
            await server.start()
            try:
                good = _predict_body(
                    {"chip": "MALI", "app": "bfs-wl", "input": "tiny-road",
                     "config": "wg"},
                    {"chip": "BOOM", "app": "bfs-wl", "input": "tiny-road",
                     "config": "wg"},
                )
                bad = _predict_body(
                    {"chip": "BOOM", "app": "bfs-wl", "input": "tiny-road",
                     "config": "wg"},
                )
                responses = await asyncio.gather(
                    http_request(server.port, "POST", "/v1/predict", good),
                    http_request(server.port, "POST", "/v1/predict", bad),
                )
                counters = dict(server.recorder.counters)
            finally:
                await server.stop()
            return responses, counters

        responses, counters = run(go())
        (s1, out1, _), (s2, out2, _) = responses
        assert s1 == s2 == 200
        # All three priceable items coalesced into one engine call.
        assert len(stub.batches) == 1
        assert len(stub.batches[0]) == 3
        assert out1["errors"] == 1
        assert out1["results"][0]["predicted_us"] == 123.0
        assert "no such chip" in out1["results"][1]["error"]
        assert out2["errors"] == 1
        assert "no such chip" in out2["results"][0]["error"]
        assert counters["serve.predictions"] == 1
        assert counters["serve.predictions.errors"] == 2

    def test_max_batch_flushes_without_waiting_for_the_window(self, index):
        stub = BatchStubPredictor()

        async def go():
            server = StrategyServer(
                index,
                predictor=stub,
                predict_window=30.0,  # never elapses within the test
                predict_max_batch=2,
            )
            await server.start()
            try:
                started = time.perf_counter()
                responses = await asyncio.gather(
                    *(
                        http_request(
                            server.port, "POST", "/v1/predict",
                            _predict_body(
                                {"chip": "MALI", "app": "bfs-wl",
                                 "input": f"graph-{i}", "config": "wg"}
                            ),
                        )
                        for i in range(4)
                    )
                )
                elapsed = time.perf_counter() - started
            finally:
                await server.stop()
            return responses, elapsed

        responses, elapsed = run(go())
        assert all(status == 200 for status, _, _ in responses)
        assert elapsed < 5.0  # size trigger, not the 30s window
        assert len(stub.batches) == 2
        assert all(len(batch) == 2 for batch in stub.batches)

    def test_engine_failure_fails_every_item_with_500(self, index):
        class ExplodingPredictor:
            def price_many(self, points):
                raise RuntimeError("engine went away")

        async def go():
            server = StrategyServer(
                index, predictor=ExplodingPredictor(), predict_window=0.05
            )
            await server.start()
            try:
                status, out, _ = await http_request(
                    server.port, "POST", "/v1/predict",
                    _predict_body(
                        {"chip": "MALI", "app": "bfs-wl",
                         "input": "tiny-road", "config": "wg"}
                    ),
                )
            finally:
                await server.stop()
            return status, out

        status, out = run(go())
        assert status == 500
        assert "engine went away" in out["error"]

    def test_invalid_coalescer_parameters(self, index):
        from repro.serve import PredictCoalescer

        with pytest.raises(ServeError):
            PredictCoalescer(StubPredictor(), window=-0.1)
        with pytest.raises(ServeError):
            PredictCoalescer(StubPredictor(), max_batch=0)
        with pytest.raises(ServeError):
            StrategyServer(index, predict_window=-1.0)
        with pytest.raises(ServeError):
            StrategyServer(index, predict_max_batch=0)


class GatedPredictor(BatchStubPredictor):
    """Holds its first batch on the pricing thread until ``gate`` is set,
    and records which thread ran each batch."""

    def __init__(self) -> None:
        super().__init__()
        self.gate = threading.Event()
        self.entered = threading.Event()
        self.threads = []

    def price_many(self, points):
        self.threads.append(threading.current_thread())
        if not self.entered.is_set():
            self.entered.set()
            assert self.gate.wait(timeout=10.0)
        return super().price_many(points)


async def _until(flag: threading.Event) -> None:
    for _ in range(2000):
        if flag.is_set():
            return
        await asyncio.sleep(0.005)
    raise AssertionError("the pricing thread never started the batch")


class TestGroupCommit:
    """Without a window, items arriving while a batch prices wait for
    it and then flush together; a lone item waits for no timer."""

    @staticmethod
    def _item(coalescer, i):
        from repro.compiler.options import OptConfig

        return asyncio.ensure_future(
            coalescer.price("MALI", "bfs-wl", f"graph-{i}", OptConfig(wg=True))
        )

    def test_items_arriving_during_a_batch_ride_one_next_batch(self):
        from repro.serve import PredictCoalescer

        stub = GatedPredictor()
        recorder = Recorder()

        async def go():
            coalescer = PredictCoalescer(stub, recorder)
            try:
                first = self._item(coalescer, 0)
                await _until(stub.entered)
                rest = [self._item(coalescer, i) for i in range(1, 4)]
                for _ in range(20):  # many loop ticks: nothing flushes
                    await asyncio.sleep(0)
                assert len(stub.batches) == 0 and stub.entered.is_set()
                stub.gate.set()
                return await asyncio.gather(first, *rest)
            finally:
                coalescer.stop()

        results = run(go())
        assert [r["input"] for r in results] == [f"graph-{i}" for i in range(4)]
        assert [[p[2] for p in b] for b in stub.batches] == [
            ["graph-0"], ["graph-1", "graph-2", "graph-3"],
        ]
        assert recorder.counters["serve.predict.batches"] == 2

    def test_max_batch_flushes_while_a_batch_prices(self):
        from repro.serve import PredictCoalescer

        stub = GatedPredictor()

        async def go():
            coalescer = PredictCoalescer(stub, max_batch=2)
            try:
                first = self._item(coalescer, 0)
                await _until(stub.entered)
                rest = [self._item(coalescer, i) for i in range(1, 6)]
                for _ in range(20):
                    await asyncio.sleep(0)
                stub.gate.set()
                return await asyncio.gather(first, *rest)
            finally:
                coalescer.stop()

        run(go())
        # Two full batches went to the thread behind the gated one; the
        # last item flushed alone when they were done.
        assert [[p[2] for p in b] for b in stub.batches] == [
            ["graph-0"], ["graph-1", "graph-2"], ["graph-3", "graph-4"],
            ["graph-5"],
        ]

    def test_lone_item_arms_no_timer(self):
        from repro.serve import PredictCoalescer

        stub = BatchStubPredictor()
        armed = []

        async def go():
            loop = asyncio.get_running_loop()
            for name in ("call_later", "call_at"):
                original = getattr(loop, name)

                def record(*args, _original=original, **kwargs):
                    armed.append(args)
                    return _original(*args, **kwargs)

                setattr(loop, name, record)
            coalescer = PredictCoalescer(stub, window=0.0)
            try:
                first = await self._item(coalescer, 0)
                second = await self._item(coalescer, 1)
            finally:
                coalescer.stop()
            return first, second

        first, second = run(go())
        assert (first["input"], second["input"]) == ("graph-0", "graph-1")
        assert len(stub.batches) == 2
        assert armed == []

    def test_batches_share_one_pricing_thread_that_stop_ends(self, index):
        stub = GatedPredictor()

        async def go():
            server = StrategyServer(index, predictor=stub, predict_max_batch=2)
            await server.start()
            try:
                requests = [
                    asyncio.ensure_future(http_request(
                        server.port, "POST", "/v1/predict",
                        _predict_body(
                            {"chip": "MALI", "app": "bfs-wl",
                             "input": f"graph-{i}", "config": "wg"}
                        ),
                    ))
                    for i in range(5)
                ]
                await _until(stub.entered)
                # Let the other requests arrive: full batches flush at
                # max_batch while the first is still held.
                await asyncio.sleep(0.2)
                stub.gate.set()
                responses = await asyncio.gather(*requests)
                assert all(status == 200 for status, _, _ in responses)
            finally:
                await server.stop()
            return [t.is_alive() for t in stub.threads]

        alive = run(go())
        assert len(stub.threads) >= 3
        assert len({t.ident for t in stub.threads}) == 1
        assert stub.threads[0] is not threading.main_thread()
        assert alive == [False] * len(stub.threads)

    def test_stop_does_not_wait_for_an_abandoned_batch(self):
        from repro.serve import PredictCoalescer

        stub = GatedPredictor()

        async def go():
            coalescer = PredictCoalescer(stub, flush_timeout=0.05)
            item = self._item(coalescer, 0)
            with pytest.raises(FlushTimeoutError):
                await item
            started = time.perf_counter()
            coalescer.stop()
            return time.perf_counter() - started

        took = run(go())
        try:
            assert took < 1.0
            assert stub.threads[0].is_alive()  # still holding batch 1
        finally:
            stub.gate.set()
        stub.threads[0].join(timeout=10.0)
        assert not stub.threads[0].is_alive()


class TestFlushDeadline:
    """The hard deadline on coalesced predict flushes (ISSUE 9): one
    slow batch must fail fast with per-item 503s instead of stalling
    every waiter into the request timeout."""

    def test_slow_batch_times_out_every_waiter_as_503(self, index):
        stub = BatchStubPredictor(delay=1.0)  # far past the deadline

        async def go():
            server = StrategyServer(
                index,
                predictor=stub,
                recorder=Recorder(),
                predict_window=0.1,
                predict_flush_timeout=0.2,
            )
            await server.start()
            try:
                responses = await asyncio.gather(
                    *(
                        http_request(
                            server.port, "POST", "/v1/predict",
                            _predict_body(
                                {"chip": "MALI", "app": "bfs-wl",
                                 "input": f"graph-{i}", "config": "wg"}
                            ),
                        )
                        for i in range(3)
                    )
                )
                counters = dict(server.recorder.counters)
            finally:
                await server.stop()
            return responses, counters

        responses, counters = run(go())
        for status, out, _ in responses:
            assert status == 503  # every item blew the same deadline
            assert out["errors"] == 1
            assert "flush deadline" in out["results"][0]["error"]
            assert out["results"][0]["status"] == 503
        assert counters["serve.predict.flush_timeouts"] == 1  # one batch
        assert counters["serve.predictions.errors"] == 3

    def test_flush_timeouts_feed_the_circuit_breaker(self, index):
        from repro.serve import CircuitBreaker

        stub = BatchStubPredictor(delay=1.0)

        async def go():
            server = StrategyServer(
                index,
                predictor=stub,
                recorder=Recorder(),
                predict_flush_timeout=0.1,
                breaker=CircuitBreaker(threshold=1, reset_timeout=60.0),
            )
            await server.start()
            try:
                body = _predict_body(
                    {"chip": "MALI", "app": "bfs-wl",
                     "input": "tiny-road", "config": "wg"}
                )
                s1, out1, _ = await http_request(
                    server.port, "POST", "/v1/predict", body
                )
                # The breaker opened on the flush timeout: this one
                # fast-fails without touching the engine.
                s2, out2, raw2 = await http_request(
                    server.port, "POST", "/v1/predict", body
                )
                counters = dict(server.recorder.counters)
                _, health, _ = await http_request(
                    server.port, "GET", "/healthz"
                )
            finally:
                await server.stop()
            return s1, s2, out2, counters, health

        s1, s2, out2, counters, health = run(go())
        assert s1 == 503
        assert s2 == 503
        assert "circuit breaker is open" in out2["error"]
        # The fast-fail never reached the engine: only the first
        # request's batch was ever dispatched.
        assert len(stub.batches) <= 1
        assert counters["serve.breaker.fast_fails"] == 1
        assert health["breaker"]["state"] == "open"

    def test_breaker_fast_fail_carries_retry_after(self, index):
        from repro.serve import CircuitBreaker

        async def go():
            server = StrategyServer(
                index,
                predictor=StubPredictor(),
                breaker=CircuitBreaker(threshold=1, reset_timeout=60.0),
            )
            await server.start()
            try:
                bad = _predict_body(
                    {"chip": "BOOM", "app": "bfs-wl",
                     "input": "tiny-road", "config": "wg"}
                )
                await http_request(
                    server.port, "POST", "/v1/predict", bad
                )  # PredictionError opens the threshold-1 breaker
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                try:
                    body = _predict_body(
                        {"chip": "MALI", "app": "bfs-wl",
                         "input": "tiny-road", "config": "wg"}
                    )
                    writer.write(
                        b"POST /v1/predict HTTP/1.1\r\n"
                        b"Content-Length: %d\r\n"
                        b"Connection: close\r\n\r\n" % len(body) + body
                    )
                    await writer.drain()
                    raw = await reader.read(65536)
                finally:
                    writer.close()
                    try:
                        await writer.wait_closed()
                    except ConnectionError:
                        pass
            finally:
                await server.stop()
            return raw

        raw = run(go())
        head = raw.split(b"\r\n\r\n", 1)[0]
        assert b"503" in head.split(b"\r\n", 1)[0]
        retry = [
            line for line in head.split(b"\r\n")
            if line.lower().startswith(b"retry-after:")
        ]
        assert retry, f"no Retry-After header in {head!r}"
        assert int(retry[0].split(b":")[1]) >= 1

    def test_disabled_deadline_lets_slow_batches_finish(self, index):
        stub = BatchStubPredictor(delay=0.3)

        async def go():
            server = StrategyServer(
                index,
                predictor=stub,
                predict_flush_timeout=0.0,  # disabled
            )
            await server.start()
            try:
                status, out, _ = await http_request(
                    server.port, "POST", "/v1/predict",
                    _predict_body(
                        {"chip": "MALI", "app": "bfs-wl",
                         "input": "tiny-road", "config": "wg"}
                    ),
                )
            finally:
                await server.stop()
            return status, out

        status, out = run(go())
        assert status == 200
        assert out["errors"] == 0

    def test_invalid_flush_timeout_rejected(self, index):
        from repro.serve import PredictCoalescer

        with pytest.raises(ServeError):
            PredictCoalescer(StubPredictor(), flush_timeout=-0.1)


class TestBreakerProbeLifecycle:
    """The half-open probe slot must never leak: a request admitted as
    the probe that dies without an engine outcome (400 after admission,
    every item failing local validation, cancellation) has to release
    the latch so the next request can probe instead."""

    def test_unadjudicated_requests_do_not_latch_the_probe(self, index):
        from repro.serve import CircuitBreaker

        class Clock:
            t = 0.0

            def __call__(self) -> float:
                return self.t

        clock = Clock()
        breaker = CircuitBreaker(threshold=1, reset_timeout=5.0, clock=clock)

        async def go():
            server = StrategyServer(
                index, predictor=StubPredictor(), breaker=breaker
            )
            await server.start()
            try:
                bad = _predict_body(
                    {"chip": "BOOM", "app": "bfs-wl",
                     "input": "tiny-road", "config": "wg"}
                )
                await http_request(
                    server.port, "POST", "/v1/predict", bad
                )  # PredictionError opens the threshold-1 breaker
                assert breaker.state == CircuitBreaker.OPEN
                clock.t = 5.0  # the reset window elapses: half-open next
                # Malformed JSON is rejected before the breaker is
                # consulted — it must not consume the probe slot.
                s1, _, _ = await http_request(
                    server.port, "POST", "/v1/predict", b'{"nope'
                )
                # A request whose only item fails local validation IS
                # admitted as the probe but never reaches the engine;
                # it must abandon the probe on the way out.
                s2, out2, _ = await http_request(
                    server.port, "POST", "/v1/predict",
                    _predict_body({"chip": "MALI", "app": "bfs-wl"}),
                )
                # The probe slot is free again: a good request probes,
                # succeeds, and closes the circuit.
                s3, out3, _ = await http_request(
                    server.port, "POST", "/v1/predict",
                    _predict_body(
                        {"chip": "MALI", "app": "bfs-wl",
                         "input": "tiny-road", "config": "wg"}
                    ),
                )
            finally:
                await server.stop()
            return s1, s2, out2, s3, out3

        s1, s2, out2, s3, out3 = run(go())
        assert s1 == 400
        assert s2 == 200 and out2["errors"] == 1
        assert s3 == 200 and out3["errors"] == 0
        assert breaker.state == CircuitBreaker.CLOSED


class TestControlPlaneAdmission:
    """/healthz and /metrics are exempt from admission shedding: an
    orchestrator probing a saturated-but-alive worker must see 200, or
    it kills the worker and makes the overload worse."""

    def test_health_and_metrics_answer_while_lookups_shed(self, index):
        from repro.serve import AdmissionController
        from repro.serve.admission import LOOKUP

        adm = AdmissionController(lookup_depth=1)
        assert adm.try_acquire(LOOKUP)  # pin the class at its watermark

        async def go():
            server = StrategyServer(index, admission=adm, recorder=Recorder())
            await server.start()
            try:
                s_lookup, shed, _ = await http_request(
                    server.port, "GET", "/v1/strategy?chip=MALI"
                )
                s_health, health, _ = await http_request(
                    server.port, "GET", "/healthz"
                )
                s_metrics, metrics, _ = await http_request(
                    server.port, "GET", "/metrics"
                )
            finally:
                await server.stop()
            return s_lookup, shed, s_health, health, s_metrics, metrics

        s_lookup, shed, s_health, health, s_metrics, metrics = run(go())
        assert s_lookup == 429
        assert shed["retry_after"] >= 1
        assert s_health == 200
        assert health["status"] == "ok"
        assert health["admission"]["shed"]["lookup"] == 1
        assert s_metrics == 200
        # Control-plane requests are not counted against the lookup
        # class either: pending stayed at the pinned slot only.
        assert metrics["counters"]["serve.shed.lookup"] == 1
