"""Differential tests for ``GET /v1/portfolio``.

The served bytes must be *identical* along three routes: the
pre-serialized table compiled into the artifact, the on-demand
:func:`~repro.serve.index.render_portfolio_answer` encoding over a
freshly built index, and what the HTTP server actually puts on the
wire — for every (chip, app, input, k) lattice point.  The
``portfolio-responses.json`` golden pins the encoding itself across
sessions (refresh with ``pytest --update-goldens``).
"""

from __future__ import annotations

import asyncio
import json
import os

import pytest

from repro.errors import StrategyIndexError
from repro.obs import Recorder
from repro.serve import (
    StrategyIndex,
    StrategyServer,
    build_index,
    render_portfolio_answer,
)
from repro.study.dataset import PerfDataset

GOLDEN_DATASET = "mini-dataset.json.gz"
GOLDEN_RESPONSES = "portfolio-responses.json"

#: Portfolio sizes the differential sweep queries (None = default
#: target-driven sizing, the pre-serialized hot path).
K_SWEEP = (None, 1, 2, 3)


@pytest.fixture(scope="module")
def golden_dataset(goldens_dir) -> PerfDataset:
    return PerfDataset.load(os.path.join(goldens_dir, GOLDEN_DATASET))


@pytest.fixture(scope="module")
def index(golden_dataset) -> StrategyIndex:
    return build_index(golden_dataset, portfolios=True)


def _coordinates(dataset):
    for chip in [None] + dataset.chips:
        for app in [None] + dataset.apps:
            for inp in [None] + dataset.graphs:
                yield chip, app, inp


def run(coro):
    loop = asyncio.new_event_loop()
    try:
        return loop.run_until_complete(coro)
    finally:
        loop.close()


async def http_get(port: int, target: str):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(
        f"GET {target} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n".encode()
    )
    await writer.drain()
    raw = await reader.read()
    writer.close()
    head, _, body = raw.partition(b"\r\n\r\n")
    status = int(head.split(None, 2)[1])
    return status, body


def _query(chip, app, inp, k=None, target=None) -> str:
    parts = [
        f"{name}={value}"
        for name, value in (
            ("chip", chip),
            ("app", app),
            ("input", inp),
            ("k", k),
            ("target", target),
        )
        if value is not None
    ]
    return "/v1/portfolio" + ("?" + "&".join(parts) if parts else "")


class TestPrecompiledTable:
    def test_covers_the_full_coordinate_lattice(self, index, golden_dataset):
        n_chips = len(golden_dataset.chips) + 1  # +1: dimension unnamed
        n_apps = len(golden_dataset.apps) + 1
        n_inputs = len(golden_dataset.graphs) + 1
        assert index.n_portfolio_answers == n_chips * n_apps * n_inputs
        for coord in _coordinates(golden_dataset):
            assert index.portfolio_answer(coord) is not None

    def test_bodies_match_render_portfolio_answer(self, index):
        for (chip, app, inp), (body, degraded) in sorted(
            index.portfolio_answers.items(), key=lambda kv: repr(kv[0])
        ):
            rendered, rendered_degraded = render_portfolio_answer(
                index, chip=chip, app=app, input=inp
            )
            assert body == rendered
            assert degraded == rendered_degraded

    def test_describe_mentions_the_curves(self, index):
        assert "portfolio curves" in index.describe()


class TestServedBytesDifferential:
    def test_http_equals_offline_equals_golden(
        self, index, golden_dataset, goldens_dir, update_goldens
    ):
        """One server, every lattice point, every K in the sweep: the
        wire bytes must equal the offline encoding, and (unless
        refreshing) the committed golden."""
        golden_path = os.path.join(goldens_dir, GOLDEN_RESPONSES)

        async def sweep():
            server = StrategyServer(index, recorder=Recorder())
            await server.start()
            out = {}
            try:
                for chip, app, inp in _coordinates(golden_dataset):
                    for k in K_SWEEP:
                        status, body = await http_get(
                            server.port, _query(chip, app, inp, k=k)
                        )
                        assert status == 200, (chip, app, inp, k)
                        out[json.dumps([chip, app, inp, k])] = body
            finally:
                await server.stop()
            return out

        served = run(sweep())
        for key_str, body in served.items():
            chip, app, inp, k = json.loads(key_str)
            offline, _ = render_portfolio_answer(
                index, chip=chip, app=app, input=inp, k=k
            )
            assert body == offline, key_str

        if update_goldens:
            with open(golden_path, "w") as f:
                json.dump(
                    {k: v.decode("utf-8") for k, v in sorted(served.items())},
                    f,
                    indent=1,
                    sort_keys=True,
                )
            pytest.skip("golden refreshed")
        with open(golden_path) as f:
            golden = json.load(f)
        assert set(golden) == set(served)
        for key_str, body in served.items():
            assert body.decode("utf-8") == golden[key_str], key_str

    def test_payload_shape(self, index):
        body, degraded = render_portfolio_answer(
            index, chip="MALI", app="bfs-wl", input="tiny-road"
        )
        payload = json.loads(body)
        assert not degraded and not payload["degraded"]
        assert payload["requested_level"] == "chip+app+input"
        assert payload["served_level"] == "chip+app+input"
        assert payload["k"] == len(payload["configs"])
        assert payload["target"] == 0.95
        assert payload["meets_target"] is True
        assert payload["coverage"] >= 0.95
        # Curve provenance: cumulative coverage with marginal gains.
        assert payload["curve"][0]["config"] == payload["configs"][0]
        assert payload["curve"][-1]["coverage"] == 1.0
        assert payload["query"] == {
            "chip": "MALI",
            "app": "bfs-wl",
            "input": "tiny-road",
            "k": None,
            "target": None,
        }

    def test_unknown_coordinate_falls_back_marked_degraded(self, index):
        body, degraded = render_portfolio_answer(
            index, chip="MALI", app="mis-wl", input=None
        )
        payload = json.loads(body)
        assert degraded and payload["degraded"]
        assert payload["requested_level"] == "chip+app"
        assert payload["served_level"] == "chip"
        assert "fell back" in payload["note"]


BAD_QUERIES = [
    ("?k=0", "'k' must be positive"),
    ("?k=-3", "'k' must be positive"),
    ("?k=two", "'k' must be a positive integer"),
    ("?target=0", "'target' must be in (0, 1]"),
    ("?target=1.5", "'target' must be in (0, 1]"),
    ("?target=nan", "'target' must be in (0, 1]"),
    ("?target=soon", "'target' must be a fraction"),
    ("?flavour=mild", "unknown query parameter"),
    ("?chip=", "empty value"),
]


class TestEndpointValidation:
    def test_bad_parameters_are_400(self, index):
        async def go():
            server = StrategyServer(index, recorder=Recorder())
            await server.start()
            try:
                return [
                    await http_get(server.port, "/v1/portfolio" + query)
                    for query, _ in BAD_QUERIES
                ]
            finally:
                await server.stop()

        for (query, fragment), (status, body) in zip(BAD_QUERIES, run(go())):
            assert status == 400, query
            assert fragment in json.loads(body)["error"], query

    def test_post_is_405_and_healthz_reports_curves(self, index):
        async def go():
            server = StrategyServer(index, recorder=Recorder())
            await server.start()
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                writer.write(
                    b"POST /v1/portfolio HTTP/1.1\r\nHost: t\r\n"
                    b"Content-Length: 0\r\nConnection: close\r\n\r\n"
                )
                await writer.drain()
                raw = await reader.read()
                writer.close()
                health = await http_get(server.port, "/healthz")
            finally:
                await server.stop()
            return int(raw.split(None, 2)[1]), health

        post_status, (h_status, h_body) = run(go())
        assert post_status == 405
        assert h_status == 200
        assert (
            json.loads(h_body)["portfolio_curves"]
            == index.portfolios.n_curves
        )


class TestCountersReconcile:
    def test_portfolio_counters_in_metrics(self, index):
        """A known request sequence leaves exactly the expected trail:
        precompiled hits, rendered answers, one fallback — and
        the response classes sum back to the request count."""

        async def go():
            server = StrategyServer(index, recorder=Recorder())
            await server.start()
            try:
                # 2x default params: precompiled table.
                for _ in range(2):
                    await http_get(
                        server.port, _query("MALI", "bfs-wl", "tiny-road")
                    )
                # 2x explicit k: rendered both times.
                for _ in range(2):
                    await http_get(
                        server.port,
                        _query("MALI", "bfs-wl", "tiny-road", k=2),
                    )
                # Unknown app: degraded, and outside the table, so
                # rendered.
                await http_get(server.port, _query("MALI", "mis-wl", None))
                # One bad request.
                await http_get(server.port, "/v1/portfolio?k=0")
                _, metrics_body = await http_get(server.port, "/metrics")
            finally:
                await server.stop()
            return json.loads(metrics_body)

        metrics = run(go())
        counters = metrics["counters"]
        assert counters["serve.requests.portfolio"] == 6
        assert counters["serve.portfolio.precompiled"] == 2
        assert counters["serve.portfolio.rendered"] == 3
        assert counters["serve.fallbacks"] == 1
        assert counters["serve.responses.4xx"] == 1
        # Reconciliation: every request is counted exactly once by
        # endpoint and exactly once by response class (the /metrics
        # scrape itself responds after the snapshot).
        assert counters["serve.requests"] == 7
        assert (
            counters["serve.responses.2xx"]
            + counters["serve.responses.4xx"]
            == counters["serve.requests.portfolio"]
        )


class TestArtifactRoundtrip:
    def test_portfolios_survive_save_load_byte_identical(
        self, index, tmp_path
    ):
        path = str(tmp_path / "index.json")
        index.save(path)
        loaded = StrategyIndex.load(path)
        assert loaded.portfolios is not None
        assert loaded.portfolios.to_dict() == index.portfolios.to_dict()
        assert loaded.portfolio_answers == index.portfolio_answers
        resaved = str(tmp_path / "again.json")
        loaded.save(resaved)
        with open(path, "rb") as f1, open(resaved, "rb") as f2:
            assert f1.read() == f2.read()

    def test_tampered_portfolio_fails_the_checksum(self, index, tmp_path):
        path = str(tmp_path / "index.json")
        index.save(path)
        with open(path) as f:
            payload = json.load(f)
        level = payload["index"]["portfolios"]["levels"]["global"]
        level[0]["steps"][0]["config"] = "evil"
        with open(path, "w") as f:
            json.dump(payload, f)
        with pytest.raises(StrategyIndexError, match="checksum mismatch"):
            StrategyIndex.load(path)

    def test_malformed_portfolio_section_rejected(self, index):
        data = index.to_dict()
        data["portfolios"] = {"levels": {"no-such-level": []}}
        with pytest.raises(StrategyIndexError, match="no-such-level"):
            StrategyIndex.from_dict(data)
        data["portfolios"] = ["not", "a", "mapping"]
        with pytest.raises(StrategyIndexError, match="malformed"):
            StrategyIndex.from_dict(data)


class TestWithoutPortfolios:
    def test_lookup_raises_with_rebuild_hint(self, golden_dataset):
        plain = build_index(golden_dataset)
        assert plain.portfolios is None
        assert plain.n_portfolio_answers == 0
        with pytest.raises(StrategyIndexError, match="--portfolios"):
            plain.lookup_portfolio()
        with pytest.raises(StrategyIndexError, match="--portfolios"):
            plain.compile_portfolio_answers()

    def test_endpoint_is_501_with_rebuild_hint(self, golden_dataset):
        plain = build_index(golden_dataset)

        async def go():
            server = StrategyServer(plain, recorder=Recorder())
            await server.start()
            try:
                status, body = await http_get(
                    server.port, _query("MALI", "bfs-wl", "tiny-road")
                )
                health = await http_get(server.port, "/healthz")
            finally:
                await server.stop()
            return status, body, health

        status, body, (h_status, h_body) = run(go())
        assert status == 501
        assert "repro index --portfolios" in json.loads(body)["error"]
        # The pre-portfolio health payload is unchanged.
        assert h_status == 200
        assert "portfolio_curves" not in json.loads(h_body)
