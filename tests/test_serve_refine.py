"""In-process tests for ``GET /v1/strategy?refine=1``.

The refine mode is the server half of the budgeted-autotuning loop:
live ``POST /v1/predict`` pricings accumulate in a bounded
:class:`~repro.serve.refine.ObservationStore`, and a strategy query
that would otherwise be served a degraded (fallen-back) answer may opt
into exploiting them.  The precedence contract under test:

* an exact, non-degraded index cell always wins (offline ground truth
  beats live samples) — the response is byte-identical to the
  non-refine path;
* a degraded answer with no live evidence falls back exactly as
  before, byte-identically;
* a degraded answer with live evidence for the precise cell is
  replaced by a ``"refined": true`` answer with provenance;
* the refine counters reconcile:
  ``serve.refine.requests == served + misses + exact``.
"""

from __future__ import annotations

import asyncio
import json
import os

import pytest

from repro.errors import ServeError
from repro.obs import Recorder
from repro.serve import ObservationStore, StrategyServer, build_index
from repro.study.dataset import PerfDataset

from .test_serve_server import StubPredictor, http_request, run

GOLDEN_DATASET = "mini-dataset.json.gz"


@pytest.fixture(scope="module")
def golden_dataset(goldens_dir) -> PerfDataset:
    return PerfDataset.load(os.path.join(goldens_dir, GOLDEN_DATASET))


@pytest.fixture(scope="module")
def index(golden_dataset):
    return build_index(golden_dataset)


def _strategy_target(chip, app, inp, refine=None):
    target = f"/v1/strategy?chip={chip}&app={app}&input={inp}"
    if refine is not None:
        target += f"&refine={refine}"
    return target


def _predict_body(chip, app, inp, config="baseline"):
    return json.dumps(
        {"chip": chip, "app": app, "input": inp, "config": config}
    ).encode()


class TestObservationStore:
    def test_rejects_non_positive_capacity(self):
        with pytest.raises(ServeError):
            ObservationStore(0)

    def test_best_is_lowest_mean_median_tie_on_key(self):
        store = ObservationStore()
        store.record("c", "a", "i", "bbb", (30.0, 10.0, 20.0))  # median 20
        store.record("c", "a", "i", "aaa", (20.0,))
        assert store.best("c", "a", "i") == ("aaa", 20.0, 2)
        # Another observation moves bbb's mean below aaa's.
        store.record("c", "a", "i", "bbb", (4.0,))
        config, mean, n = store.best("c", "a", "i")
        assert config == "bbb" and mean == 12.0 and n == 3
        assert store.best("c", "a", "other") is None

    def test_eviction_is_lru_and_counted(self):
        store = ObservationStore(2)
        store.record("c1", "a", "i", "x", (1.0,))
        store.record("c2", "a", "i", "x", (1.0,))
        store.best("c1", "a", "i")  # refresh c1: c2 is now oldest
        store.record("c3", "a", "i", "x", (1.0,))
        assert store.best("c2", "a", "i") is None
        assert store.best("c1", "a", "i") is not None
        assert len(store) == 2
        stats = store.stats()
        assert stats == {
            "cells": 2, "capacity": 2, "recorded": 3, "evicted": 1,
        }

    def test_empty_times_are_ignored(self):
        store = ObservationStore()
        store.record("c", "a", "i", "x", ())
        assert len(store) == 0 and store.recorded == 0


class TestRefineEndpoint:
    def test_fresh_degraded_query_falls_back_byte_identically(self, index):
        async def go():
            server = StrategyServer(index)
            await server.start()
            try:
                t = _strategy_target("NOPE", "bfs-wl", "tiny-road")
                s1, _, raw_plain = await http_request(
                    server.port, "GET", t
                )
                s2, body, raw_refine = await http_request(
                    server.port, "GET", t + "&refine=1"
                )
            finally:
                await server.stop()
            return s1, s2, raw_plain, raw_refine, body

        s1, s2, raw_plain, raw_refine, body = run(go())
        assert s1 == s2 == 200
        assert raw_refine == raw_plain  # no evidence: identical bytes
        assert body["degraded"] and "refined" not in body

    def test_exact_cell_outranks_live_observations(self, index,
                                                   golden_dataset):
        """Offline ground truth wins: even with live observations for
        the cell, a non-degraded index answer is served unchanged."""
        t = golden_dataset.tests[0]

        async def go():
            server = StrategyServer(index, predictor=StubPredictor())
            await server.start()
            try:
                await http_request(
                    server.port, "POST", "/v1/predict",
                    _predict_body(t.chip, t.app, t.graph),
                )
                target = _strategy_target(t.chip, t.app, t.graph)
                _, _, raw_plain = await http_request(
                    server.port, "GET", target
                )
                _, body, raw_refine = await http_request(
                    server.port, "GET", target + "&refine=1"
                )
            finally:
                await server.stop()
            return raw_plain, raw_refine, body

        raw_plain, raw_refine, body = run(go())
        assert raw_refine == raw_plain
        assert not body["degraded"] and "refined" not in body

    def test_degraded_cell_refines_from_predict_traffic(self, index):
        async def go():
            server = StrategyServer(index, predictor=StubPredictor())
            await server.start()
            try:
                await http_request(
                    server.port, "POST", "/v1/predict",
                    _predict_body("NOPE", "bfs-wl", "tiny-road", "wg"),
                )
                target = _strategy_target(
                    "NOPE", "bfs-wl", "tiny-road", refine="1"
                )
                s, body, _ = await http_request(server.port, "GET", target)
                # The plain path is untouched by the refine store.
                _, plain, _ = await http_request(
                    server.port, "GET",
                    _strategy_target("NOPE", "bfs-wl", "tiny-road"),
                )
                _, health, _ = await http_request(
                    server.port, "GET", "/healthz"
                )
            finally:
                await server.stop()
            return s, body, plain, health

        s, body, plain, health = run(go())
        assert s == 200
        assert body["refined"] is True
        assert body["served_level"] == "refined"
        assert body["degraded"] is False
        assert body["config"] == "wg"
        assert body["observations"] == 1
        assert "live /v1/predict" in body["note"]
        assert "index fallback" in body["note"]
        assert body["query"] == {
            "chip": "NOPE", "app": "bfs-wl", "input": "tiny-road",
        }
        assert plain["degraded"] and "refined" not in plain
        assert health["refine_cells"] == 1

    def test_partial_coordinates_never_refine(self, index):
        async def go():
            server = StrategyServer(index, predictor=StubPredictor())
            await server.start()
            try:
                await http_request(
                    server.port, "POST", "/v1/predict",
                    _predict_body("NOPE", "bfs-wl", "tiny-road"),
                )
                _, _, raw_plain = await http_request(
                    server.port, "GET", "/v1/strategy?chip=NOPE"
                )
                s, body, raw_refine = await http_request(
                    server.port, "GET", "/v1/strategy?chip=NOPE&refine=1"
                )
            finally:
                await server.stop()
            return s, body, raw_plain, raw_refine

        s, body, raw_plain, raw_refine = run(go())
        assert s == 200
        assert raw_refine == raw_plain
        assert "refined" not in body

    def test_refine_zero_and_bad_values(self, index):
        async def go():
            server = StrategyServer(index)
            await server.start()
            try:
                t = _strategy_target("NOPE", "bfs-wl", "tiny-road")
                _, _, raw_plain = await http_request(server.port, "GET", t)
                s0, _, raw_zero = await http_request(
                    server.port, "GET", t + "&refine=0"
                )
                s_bad, err, _ = await http_request(
                    server.port, "GET", t + "&refine=yes"
                )
            finally:
                await server.stop()
            return raw_plain, s0, raw_zero, s_bad, err

        raw_plain, s0, raw_zero, s_bad, err = run(go())
        assert s0 == 200 and raw_zero == raw_plain
        assert s_bad == 400
        assert "refine" in err["error"]

    def test_counters_reconcile(self, index, golden_dataset):
        t = golden_dataset.tests[0]

        async def go():
            rec = Recorder()
            server = StrategyServer(
                index, predictor=StubPredictor(), recorder=rec
            )
            await server.start()
            try:
                # miss (degraded, no evidence), exact, partial miss,
                # then a served refinement.
                miss = _strategy_target(
                    "NOPE", "bfs-wl", "tiny-road", refine="1"
                )
                await http_request(server.port, "GET", miss)
                await http_request(
                    server.port, "GET",
                    _strategy_target(t.chip, t.app, t.graph, refine="1"),
                )
                await http_request(
                    server.port, "GET", "/v1/strategy?app=bfs-wl&refine=1"
                )
                await http_request(
                    server.port, "POST", "/v1/predict",
                    _predict_body("NOPE", "bfs-wl", "tiny-road"),
                )
                await http_request(server.port, "GET", miss)
                _, metrics, _ = await http_request(
                    server.port, "GET", "/metrics"
                )
            finally:
                await server.stop()
            return metrics

        metrics = run(go())
        c = metrics["counters"]
        assert c["serve.refine.requests"] == 4
        assert c["serve.refine.served"] == 1
        assert c["serve.refine.exact"] == 1
        assert c["serve.refine.misses"] == 2
        assert c["serve.refine.recorded"] == 1
        assert c["serve.refine.requests"] == (
            c["serve.refine.served"]
            + c["serve.refine.misses"]
            + c["serve.refine.exact"]
        )
        assert metrics["refine"] == {
            "cells": 1, "capacity": 256, "recorded": 1, "evicted": 0,
        }

    def test_refined_answers_are_never_cached(self, index):
        """A refined answer must reflect the store at request time:
        new predict traffic changes the next refined response."""
        async def go():
            server = StrategyServer(index, predictor=StubPredictor())
            await server.start()
            try:
                target = _strategy_target(
                    "NOPE", "bfs-wl", "tiny-road", refine="1"
                )
                await http_request(
                    server.port, "POST", "/v1/predict",
                    _predict_body("NOPE", "bfs-wl", "tiny-road", "wg"),
                )
                _, first, _ = await http_request(server.port, "GET", target)
                await http_request(
                    server.port, "POST", "/v1/predict",
                    _predict_body("NOPE", "bfs-wl", "tiny-road", "wg"),
                )
                _, second, _ = await http_request(server.port, "GET", target)
            finally:
                await server.stop()
            return first, second

        first, second = run(go())
        assert first["observations"] == 1
        assert second["observations"] == 2


class TestRefineDegradedIndexPrecedence:
    """Satellite of the degraded-mode suite: a *holed* index (a chip
    dropped from the source dataset) serves degraded answers that
    refine=1 may override, while surviving cells stay authoritative."""

    def test_dropped_chip_refines_but_survivors_do_not(
        self, golden_dataset
    ):
        gone = golden_dataset.chips[0]
        holed = PerfDataset()
        for test, config, times in golden_dataset.iter_measurements():
            if test.chip == gone:
                continue
            holed.add(test, config, times)
        holed_index = build_index(holed)
        t = holed.tests[0]

        async def go():
            server = StrategyServer(
                holed_index, predictor=StubPredictor()
            )
            await server.start()
            try:
                for chip in (gone, t.chip):
                    await http_request(
                        server.port, "POST", "/v1/predict",
                        _predict_body(chip, t.app, t.graph),
                    )
                _, dropped, _ = await http_request(
                    server.port, "GET",
                    _strategy_target(gone, t.app, t.graph, refine="1"),
                )
                _, survivor, _ = await http_request(
                    server.port, "GET",
                    _strategy_target(t.chip, t.app, t.graph, refine="1"),
                )
            finally:
                await server.stop()
            return dropped, survivor

        dropped, survivor = run(go())
        assert dropped["refined"] is True
        assert dropped["served_level"] == "refined"
        assert survivor.get("refined") is None
        assert not survivor["degraded"]
