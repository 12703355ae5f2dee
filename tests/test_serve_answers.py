"""Tests for ISSUE 6's pre-serialized zero-encode answers table.

The contract has three legs: (1) the table covers every lattice point
the index can enumerate, (2) each pre-serialized body is byte-identical
to what the PR 5 server computed per request (pinned by the
``strategy-responses.json`` golden, captured with the unmodified PR 5
code), and (3) artifacts written *before* the table existed — the
committed ``strategy-index-pr5.json`` — still load and serve through
the encode-on-miss path.
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
    render_answer,
)
from repro.study.dataset import PerfDataset

GOLDEN_DATASET = "mini-dataset.json.gz"
GOLDEN_RESPONSES = "strategy-responses.json"
GOLDEN_PR5_INDEX = "strategy-index-pr5.json"


@pytest.fixture(scope="module")
def golden_dataset(goldens_dir) -> PerfDataset:
    return PerfDataset.load(os.path.join(goldens_dir, GOLDEN_DATASET))


@pytest.fixture(scope="module")
def index(golden_dataset) -> StrategyIndex:
    return build_index(golden_dataset)


@pytest.fixture(scope="module")
def golden_responses(goldens_dir) -> dict:
    with open(os.path.join(goldens_dir, GOLDEN_RESPONSES)) as f:
        return json.load(f)


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


class TestCompileAnswers:
    def test_table_covers_the_full_coordinate_lattice(self, index, golden_dataset):
        n_chips = len(golden_dataset.chips) + 1  # +1: dimension unnamed
        n_apps = len(golden_dataset.apps) + 1
        n_inputs = len(golden_dataset.graphs) + 1
        assert index.n_answers == n_chips * n_apps * n_inputs
        assert index.answer((None, None, None)) is not None
        for chip in golden_dataset.chips:
            for app in golden_dataset.apps:
                for inp in golden_dataset.graphs:
                    assert index.answer((chip, app, inp)) is not None

    def test_precompiled_bodies_match_render_answer(self, index):
        for (chip, app, inp), (body, degraded) in index.answers.items():
            rendered, rendered_degraded = render_answer(
                index, chip=chip, app=app, input=inp
            )
            assert body == rendered
            assert degraded == rendered_degraded

    def test_bodies_byte_identical_to_pr5_responses(
        self, index, golden_responses
    ):
        """Every golden body (captured with the PR 5 server code before
        this table existed) matches the pre-serialized bytes exactly."""
        checked = 0
        for key_str, golden_body in golden_responses.items():
            chip, app, inp = json.loads(key_str)
            pre = index.answer((chip, app, inp))
            if pre is not None:
                body, _ = pre
                assert body.decode("utf-8") == golden_body, (chip, app, inp)
                checked += 1
            else:
                # Unknown coordinates are outside the table by design;
                # the encode-on-miss path must still match the golden.
                body, _ = render_answer(index, chip=chip, app=app, input=inp)
                assert body.decode("utf-8") == golden_body, (chip, app, inp)
        assert checked == index.n_answers  # goldens cover the whole table

    def test_degraded_variants_are_precompiled(self, golden_dataset):
        """A holed dataset's fallback answers are in the table too."""
        holed = golden_dataset.subset(
            [
                t
                for t in golden_dataset.tests
                if not (t.chip == "MALI" and t.app == "bfs-wl")
            ]
        )
        index = build_index(holed)
        pre = index.answer(("MALI", "bfs-wl", "tiny-road"))
        assert pre is not None
        body, degraded = pre
        assert degraded
        payload = json.loads(body)
        assert payload["degraded"]
        assert "fell back" in payload["note"]


class TestArtifactRoundtrip:
    def test_answers_survive_save_load_byte_identical(self, index, tmp_path):
        path = str(tmp_path / "index.json")
        index.save(path)
        loaded = StrategyIndex.load(path)
        assert loaded.n_answers == index.n_answers
        assert loaded.answers == index.answers

    def test_tampered_answers_fail_the_checksum(self, index, tmp_path):
        path = str(tmp_path / "index.json")
        index.save(path)
        with open(path) as f:
            payload = json.load(f)
        key = next(iter(payload["index"]["answers"]))
        payload["index"]["answers"][key][0] = '{"config": "evil"}'
        with open(path, "w") as f:
            json.dump(payload, f)
        with pytest.raises(StrategyIndexError, match="checksum mismatch"):
            StrategyIndex.load(path)

    def test_malformed_answers_table_rejected(self, index):
        data = index.to_dict()
        data["answers"] = {"not-json-coords": "not-a-pair"}
        with pytest.raises(StrategyIndexError, match="malformed"):
            StrategyIndex.from_dict(data)


class TestBackwardCompat:
    """A ``strategy-index-v1`` artifact without the table still serves."""

    def test_pr5_golden_artifact_loads_without_answers(self, goldens_dir):
        legacy = StrategyIndex.load(os.path.join(goldens_dir, GOLDEN_PR5_INDEX))
        assert legacy.n_answers == 0
        assert legacy.n_entries == 49
        answer = legacy.lookup(chip="MALI", app="bfs-wl", input="tiny-road")
        assert not answer.degraded

    def test_pr5_artifact_serves_via_encode_on_miss(
        self, goldens_dir, golden_responses
    ):
        legacy = StrategyIndex.load(os.path.join(goldens_dir, GOLDEN_PR5_INDEX))

        async def go():
            server = StrategyServer(legacy, recorder=Recorder())
            await server.start()
            try:
                s1, b1 = await http_get(
                    server.port,
                    "/v1/strategy?chip=MALI&app=bfs-wl&input=tiny-road",
                )
                s2, b2 = await http_get(
                    server.port,
                    "/v1/strategy?chip=MALI&app=bfs-wl&input=tiny-road",
                )
                counters = dict(server.recorder.counters)
            finally:
                await server.stop()
            return s1, b1, s2, b2, counters

        s1, b1, s2, b2, counters = run(go())
        assert s1 == s2 == 200
        assert b1 == b2
        golden = golden_responses[json.dumps(["MALI", "bfs-wl", "tiny-road"])]
        assert b1.decode("utf-8") == golden
        # No table: every answer is rendered, into the same bytes.
        assert "serve.answers.precompiled" not in counters
        assert counters["serve.answers.rendered"] == 2

    def test_pr5_artifact_roundtrips_byte_identical(
        self, goldens_dir, tmp_path
    ):
        """Loading and re-saving the pre-answers, pre-portfolios golden
        must not churn a byte (or its checksum): optional sections an
        artifact never had stay omitted from the re-serialization."""
        source = os.path.join(goldens_dir, GOLDEN_PR5_INDEX)
        legacy = StrategyIndex.load(source)
        assert legacy.portfolios is None
        resaved = str(tmp_path / "resaved.json")
        legacy.save(resaved)
        with open(source, "rb") as f1, open(resaved, "rb") as f2:
            assert f1.read() == f2.read()

    def test_pr5_artifact_has_no_portfolio_table(self, goldens_dir):
        from repro.errors import StrategyIndexError as SIE

        legacy = StrategyIndex.load(os.path.join(goldens_dir, GOLDEN_PR5_INDEX))
        with pytest.raises(SIE, match="repro index --portfolios"):
            legacy.lookup_portfolio(chip="MALI")
