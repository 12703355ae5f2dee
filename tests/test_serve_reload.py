"""In-process tests for index hot-reload (SIGHUP / POST /admin/reload).

The contract under test: a reload re-reads ``index_path``, validates
the candidate through the same checksum + format-tag gauntlet as
:meth:`StrategyIndex.load`, and atomically swaps it in (generation
bump; every later answer, precompiled or rendered, comes from the new
index).  *Any* validation failure — truncated
file, garbled bytes, a chaos-armed corrupt token — rolls back by doing
nothing: the old index keeps serving and the generation is untouched.
"""

from __future__ import annotations

import asyncio
import json
import os

import pytest

from repro.faults import SERVE_RELOAD_CORRUPT, FaultPlan
from repro.obs import Recorder
from repro.serve import StrategyServer, build_index, render_answer
from repro.study.dataset import PerfDataset

from tests.test_serve_server import http_request, run

GOLDEN_DATASET = "mini-dataset.json.gz"


@pytest.fixture(scope="module")
def golden_dataset(goldens_dir) -> PerfDataset:
    return PerfDataset.load(os.path.join(goldens_dir, GOLDEN_DATASET))


@pytest.fixture()
def index_file(golden_dataset, tmp_path) -> str:
    path = str(tmp_path / "index.json")
    build_index(golden_dataset).save(path)
    return path


class TestReload:
    def test_successful_reload_bumps_generation_and_clears_cache(
        self, golden_dataset, index_file
    ):
        async def go():
            recorder = Recorder()
            server = StrategyServer(
                build_index(golden_dataset),
                recorder=recorder,
                index_path=index_file,
            )
            await server.start()
            try:
                target = "/v1/strategy?chip=MALI&app=bfs-wl&input=tiny-road"
                _, _, before = await http_request(server.port, "GET", target)
                # Replace the on-disk artifact with one that also
                # carries portfolios: observable via /healthz.
                build_index(golden_dataset, portfolios=True).save(index_file)
                result = await server.reload_index()
                _, health, _ = await http_request(
                    server.port, "GET", "/healthz"
                )
                _, _, after = await http_request(server.port, "GET", target)
            finally:
                await server.stop()
            return recorder.snapshot(), result, health, before, after

        snap, result, health, before, after = run(go())
        assert result["reloaded"] is True
        assert result["generation"] == 1
        assert health["index_generation"] == 1
        assert health["reloads"] == {"ok": 1, "failed": 0}
        assert "portfolio_curves" in health
        assert after == before  # same dataset: byte-identical answers
        assert snap["counters"]["serve.reload.attempts"] == 1
        assert snap["counters"]["serve.reload.success"] == 1
        assert "serve.reload.failures" not in snap["counters"]

    def test_rendered_answer_comes_from_the_new_index(
        self, golden_dataset, index_file
    ):
        """An unknown-coordinate answer is rendered per request, so one
        served before a reload can never outlive the index it came from."""
        gone = golden_dataset.chips[0]
        holed = PerfDataset()
        for test, config, times in golden_dataset.iter_measurements():
            if test.chip != gone:
                holed.add(test, config, times)
        new_index = build_index(holed)
        new_index.save(index_file)
        target = "/v1/strategy?chip=UNKNOWN&app=bfs-wl"

        async def go():
            server = StrategyServer(
                build_index(golden_dataset),
                recorder=Recorder(),
                index_path=index_file,
            )
            await server.start()
            try:
                _, _, before = await http_request(server.port, "GET", target)
                result = await server.reload_index()
                _, _, after = await http_request(server.port, "GET", target)
            finally:
                await server.stop()
            return server.recorder.snapshot(), result, before, after

        snap, result, before, after = run(go())
        assert result["reloaded"] is True
        assert after != before
        body, _ = render_answer(new_index, chip="UNKNOWN", app="bfs-wl")
        assert after == body
        assert snap["counters"]["serve.answers.rendered"] == 2

    def test_corrupt_candidate_rolls_back(self, golden_dataset, index_file):
        async def go():
            recorder = Recorder()
            server = StrategyServer(
                build_index(golden_dataset),
                recorder=recorder,
                index_path=index_file,
            )
            await server.start()
            try:
                target = "/v1/strategy?chip=MALI&app=bfs-wl&input=tiny-road"
                _, _, before = await http_request(server.port, "GET", target)
                # Truncate the artifact on disk mid-"deploy".
                with open(index_file, "r+", encoding="utf-8") as f:
                    text = f.read()
                    f.seek(0)
                    f.truncate()
                    f.write(text[: len(text) // 2])
                result = await server.reload_index()
                _, _, after = await http_request(server.port, "GET", target)
                _, health, _ = await http_request(
                    server.port, "GET", "/healthz"
                )
            finally:
                await server.stop()
            return recorder.snapshot(), result, health, before, after

        snap, result, health, before, after = run(go())
        assert result["reloaded"] is False
        assert "error" in result
        assert result["generation"] == 0
        assert health["index_generation"] == 0
        assert health["reloads"] == {"ok": 0, "failed": 1}
        assert after == before  # the old index kept serving
        assert snap["counters"]["serve.reload.failures"] == 1

    def test_chaos_corrupt_token_garbles_one_reload(
        self, golden_dataset, index_file, tmp_path
    ):
        """The serve.reload fault point: the first reload's candidate
        is garbled after read (rollback), the next one is clean."""
        plan = FaultPlan(str(tmp_path / "faults"))
        plan.arm("corrupt", SERVE_RELOAD_CORRUPT)

        async def go():
            server = StrategyServer(
                build_index(golden_dataset),
                index_path=index_file,
                faults=plan,
            )
            await server.start()
            try:
                first = await server.reload_index()
                second = await server.reload_index()
            finally:
                await server.stop()
            return first, second

        first, second = run(go())
        assert first["reloaded"] is False
        assert first["generation"] == 0
        assert second["reloaded"] is True
        assert second["generation"] == 1
        assert plan.armed() == []  # the token was consumed

    def test_request_reload_is_schedulable_from_a_signal_handler(
        self, golden_dataset, index_file
    ):
        """SIGHUP handlers cannot await; request_reload schedules the
        coroutine onto the running loop instead."""

        async def go():
            server = StrategyServer(
                build_index(golden_dataset), index_path=index_file
            )
            await server.start()
            try:
                server.request_reload()
                for _ in range(100):
                    if server.index_generation:
                        break
                    await asyncio.sleep(0.01)
            finally:
                await server.stop()
            return server.index_generation

        assert run(go()) == 1

    def test_reload_without_index_path_refuses(self, golden_dataset):
        async def go():
            server = StrategyServer(build_index(golden_dataset))
            await server.start()
            try:
                return await server.reload_index()
            finally:
                await server.stop()

        result = run(go())
        assert result["reloaded"] is False
        assert "no index path" in result["error"]


class TestAdminEndpoint:
    def test_admin_reload_and_health_on_loopback_port(
        self, golden_dataset, index_file
    ):
        async def go():
            server = StrategyServer(
                build_index(golden_dataset),
                index_path=index_file,
                admin_port=0,
            )
            await server.start()
            assert server.admin_port not in (None, 0)
            assert server.admin_port != server.port
            try:
                status, body, _ = await http_request(
                    server.admin_port, "POST", "/admin/reload"
                )
                hstatus, health, _ = await http_request(
                    server.admin_port, "GET", "/admin/health"
                )
                # The admin surface is not mounted on the public port.
                pstatus, _, _ = await http_request(
                    server.port, "POST", "/admin/reload"
                )
            finally:
                await server.stop()
            return status, body, hstatus, health, pstatus

        status, body, hstatus, health, pstatus = run(go())
        assert status == 200
        assert body["reloaded"] is True
        assert hstatus == 200
        assert health["index_generation"] == 1
        assert pstatus == 404

    def test_admin_reload_failure_is_409(self, golden_dataset):
        async def go():
            server = StrategyServer(
                build_index(golden_dataset), admin_port=0
            )  # no index_path: reload must refuse
            await server.start()
            try:
                status, body, _ = await http_request(
                    server.admin_port, "POST", "/admin/reload"
                )
                gstatus, _, _ = await http_request(
                    server.admin_port, "GET", "/admin/reload"
                )
            finally:
                await server.stop()
            return status, body, gstatus

        status, body, gstatus = run(go())
        assert status == 409
        assert body["reloaded"] is False
        assert gstatus == 405
