"""End-to-end tests for the ``repro index`` / ``repro serve`` CLIs.

These drive real subprocesses through the same entry points an operator
uses: compile the artifact with ``python -m repro index``, boot the
server with ``python -m repro serve --port 0``, parse the advertised
port off stderr, and hammer it with concurrent ``http.client``
connections.  ISSUE 5's acceptance criteria live here: eight clients
must read byte-identical strategy answers that match the offline
``core.strategies`` path, a holed dataset must degrade to the exact
expected lattice level, ``/metrics`` must reconcile with the requests
sent, and SIGTERM/SIGINT must produce a clean exit 0.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core.strategies import build_strategies
from repro.serve import StrategyIndex
from repro.study.dataset import PerfDataset, TestCase

GOLDEN_DATASET = "mini-dataset.json.gz"
_ENV = dict(os.environ, PYTHONPATH="src")
_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _run_cli(*argv, timeout=120):
    return subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        cwd=_ROOT,
        env=_ENV,
        capture_output=True,
        text=True,
        timeout=timeout,
    )


class ServerProcess:
    """``python -m repro serve`` wrapped for tests."""

    def __init__(self, index_path: str, *extra: str) -> None:
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                index_path, "--port", "0", "--no-predict", *extra,
            ],
            cwd=_ROOT,
            env=_ENV,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        self.port = self._await_port()

    def _await_port(self) -> int:
        # The listening line is printed (flushed) before accepting.
        line = self.proc.stderr.readline()
        if "listening on http://" not in line:
            rest = self.proc.stderr.read()
            raise AssertionError(f"server did not start: {line!r} {rest!r}")
        return int(line.split("http://", 1)[1].split()[0].rsplit(":", 1)[1])

    def get(self, target: str):
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            conn.request("GET", target)
            resp = conn.getresponse()
            return resp.status, resp.read()
        finally:
            conn.close()

    def finish(self, sig=signal.SIGTERM, timeout=30):
        """Signal the server and return (exit_code, stderr)."""
        self.proc.send_signal(sig)
        try:
            code = self.proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            raise
        return code, self.proc.stderr.read()

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        self.proc.stderr.close()


@pytest.fixture(scope="module")
def golden_dataset_path(goldens_dir) -> str:
    return os.path.join(goldens_dir, GOLDEN_DATASET)


@pytest.fixture(scope="module")
def index_path(golden_dataset_path, tmp_path_factory) -> str:
    out = str(tmp_path_factory.mktemp("e2e") / "index.json")
    result = _run_cli("index", golden_dataset_path, out)
    assert result.returncode == 0, result.stderr
    assert "wrote" in result.stdout
    return out


class TestIndexCli:
    def test_index_artifact_loads(self, index_path):
        index = StrategyIndex.load(index_path)
        assert index.coverage.complete
        assert index.n_entries == 49

    def test_index_missing_dataset_fails_cleanly(self, tmp_path):
        result = _run_cli(
            "index", str(tmp_path / "nope.json"), str(tmp_path / "out.json")
        )
        assert result.returncode == 1
        assert "[index]" in result.stderr

    def test_index_refuses_insufficient_coverage(
        self, golden_dataset_path, tmp_path
    ):
        dataset = PerfDataset.load(golden_dataset_path)
        # The expected grid is tests x configurations, so coverage holes
        # are missing config cells: keep the full configuration sweep on
        # one test and only a sliver of it everywhere else (~13%).
        keep_all = dataset.tests[0]
        sliver = {c.key() for c in dataset.configs[:8]}
        holed = PerfDataset()
        for test, config, times in dataset.iter_measurements():
            if test == keep_all or config.key() in sliver:
                holed.add(test, config, times)
        holed_path = str(tmp_path / "holed.json.gz")
        holed.save(holed_path)
        result = _run_cli(
            "index", holed_path, str(tmp_path / "out.json"),
            "--min-coverage", "0.5",
        )
        assert result.returncode == 1
        assert "coverage" in result.stderr

    def test_index_metrics_sidecar(self, golden_dataset_path, tmp_path):
        out = str(tmp_path / "index.json")
        metrics = str(tmp_path / "metrics.json")
        result = _run_cli(
            "index", golden_dataset_path, out, "--metrics", metrics
        )
        assert result.returncode == 0, result.stderr
        with open(metrics) as f:
            report = json.load(f)["report"]
        assert report["counters"]["index.entries"] == 49
        assert report["meta"]["output"] == out


class TestServeE2E:
    def test_concurrent_clients_match_offline_strategies(
        self, index_path, golden_dataset_path
    ):
        """Eight concurrent clients all read byte-identical answers, and
        every served config equals the offline core.strategies path."""
        dataset = PerfDataset.load(golden_dataset_path)
        strategies = build_strategies(dataset)
        server = ServerProcess(index_path)
        try:
            # Byte-identical fan-out on a single query.
            target = "/v1/strategy?chip=MALI&app=bfs-wl&input=tiny-road"
            with ThreadPoolExecutor(max_workers=8) as pool:
                results = list(
                    pool.map(lambda _: server.get(target), range(8))
                )
            assert all(status == 200 for status, _ in results)
            assert len({body for _, body in results}) == 1

            # Offline equivalence across every test case.
            for test in dataset.tests:
                status, body = server.get(
                    f"/v1/strategy?chip={test.chip}&app={test.app}"
                    f"&input={test.graph}"
                )
                assert status == 200
                answer = json.loads(body)
                offline = strategies["chip+app+input"].config_for(test).key()
                assert answer["config"] == offline, test
                assert not answer["degraded"]
            code, stderr = server.finish()
        finally:
            server.kill()
        assert code == 0
        assert "shut down cleanly" in stderr

    def test_holed_dataset_serves_degraded_answers(
        self, golden_dataset_path, tmp_path
    ):
        """Drop the (MALI, bfs-wl) slice: queries for it must fall back
        to the chip+input strategy and say so."""
        dataset = PerfDataset.load(golden_dataset_path)
        # Drop the whole (MALI, bfs-wl) slice so its lattice partitions
        # vanish, and half the configs of one unrelated test so the
        # audited coverage record is visibly incomplete in /healthz.
        punctured = TestCase("pr-topo", "tiny-rmat", "R9")
        half = {c.key() for c in dataset.configs[::2]}
        holed = PerfDataset()
        for test, config, times in dataset.iter_measurements():
            if test.chip == "MALI" and test.app == "bfs-wl":
                continue
            if test == punctured and config.key() not in half:
                continue
            holed.add(test, config, times)
        holed_path = str(tmp_path / "holed.json.gz")
        holed.save(holed_path)
        index_out = str(tmp_path / "index.json")
        result = _run_cli("index", holed_path, index_out)
        assert result.returncode == 0, result.stderr

        server = ServerProcess(index_out)
        try:
            status, body = server.get(
                "/v1/strategy?chip=MALI&app=bfs-wl&input=tiny-road"
            )
            assert status == 200
            answer = json.loads(body)
            assert answer["degraded"]
            assert answer["requested_level"] == "chip+app+input"
            assert answer["served_level"] == "chip+input"
            assert "fell back" in answer["note"]

            # Untouched coordinates still serve exact answers.
            status, body = server.get(
                "/v1/strategy?chip=GTX1080&app=pr-topo&input=tiny-rmat"
            )
            assert status == 200
            assert not json.loads(body)["degraded"]

            status, body = server.get("/healthz")
            assert status == 200
            health = json.loads(body)
            assert health["status"] == "ok"
            assert "missing" in health["coverage"]
            code, stderr = server.finish()
        finally:
            server.kill()
        assert code == 0

    def test_metrics_reconcile_and_sidecar_written(self, index_path, tmp_path):
        metrics_path = str(tmp_path / "serve-metrics.json")
        server = ServerProcess(index_path, "--metrics", metrics_path)
        try:
            for _ in range(3):
                status, _ = server.get("/v1/strategy?chip=R9&app=cc-topo")
                assert status == 200
            status, body = server.get("/metrics")
            assert status == 200
            metrics = json.loads(body)
            counters = metrics["counters"]
            # 3 strategy requests + the /metrics request observing itself.
            assert counters["serve.requests"] == 4
            assert counters["serve.requests.strategy"] == 3
            # cc-topo is not a dataset app, so the key misses the
            # precompiled table and is rendered on every request.
            assert "serve.answers.precompiled" not in counters
            assert counters["serve.answers.rendered"] == 3
            # Fallbacks count every degraded response served — three
            # requests, three degraded answers.
            assert counters["serve.fallbacks"] == 3
            code, stderr = server.finish()
        finally:
            server.kill()
        assert code == 0
        assert "4 requests served" in stderr
        with open(metrics_path) as f:
            report = json.load(f)["report"]
        assert report["counters"]["serve.requests"] == 4
        assert report["counters"]["serve.responses.2xx"] == 4
        assert report["meta"]["requests"] == 4

    def test_metrics_count_without_a_report_path(self, index_path):
        # --metrics only decides whether a report file is written;
        # /metrics counts either way.
        server = ServerProcess(index_path)
        try:
            status, _ = server.get("/v1/strategy?chip=UNKNOWN&app=bfs-wl")
            assert status == 200
            status, body = server.get("/metrics")
            assert status == 200
            counters = json.loads(body)["counters"]
            assert counters["serve.answers.rendered"] == 1
            code, stderr = server.finish()
        finally:
            server.kill()
        assert code == 0
        assert "run report" not in stderr

    def test_sigint_also_exits_cleanly(self, index_path):
        server = ServerProcess(index_path)
        try:
            status, _ = server.get("/healthz")
            assert status == 200
            code, stderr = server.finish(sig=signal.SIGINT)
        finally:
            server.kill()
        assert code == 0
        assert "shut down cleanly" in stderr

    def test_serve_missing_index_fails_cleanly(self, tmp_path):
        result = _run_cli("serve", str(tmp_path / "nope.json"))
        assert result.returncode == 1
        assert "[serve]" in result.stderr
