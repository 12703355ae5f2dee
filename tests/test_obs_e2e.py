"""End-to-end metrics through the real CLI.

Runs ``python -m repro study --metrics`` in subprocesses — fresh, and
killed-then-resumed — and checks the persisted RunReport artifacts
reconcile: every shard of the grid is accounted for exactly once, in
the fresh run and across the interrupt/resume pair.  Also smoke-tests
``python -m repro profile`` on the artifact a user would have on disk.
"""

import os
import subprocess
import sys

import pytest

from repro.faults import FaultPlan
from repro.obs import RunReport

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: The full study grid: 6 chips x 96 configurations.
GRID = 6 * 96

STUDY_ARGS = ["--scale", "0.05", "--repetitions", "1", "--jobs", "2"]


def _run_cli(command, args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return subprocess.run(
        [sys.executable, "-m", "repro", command, *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("obs-e2e")


class TestMetricsE2E:
    def test_fresh_run_report_reconciles(self, workdir):
        out = str(workdir / "fresh.json")
        metrics = str(workdir / "fresh-report.json")
        result = _run_cli(
            "study", [out, *STUDY_ARGS, "--no-checkpoint", "--metrics", metrics]
        )
        assert result.returncode == 0, result.stderr
        assert "wrote run report" in result.stderr
        assert "study.shards.priced" in result.stderr  # rendered summary

        report = RunReport.load(metrics)
        assert report.gauges["study.shards.total"] == GRID
        assert report.counter("study.shards.priced") == GRID
        assert report.counter("study.shards.skipped_checkpoint") == 0
        assert not report.prior
        assert report.meta["engine"] == "batch"
        assert report.meta["jobs"] == 2
        # Worker spans crossed the process boundary into the artifact.
        block_spans = [
            s for s in report.spans if s["name"] == "study.price_block"
        ]
        assert sum(s["attrs"]["shards"] for s in block_spans) == GRID
        # Tracing skips (weighted apps on unweighted graphs) are
        # accounted for: collected + skipped covers the app x input grid.
        assert (
            report.counter("study.traces.collected")
            + report.counter("study.traces.skipped")
            == 17 * 3
        )

    def test_profile_renders_the_artifact(self, workdir):
        metrics = str(workdir / "fresh-report.json")
        assert os.path.exists(metrics), "run the fresh test first"
        result = _run_cli("profile", [metrics])
        assert result.returncode == 0, result.stderr
        assert "study.shards.priced" in result.stdout
        assert "Slowest spans" in result.stdout

        missing = _run_cli("profile", [str(workdir / "nope.json")])
        assert missing.returncode == 1

    def test_killed_then_resumed_reports_reconcile(self, workdir):
        out = str(workdir / "resumed.json")
        ckpt = str(workdir / "resumed.ckpt")
        spool = str(workdir / "faults")
        metrics = str(workdir / "resumed-report.json")
        FaultPlan(spool).arm("interrupt", "shard-2-40")

        interrupted = _run_cli(
            "study",
            [
                out,
                *STUDY_ARGS,
                "--checkpoint",
                ckpt,
                "--faults",
                spool,
                "--metrics",
                metrics,
            ],
        )
        assert interrupted.returncode == 130, interrupted.stderr
        # No dataset, no report — but the checkpoint holds the metrics
        # sidecar for the resumed run to pick up.
        assert not os.path.exists(metrics)
        assert os.path.exists(os.path.join(ckpt, "metrics.json"))

        resumed = _run_cli(
            "study",
            [
                out,
                *STUDY_ARGS,
                "--checkpoint",
                ckpt,
                "--resume",
                "--metrics",
                metrics,
            ],
        )
        assert resumed.returncode == 0, resumed.stderr
        assert "Incl. prior runs" in resumed.stderr  # merged summary

        report = RunReport.load(metrics)
        priced = report.counter("study.shards.priced")
        skipped = report.counter("study.shards.skipped_checkpoint")
        assert priced + skipped == GRID, "this run double- or under-counted"
        assert 0 < skipped < GRID
        # The prior (interrupted) segment priced exactly the shards this
        # run skipped, so the merged total covers the grid exactly once.
        assert report.prior
        assert report.total_counter("study.shards.priced") == GRID
        assert report.meta["resumed"] is True
