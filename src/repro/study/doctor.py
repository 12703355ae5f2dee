"""``repro doctor``: diagnose datasets and checkpoint directories.

An interrupted or faulted study leaves state on disk — a checkpoint
directory of priced shards, a partially-written dataset — whose health
determines what the operator can do next: resume, analyse degraded, or
start over.  The doctor examines that state and reports:

* **checkpoints** — manifest damage (missing, unreadable, unrecognised
  format, malformed or stale fingerprint), shard damage (truncation,
  checksum mismatch, task/name disagreement, out-of-grid orphans —
  judged by :func:`repro.study.checkpoint.read_shard`, the rule resume
  applies), a
  damaged or inconsistent metrics sidecar, and the *repair plan*: which
  shards a ``--resume`` run will re-price;
* **datasets** — unreadable/corrupt files, legacy pre-``perf-dataset-v2``
  artifacts, quarantinable cells (NaN/inf, non-positive timings) and
  grid coverage, via :mod:`repro.study.audit`; for binary columnar
  ``perf-dataset-v3`` files additionally per-section checksum damage
  (header, string tables, index columns, timing column), with the
  repair plan naming the salvageable cell range;
* **run reports** — the ``run-report-v1`` metrics sidecars the serve
  fleet and study write: truncation/checksum damage, and counter
  non-reconciliation across merged workers (``serve.requests`` vs the
  per-class breakdown, ``meta.requests`` vs the per-worker ledger,
  death/restart provenance vs the fleet counters).

Severity decides the exit code: ``error`` findings mean the state is
unusable as-is (exit 1); ``warning``/``info`` findings describe a
degraded but workable state (exit 0) — a killed-mid-study checkpoint
with intact shards is *healthy partial*, not broken.

``--export PATH`` additionally assembles the valid shards of a
checkpoint into a partial dataset (the manifest must carry the axis
names newer runs record), so degraded analysis can start before the
missing shards are re-priced.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..compiler.options import OptConfig
from ..errors import DatasetError, InvalidConfigError, ReportError
from ..obs.report import REPORT_FORMAT, RunReport
from .audit import audit_dataset
from .checkpoint import SHARD_RE, StudyCheckpoint, read_manifest, read_shard
from .dataset import DATASET_FORMAT, PerfDataset, TestCase, peek_format

__all__ = [
    "Finding",
    "Diagnosis",
    "diagnose",
    "diagnose_checkpoint",
    "diagnose_dataset",
    "diagnose_run_report",
    "export_partial_dataset",
    "main",
]

_FINGERPRINT_RE = re.compile(r"^[0-9a-f]{16}$")

#: Severity vocabulary, most severe first.
SEVERITIES = ("error", "warning", "info")


@dataclass(frozen=True)
class Finding:
    """One diagnosed condition."""

    severity: str  # "error" | "warning" | "info"
    code: str  # stable machine-readable tag, e.g. "shard-checksum"
    message: str


class Diagnosis:
    """All findings for one path, plus the repair plan."""

    def __init__(self, path: str, kind: str) -> None:
        self.path = path
        self.kind = kind  # "checkpoint" | "dataset" | "run-report"
        self.findings: List[Finding] = []
        #: Steps that bring the state back to full health.
        self.repair_plan: List[str] = []

    def add(self, severity: str, code: str, message: str) -> None:
        self.findings.append(Finding(severity, code, message))

    @property
    def errors(self) -> List[Finding]:
        return [f for f in self.findings if f.severity == "error"]

    @property
    def ok(self) -> bool:
        """No error-severity findings (warnings/info allowed)."""
        return not self.errors

    def render(self) -> str:
        lines = [f"doctor: {self.kind} {self.path}"]
        if not self.findings:
            lines.append("  healthy: no issues found")
        for f in self.findings:
            lines.append(f"  [{f.severity}] {f.code}: {f.message}")
        if self.repair_plan:
            lines.append("repair plan:")
            for step in self.repair_plan:
                lines.append(f"  - {step}")
        verdict = "USABLE" if self.ok else "UNUSABLE"
        lines.append(f"verdict: {verdict}")
        return "\n".join(lines)


# -- checkpoint diagnosis ----------------------------------------------------


def _shard_ranges(tasks: List[Tuple[int, int]]) -> List[str]:
    """Compress tasks into per-chip config ranges for the repair plan."""
    by_chip: Dict[int, List[int]] = {}
    for chip_idx, cfg_idx in tasks:
        by_chip.setdefault(chip_idx, []).append(cfg_idx)
    out = []
    for chip_idx in sorted(by_chip):
        cfgs = sorted(by_chip[chip_idx])
        spans = []
        start = prev = cfgs[0]
        for c in cfgs[1:]:
            if c == prev + 1:
                prev = c
                continue
            spans.append((start, prev))
            start = prev = c
        spans.append((start, prev))
        text = ", ".join(
            f"{a:04d}" if a == b else f"{a:04d}-{b:04d}" for a, b in spans
        )
        out.append(f"chip {chip_idx}: configs {text}")
    return out


def diagnose_checkpoint(
    directory: str, expected_fingerprint: Optional[str] = None
) -> Diagnosis:
    """Audit one checkpoint directory."""
    diag = Diagnosis(directory, "checkpoint")
    manifest, problem = read_manifest(directory)
    if manifest is None:
        diag.add("error", "manifest", problem)
        diag.repair_plan.append(
            "delete the directory and start a fresh run (no shards can be "
            "trusted without a manifest)"
        )
        return diag

    fingerprint = manifest.get("fingerprint")
    if not isinstance(fingerprint, str) or not _FINGERPRINT_RE.match(
        fingerprint
    ):
        diag.add(
            "error",
            "fingerprint-malformed",
            f"manifest fingerprint {fingerprint!r} is not a 16-hex-digit "
            f"study fingerprint",
        )
    elif (
        expected_fingerprint is not None
        and fingerprint != expected_fingerprint
    ):
        diag.add(
            "error",
            "fingerprint-stale",
            f"manifest fingerprint {fingerprint!r} does not match the "
            f"expected study fingerprint {expected_fingerprint!r} "
            f"(different scale, seed, apps, chips, configs, repetitions "
            f"or engine)",
        )
    n_chips = manifest.get("n_chips")
    n_configs = manifest.get("n_configs")
    if not (
        isinstance(n_chips, int)
        and isinstance(n_configs, int)
        and n_chips > 0
        and n_configs > 0
    ):
        diag.add(
            "error",
            "grid-shape",
            f"manifest grid shape n_chips={n_chips!r} "
            f"n_configs={n_configs!r} is invalid",
        )
        return diag

    valid: Dict[Tuple[int, int], list] = {}
    damaged: List[Tuple[int, int]] = []
    for name in sorted(os.listdir(directory)):
        if name in (StudyCheckpoint.MANIFEST, StudyCheckpoint.METRICS):
            continue
        match = SHARD_RE.match(name)
        if not match:
            if name.startswith("shard-"):
                diag.add(
                    "warning",
                    "shard-orphan",
                    f"{name}: unrecognised shard file name (ignored on "
                    f"resume)",
                )
            continue
        task = (int(match.group(1)), int(match.group(2)))
        if not (0 <= task[0] < n_chips and 0 <= task[1] < n_configs):
            diag.add(
                "warning",
                "shard-orphan",
                f"{name}: task outside the {n_chips}x{n_configs} grid "
                f"(priced under a different study; dropped on resume)",
            )
            continue
        rows, reason = read_shard(os.path.join(directory, name), task)
        if rows is None:
            diag.add("error", "shard-corrupt", f"{name}: {reason}")
            damaged.append(task)
        else:
            valid[task] = rows

    missing = [
        (chip_idx, cfg_idx)
        for chip_idx in range(n_chips)
        for cfg_idx in range(n_configs)
        if (chip_idx, cfg_idx) not in valid
    ]
    total = n_chips * n_configs
    diag.add(
        "info",
        "coverage",
        f"{len(valid)}/{total} shards valid, {len(damaged)} damaged, "
        f"{total - len(valid) - len(damaged)} never priced",
    )

    metrics_path = os.path.join(directory, StudyCheckpoint.METRICS)
    if os.path.exists(metrics_path):
        segments = StudyCheckpoint(directory).load_metrics()
        if not segments:
            diag.add(
                "warning",
                "metrics-damaged",
                "metrics.json is unreadable or fails its checksum "
                "(telemetry only; pricing state is unaffected)",
            )
        else:
            priced = sum(
                seg.get("counters", {}).get("study.shards.priced", 0)
                for seg in segments
            )
            on_disk = len(valid) + len(damaged)
            if priced != on_disk:
                diag.add(
                    "warning",
                    "metrics-mismatch",
                    f"metrics sidecar records {priced} priced shards but "
                    f"{on_disk} shard files exist (telemetry only)",
                )

    if missing:
        diag.repair_plan.append(
            f"re-price {len(missing)} shard(s) with --resume: "
            + "; ".join(_shard_ranges(missing))
        )
        diag.repair_plan.append(
            "python -m repro study OUTPUT --resume --checkpoint "
            + directory
        )
    if damaged:
        diag.repair_plan.append(
            f"{len(damaged)} damaged shard file(s) are dropped and "
            f"re-priced automatically on --resume"
        )
    return diag


def export_partial_dataset(directory: str) -> PerfDataset:
    """Assemble the valid shards of a checkpoint into a dataset.

    Requires the manifest's ``chips``/``configs`` axis names (recorded
    by newer runs); raises :class:`~repro.errors.DatasetError` when the
    checkpoint is unusable or predates axis recording.
    """
    manifest, problem = read_manifest(directory)
    if manifest is None:
        raise DatasetError(f"cannot export from {directory!r}: {problem}")
    chips = manifest.get("chips")
    configs = manifest.get("configs")
    if not isinstance(chips, list) or not isinstance(configs, list):
        raise DatasetError(
            f"checkpoint {directory!r} has no chips/configs axis names in "
            f"its manifest (written by an older run); re-run the study to "
            f"record them, or resume it to completion"
        )
    dataset = PerfDataset()
    for name in sorted(os.listdir(directory)):
        match = SHARD_RE.match(name)
        if not match:
            continue
        task = (int(match.group(1)), int(match.group(2)))
        if not (0 <= task[0] < len(chips) and 0 <= task[1] < len(configs)):
            continue
        rows, reason = read_shard(os.path.join(directory, name), task)
        if rows is None:
            continue
        key = configs[task[1]]
        try:
            config = (
                OptConfig()
                if key == "baseline"
                else OptConfig.from_names(key.split("+"))
            )
        except InvalidConfigError as exc:
            raise DatasetError(
                f"checkpoint {directory!r} records config key {key!r} "
                f"this build does not understand: {exc}"
            ) from exc
        for app, inp, times in rows:
            dataset.add(TestCase(app, inp, chips[task[0]]), config, times)
    return dataset


# -- dataset diagnosis -------------------------------------------------------


def _columnar_salvage_plan(path: str, diag: Diagnosis) -> None:
    """Append the salvageable-range repair plan for a damaged v3 file."""
    from ..store.columnar import salvage_columnar

    try:
        _partial, salvaged, declared, notes = salvage_columnar(path)
    except (DatasetError, OSError) as exc:
        diag.repair_plan.append(
            f"nothing is salvageable ({exc}); re-run the study or "
            f"restore the file from a backup"
        )
        return
    for note in notes:
        diag.add("warning", "salvage", note)
    if salvaged:
        diag.repair_plan.append(
            f"cells 0-{salvaged - 1} of {declared} are structurally "
            f"intact; recover them with: python -m repro doctor {path} "
            f"--export PARTIAL"
        )
        if salvaged < declared:
            diag.repair_plan.append(
                f"re-price the remaining {declared - salvaged} cell(s) "
                f"with --resume after exporting"
            )
        else:
            diag.repair_plan.append(
                "timings inside the damaged section may still be garbage "
                "— audit the exported dataset before trusting it"
            )
    else:
        diag.repair_plan.append(
            "no cells are salvageable (the index columns are damaged); "
            "re-run the study or restore the file from a backup"
        )


def _diagnose_columnar(path: str, diag: Diagnosis):
    """Load + full-verify a ``perf-dataset-v3`` file.

    Returns the loaded dataset when healthy, or ``None`` after
    recording error findings and the salvage repair plan.
    """
    from ..store.columnar import ColumnarDataset

    try:
        dataset = ColumnarDataset.load(path)
    except DatasetError as exc:
        diag.add("error", "unloadable", str(exc))
        _columnar_salvage_plan(path, diag)
        return None
    try:
        dataset.verify()
    except DatasetError as exc:
        diag.add("error", "section-corrupt", str(exc))
        _columnar_salvage_plan(path, diag)
        return None
    return dataset


def diagnose_dataset(path: str) -> Diagnosis:
    """Audit one dataset artifact."""
    from ..store.columnar import COLUMNAR_FORMAT

    diag = Diagnosis(path, "dataset")
    fmt = peek_format(path)
    if fmt is None:
        diag.add(
            "warning",
            "format-legacy",
            f"no {DATASET_FORMAT!r} format tag (legacy or damaged file)",
        )
    if fmt == COLUMNAR_FORMAT:
        dataset = _diagnose_columnar(path, diag)
        if dataset is None:
            return diag
    else:
        try:
            dataset = PerfDataset.load(path)
        except DatasetError as exc:
            diag.add("error", "unloadable", str(exc))
            diag.repair_plan.append(
                "re-run the study (or restore the file from a backup); "
                "the artifact cannot be trusted"
            )
            return diag
    audit = audit_dataset(dataset)
    for issue in audit.quarantined:
        diag.add(
            "warning",
            "cell-quarantined",
            f"{issue.test} [{issue.config_key}]: {issue.reason}",
        )
    coverage = audit.coverage
    diag.add("info", "coverage", coverage.describe())
    if not coverage.complete:
        diag.repair_plan.append(
            "analyse degraded with --min-coverage, or re-price the "
            "missing cells (python -m repro study OUTPUT --resume)"
        )
    return diag


# -- run-report diagnosis ----------------------------------------------------


def _looks_like_run_report(path: str) -> bool:
    """Sniff the first bytes for the ``run-report-v1`` format tag.

    Run reports are plain (never gzipped) JSON whose ``format`` key is
    written first, so the tag appears within the opening bytes; a
    dataset (possibly gzip-compressed) never contains it there.
    """
    try:
        with open(path, "rb") as f:
            head = f.read(256)
    except OSError:
        return False
    return REPORT_FORMAT.encode("ascii") in head


def diagnose_run_report(path: str) -> Diagnosis:
    """Audit one ``run-report-v1`` metrics sidecar.

    Structural damage (truncation, checksum mismatch, wrong format) is
    an *error* — a telemetry artifact that cannot be trusted must be
    rejected, not summarised.  Counter non-reconciliation is a
    *warning*: the run it describes already happened, but the ledger
    disagrees with itself, which for a serve fleet means a worker's
    final metrics delta was lost (e.g. a ``kill -9`` between
    heartbeats) or the merge logic regressed.
    """
    diag = Diagnosis(path, "run-report")
    try:
        report = RunReport.load(path)
    except ReportError as exc:
        diag.add("error", "unloadable", str(exc))
        diag.repair_plan.append(
            "re-run with --metrics to regenerate the sidecar (or restore "
            "it from a backup); the artifact cannot be trusted"
        )
        return diag

    requests = report.total_counter("serve.requests")
    if requests or any(
        k.startswith("serve.") for k in report.counters
    ):
        # Per-class requests must sum to the total: every admitted
        # request is classified exactly once.
        by_class = sum(
            report.total_counter(f"serve.requests.{cls}")
            for cls in ("strategy", "predict", "portfolio")
        )
        if by_class > requests:
            diag.add(
                "warning",
                "counter-mismatch",
                f"per-class request counters sum to {by_class} but "
                f"serve.requests is {requests}; the merge dropped or "
                f"double-counted a worker's delta",
            )
        meta_requests = report.meta.get("requests")
        if (
            isinstance(meta_requests, int)
            and meta_requests != requests
        ):
            diag.add(
                "warning",
                "requests-mismatch",
                f"meta.requests records {meta_requests} but the "
                f"serve.requests counter totals {requests}; a worker's "
                f"final metrics delta was lost (killed between "
                f"heartbeats?)",
            )
        per_worker = report.meta.get("per_worker_requests")
        if isinstance(per_worker, dict) and isinstance(meta_requests, int):
            ledger = sum(
                v for v in per_worker.values() if isinstance(v, int)
            )
            if ledger != meta_requests:
                diag.add(
                    "warning",
                    "per-worker-mismatch",
                    f"per-worker ledger sums to {ledger} but "
                    f"meta.requests records {meta_requests}",
                )
        deaths = report.total_counter("serve.workers.deaths")
        restarts = report.total_counter("serve.workers.restarts")
        meta_deaths = report.meta.get("deaths")
        meta_restarts = report.meta.get("restarts")
        if isinstance(meta_deaths, int) and meta_deaths != deaths:
            diag.add(
                "warning",
                "fleet-mismatch",
                f"meta.deaths records {meta_deaths} but "
                f"serve.workers.deaths totals {deaths}",
            )
        if isinstance(meta_restarts, int) and meta_restarts != restarts:
            diag.add(
                "warning",
                "fleet-mismatch",
                f"meta.restarts records {meta_restarts} but "
                f"serve.workers.restarts totals {restarts}",
            )
        if restarts > deaths:
            diag.add(
                "warning",
                "fleet-mismatch",
                f"{restarts} restarts exceed {deaths} deaths; a worker "
                f"cannot be respawned without dying first",
            )
        reload_attempts = report.total_counter("serve.reload.attempts")
        reload_ok = report.total_counter("serve.reload.success")
        reload_bad = report.total_counter("serve.reload.failures")
        if reload_attempts != reload_ok + reload_bad:
            diag.add(
                "warning",
                "counter-mismatch",
                f"serve.reload.attempts ({reload_attempts}) != success "
                f"({reload_ok}) + failures ({reload_bad})",
            )
        summary = f"{requests} requests"
        workers = report.meta.get("workers")
        if isinstance(workers, int):
            summary += f" across {workers} worker(s)"
        if deaths or restarts:
            summary += f", {deaths} death(s), {restarts} restart(s)"
        diag.add("info", "summary", summary)
    else:
        diag.add(
            "info",
            "summary",
            f"{len(report.counters)} counter(s), "
            f"{len(report.spans)} span(s) (not a serve report; no "
            f"reconciliation rules apply)",
        )
    if any(f.severity == "warning" for f in diag.findings):
        diag.repair_plan.append(
            "the run itself already happened; treat the sidecar's "
            "totals as a lower bound, or re-run with a longer drain "
            "(quiesce > --heartbeat-interval before shutdown) to "
            "capture every worker's final delta"
        )
    return diag


def diagnose(
    path: str, expected_fingerprint: Optional[str] = None
) -> Diagnosis:
    """Dispatch: directories are checkpoints; files are sniffed —
    ``run-report-v1`` sidecars go to :func:`diagnose_run_report`,
    everything else to :func:`diagnose_dataset`."""
    if os.path.isdir(path):
        return diagnose_checkpoint(path, expected_fingerprint)
    if _looks_like_run_report(path):
        return diagnose_run_report(path)
    return diagnose_dataset(path)


# -- CLI ---------------------------------------------------------------------


def main(argv: Optional[List[str]] = None) -> int:
    """``python -m repro doctor PATH`` entry point."""
    import argparse
    import sys

    parser = argparse.ArgumentParser(
        prog="python -m repro doctor",
        description=(
            "diagnose a study dataset, checkpoint directory or "
            "run-report sidecar; exits non-zero when the state is "
            "unusable"
        ),
    )
    parser.add_argument(
        "path",
        help="dataset file, run-report sidecar or checkpoint directory "
        "to examine",
    )
    parser.add_argument(
        "--fingerprint",
        metavar="HEX",
        default=None,
        help="expected study fingerprint; a checkpoint whose manifest "
        "disagrees is reported stale",
    )
    parser.add_argument(
        "--export",
        metavar="DATASET",
        default=None,
        help="assemble a checkpoint's valid shards — or the intact cells "
        "of a damaged columnar (.v3) dataset — into a partial dataset "
        "at DATASET for degraded analysis",
    )
    parser.add_argument(
        "--audit-json",
        metavar="PATH",
        default=None,
        help="write the audit-v1 JSON artifact for a dataset to PATH",
    )
    args = parser.parse_args(argv)

    if not os.path.exists(args.path):
        print(f"doctor: {args.path}: no such file or directory",
              file=sys.stderr)
        return 2

    diag = diagnose(args.path, expected_fingerprint=args.fingerprint)
    print(diag.render())

    if args.export is not None:
        from ..store.columnar import COLUMNAR_FORMAT, salvage_columnar

        if diag.kind == "checkpoint":
            try:
                dataset = export_partial_dataset(args.path)
            except DatasetError as exc:
                print(f"doctor: {exc}", file=sys.stderr)
                return 1
            dataset.save(args.export)
            print(
                f"exported {dataset.n_measurements} measurements "
                f"({len(dataset)} tests) to {args.export}"
            )
        elif (
            diag.kind == "dataset"
            and peek_format(args.path) == COLUMNAR_FORMAT
        ):
            try:
                dataset, salvaged, declared, _notes = salvage_columnar(
                    args.path
                )
            except (DatasetError, OSError) as exc:
                print(f"doctor: {exc}", file=sys.stderr)
                return 1
            dataset.save(args.export)
            print(
                f"salvaged {salvaged}/{declared} cells "
                f"({dataset.n_measurements} measurements, "
                f"{len(dataset)} tests) to {args.export}"
            )
        else:
            print(
                "doctor: --export requires a checkpoint directory or a "
                "columnar (.v3) dataset file",
                file=sys.stderr,
            )
            return 2

    if args.audit_json is not None:
        if diag.kind != "dataset":
            print("doctor: --audit-json requires a dataset file",
                  file=sys.stderr)
            return 2
        try:
            audit = audit_dataset(PerfDataset.load(args.path))
        except DatasetError as exc:
            print(f"doctor: {exc}", file=sys.stderr)
            return 1
        audit.save(args.audit_json)
        print(f"wrote audit artifact to {args.audit_json}")

    return 0 if diag.ok else 1
