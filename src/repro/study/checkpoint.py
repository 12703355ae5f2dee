"""Shard-level checkpointing for the study sweep.

The pricing phase of a full study is a grid of (chip × configuration)
*shards*; each shard prices every trace and is independent of every
other.  :class:`StudyCheckpoint` persists completed shards to a
directory as they finish, so an interrupted sweep — ``^C``, a machine
reboot, a dead worker pool — resumes from the last completed shard
instead of repeating hours of pricing.

Layout of a checkpoint directory::

    <dir>/
      manifest.json              {"format", "fingerprint", "n_chips",
                                  "n_configs"}
      shard-<chip>-<config>.json {"task", "rows", "checksum"}
      metrics.json               {"segments", "checksum"} (optional)

Every file is written atomically (temp + rename) with a SHA-256
checksum, so a crash can at worst lose the shard being written, never
corrupt one already recorded; invalid shards found on resume are
dropped and simply re-priced.  This module owns the one shard format:
:data:`SHARD_RE` names shard files, :func:`read_manifest` parses the
manifest and :func:`read_shard` accepts or rejects a shard.  Resume
and ``repro doctor`` both read through them, so a shard is judged by
the same rule wherever it is read.

The manifest carries the study's *fingerprint* — a stable hash over
the chips, configurations, repetitions, engine, inputs and collected
traces (see :func:`study_fingerprint`).  Resuming against a checkpoint
whose fingerprint differs raises
:class:`~repro.errors.CheckpointError`: shards priced under a
different study must be rejected, not silently merged.
"""

from __future__ import annotations

import json
import os
import re
from typing import Dict, List, Optional, Tuple

from ..errors import CheckpointError
from ..util import atomic_write_text, sha256_hex, stable_hash

__all__ = [
    "SHARD_RE",
    "StudyCheckpoint",
    "read_manifest",
    "read_shard",
    "study_fingerprint",
]

#: Format tag of checkpoint manifests and shards.
CHECKPOINT_FORMAT = "study-checkpoint-v1"

#: A shard's rows: (application, input, timings) per priced trace.
ShardRows = List[Tuple[str, str, List[float]]]

#: File name of one shard; the groups are its (chip, config) task.
SHARD_RE = re.compile(r"^shard-(\d+)-(\d+)\.json$")

#: Files that older builds wrote next to the shards: columnar
#: ``shard-*.v3`` shards, ``chunk-*.v3`` spill files and
#: ``traces-<fingerprint>.bin`` caches.  Never read, but
#: :meth:`StudyCheckpoint.clear` still removes them.
_OLDER_BUILD_RE = re.compile(
    r"^(?:(?:shard|chunk)-\d+-\d+\.v3|traces-[0-9a-f]+\.bin)$"
)


def study_fingerprint(config, engine: str, traces: Dict[tuple, object]) -> str:
    """A stable identity for one study's pricing grid.

    Covers everything that determines a shard's timings: the chip and
    configuration axes, repetition count, pricing engine, source
    vertex, the input graphs (name and size) and the collected traces
    (program, graph, launch count).  Two runs with the same fingerprint
    price bit-identical shards, so their checkpoints are interchangeable;
    any drift — a different scale, seed, graph or app set — changes the
    fingerprint and invalidates the checkpoint.
    """
    parts: List[object] = [
        CHECKPOINT_FORMAT,
        engine,
        config.repetitions,
        config.source,
        "|".join(chip.short_name for chip in config.chips),
        "|".join(cfg.key() for cfg in config.configs),
    ]
    for name in sorted(config.inputs):
        graph = config.inputs[name].graph
        parts.append(f"{name}:{graph.n_nodes}:{graph.n_edges}")
    for app_name, input_name in sorted(traces):
        trace = traces[(app_name, input_name)]
        parts.append(f"{app_name}/{input_name}:{trace.n_launches}")
    return f"{stable_hash(*parts):016x}"


def read_manifest(directory: str) -> Tuple[Optional[dict], Optional[str]]:
    """(manifest, None) for a valid checkpoint manifest, else (None, reason)."""
    path = os.path.join(directory, StudyCheckpoint.MANIFEST)
    if not os.path.exists(path):
        return None, "no manifest.json (not a checkpoint, or never opened)"
    try:
        with open(path, encoding="utf-8") as f:
            manifest = json.load(f)
    except (OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        return None, f"unreadable manifest.json ({exc})"
    if not isinstance(manifest, dict):
        return None, "manifest.json is not an object"
    if manifest.get("format") != CHECKPOINT_FORMAT:
        return None, (
            f"unrecognised manifest format {manifest.get('format')!r} "
            f"(expected {CHECKPOINT_FORMAT!r})"
        )
    return manifest, None


def read_shard(
    path: str, task: Tuple[int, int]
) -> Tuple[Optional[ShardRows], Optional[str]]:
    """(rows, None) for a valid shard file, else (None, reason).

    A shard is valid when it parses, its ``task`` field matches the
    ``task`` its file name gives, and its rows match their checksum.
    Whether the task lies inside the grid is the caller's question.
    """
    try:
        with open(path, encoding="utf-8") as f:
            payload = json.load(f)
    except OSError as exc:
        return None, f"unreadable ({exc})"
    except (json.JSONDecodeError, UnicodeDecodeError):
        return None, "truncated or invalid JSON"
    if not isinstance(payload, dict):
        return None, "not a shard object"
    if payload.get("task") != [task[0], task[1]]:
        return None, (
            f"task field {payload.get('task')!r} disagrees with the "
            f"file name"
        )
    try:
        body = json.dumps(payload["rows"], separators=(",", ":"))
    except (KeyError, TypeError, ValueError):
        return None, "missing or unserialisable rows"
    if sha256_hex(body) != payload.get("checksum"):
        return None, "checksum mismatch (modified or partially written)"
    try:
        rows = [
            (str(app), str(inp), [float(t) for t in times])
            for app, inp, times in payload["rows"]
        ]
    except (TypeError, ValueError):
        return None, "malformed rows"
    return rows, None


class StudyCheckpoint:
    """A directory of completed pricing shards, written as they finish."""

    MANIFEST = "manifest.json"
    METRICS = "metrics.json"

    def __init__(self, directory: str) -> None:
        self.directory = str(directory)
        self._skipped = 0  # invalid shards dropped by the last open()
        #: Tasks the runner quarantined after repeated timeouts; they
        #: have no shard files, so a later ``--resume`` re-prices them.
        self.quarantined_tasks: List[Tuple[int, int]] = []

    # -- lifecycle ---------------------------------------------------------

    def _manifest_path(self) -> str:
        return os.path.join(self.directory, self.MANIFEST)

    def _shard_path(self, task: Tuple[int, int]) -> str:
        return os.path.join(
            self.directory, f"shard-{task[0]:04d}-{task[1]:04d}.json"
        )

    def _read_manifest(self):
        if not os.path.exists(self._manifest_path()):
            return None
        manifest, problem = read_manifest(self.directory)
        if manifest is None:
            raise CheckpointError(f"checkpoint {self.directory!r}: {problem}")
        return manifest

    def open(
        self,
        fingerprint: str,
        n_chips: int,
        n_configs: int,
        resume: bool,
        chips: Optional[List[str]] = None,
        configs: Optional[List[str]] = None,
    ) -> Dict[Tuple[int, int], ShardRows]:
        """Attach to the directory; return already-completed shards.

        A fresh (or non-``resume``) open clears any prior contents and
        starts an empty checkpoint.  A ``resume`` open verifies the
        manifest fingerprint — raising
        :class:`~repro.errors.CheckpointError` on mismatch — and loads
        every valid shard; shards that fail validation (truncation,
        checksum mismatch, out-of-range task) are dropped for
        re-pricing, never merged.

        ``chips``/``configs`` optionally record the axis names (chip
        short names and configuration keys) in the manifest; ``repro
        doctor`` uses them to map shards back to grid cells and to
        export a partial dataset from an interrupted run.
        """
        manifest = self._read_manifest() if resume else None
        if resume and manifest is not None:
            if manifest.get("fingerprint") != fingerprint:
                raise CheckpointError(
                    f"stale checkpoint {self.directory!r}: its fingerprint "
                    f"{manifest.get('fingerprint')!r} does not match this "
                    f"study's {fingerprint!r} (different scale, seed, apps, "
                    f"chips, configs, repetitions or engine); delete the "
                    f"directory or re-run without --resume"
                )
            return self._load_shards(n_chips, n_configs)
        # Fresh start: drop any stale contents, write a new manifest.
        self._clear_files()
        os.makedirs(self.directory, exist_ok=True)
        manifest_data = {
            "format": CHECKPOINT_FORMAT,
            "fingerprint": fingerprint,
            "n_chips": n_chips,
            "n_configs": n_configs,
        }
        if chips is not None:
            manifest_data["chips"] = list(chips)
        if configs is not None:
            manifest_data["configs"] = list(configs)
        atomic_write_text(self._manifest_path(), json.dumps(manifest_data))
        return {}

    def _clear_files(self) -> None:
        if not os.path.isdir(self.directory):
            return
        for name in os.listdir(self.directory):
            if (
                name == self.MANIFEST
                or name == self.METRICS
                or SHARD_RE.match(name)
                or _OLDER_BUILD_RE.match(name)
            ):
                try:
                    os.unlink(os.path.join(self.directory, name))
                except OSError:  # pragma: no cover - concurrent cleanup
                    pass

    def clear(self) -> None:
        """Delete the checkpoint's files (after a successful save)."""
        self._clear_files()
        try:
            os.rmdir(self.directory)
        except OSError:  # non-empty (foreign files) or already gone
            pass

    # -- shards ------------------------------------------------------------

    def record(self, task: Tuple[int, int], rows: ShardRows) -> None:
        """Atomically persist one completed shard."""
        body = json.dumps(
            [[app, inp, list(times)] for app, inp, times in rows],
            separators=(",", ":"),
        )
        payload = (
            f'{{"task": [{task[0]}, {task[1]}], '
            f'"checksum": "{sha256_hex(body)}", '
            f'"rows": {body}}}'
        )
        atomic_write_text(self._shard_path(task), payload)

    def _load_shards(
        self, n_chips: int, n_configs: int
    ) -> Dict[Tuple[int, int], ShardRows]:
        shards: Dict[Tuple[int, int], ShardRows] = {}
        self._skipped = 0
        for name in sorted(os.listdir(self.directory)):
            match = SHARD_RE.match(name)
            if not match:
                continue
            task = (int(match.group(1)), int(match.group(2)))
            rows = None
            if 0 <= task[0] < n_chips and 0 <= task[1] < n_configs:
                rows, _reason = read_shard(
                    os.path.join(self.directory, name), task
                )
            if rows is None:
                self._skipped += 1
            else:
                shards[task] = rows
        return shards

    # -- metrics -----------------------------------------------------------

    def _metrics_path(self) -> str:
        return os.path.join(self.directory, self.METRICS)

    def save_metrics(self, segments: List[dict]) -> None:
        """Atomically persist the run's observability segments.

        ``segments`` are recorder snapshots (prior interrupted runs
        plus the current run so far); a resumed run loads them back so
        its RunReport can account for work done before the interrupt.
        """
        body = json.dumps(segments, sort_keys=True, separators=(",", ":"))
        payload = (
            f'{{"checksum": "{sha256_hex(body)}", "segments": {body}}}'
        )
        atomic_write_text(self._metrics_path(), payload)

    def load_metrics(self) -> List[dict]:
        """The persisted observability segments, or ``[]``.

        Metrics are best-effort telemetry: a missing, truncated or
        checksum-mismatched file yields an empty list rather than an
        error — resuming the pricing itself must never be blocked by a
        damaged metrics sidecar.
        """
        try:
            with open(self._metrics_path()) as f:
                payload = json.load(f)
            body = json.dumps(
                payload["segments"], sort_keys=True, separators=(",", ":")
            )
            if sha256_hex(body) != payload["checksum"]:
                return []
            segments = payload["segments"]
            if not isinstance(segments, list):
                return []
            return [s for s in segments if isinstance(s, dict)]
        except (OSError, ValueError, KeyError, TypeError):
            return []

    @property
    def skipped_shards(self) -> int:
        """Invalid shards dropped (and re-priced) by the last resume."""
        return self._skipped

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"StudyCheckpoint({self.directory!r})"
