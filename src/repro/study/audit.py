"""Dataset audit and quarantine: degraded-mode analysis, made safe.

A study dataset reaching the analysis layer can be imperfect in two
very different ways:

* **holes** — a partially-resumed checkpoint, a failed chip model or a
  quarantined shard leaves (test, configuration) cells unmeasured; the
  paper's method tolerates this (Algorithm 1 filters pairs by a 95 % CI
  check and the MWU test runs on whatever samples exist), so holes
  degrade *coverage*, not correctness;
* **bad cells** — NaN/inf timings, non-positive values or a wrong
  repetition count mean a cell cannot be trusted at all and must be
  dropped (*quarantined*) before any statistic touches it.

:func:`audit_dataset` validates every cell of a
:class:`~repro.study.dataset.PerfDataset` against its expected grid and
produces a :class:`DatasetAudit`: a per-cell verdict (``ok`` /
``missing`` / ``quarantined`` with a reason), a coverage matrix over
{chip, app, input, config}, a cleaned dataset with the quarantined
cells removed, and a machine-readable ``audit-v1`` JSON artifact.  The
``strict=True`` escape hatch keeps the pre-audit behaviour: the first
bad cell raises :class:`~repro.errors.AuditError` instead of being
dropped.

:func:`require_coverage` is the analysis floor: below a configurable
coverage fraction (CLI ``--min-coverage``, default
:data:`DEFAULT_COVERAGE_FLOOR`) it raises
:class:`~repro.errors.InsufficientCoverageError` naming the worst
holes; above it, experiments render with coverage footnotes.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..compiler.options import OptConfig
from ..errors import AuditError, InsufficientCoverageError
from ..util import atomic_write_text, sha256_hex
from .dataset import Coverage, PerfDataset, TestCase

__all__ = [
    "AUDIT_FORMAT",
    "DEFAULT_COVERAGE_FLOOR",
    "CellIssue",
    "DatasetAudit",
    "audit_dataset",
    "require_coverage",
]

#: Format tag of audit artifacts.
AUDIT_FORMAT = "audit-v1"

#: Default minimum coverage fraction for analysis entry points.
DEFAULT_COVERAGE_FLOOR = 0.5

#: The audit's per-cell verdict vocabulary.
VERDICTS = ("ok", "missing", "quarantined")


@dataclass(frozen=True)
class CellIssue:
    """One non-``ok`` cell of the audited grid."""

    test: TestCase
    config_key: str
    verdict: str  # "missing" | "quarantined"
    reason: str

    def to_dict(self) -> dict:
        return {
            "app": self.test.app,
            "input": self.test.graph,
            "chip": self.test.chip,
            "config": self.config_key,
            "verdict": self.verdict,
            "reason": self.reason,
        }


class DatasetAudit:
    """The verdicts, coverage and cleaned dataset of one audit."""

    def __init__(
        self,
        dataset: PerfDataset,
        issues: Sequence[CellIssue],
        coverage: Coverage,
        dimension_coverage: Dict[str, Dict[str, Tuple[int, int]]],
    ) -> None:
        #: The cleaned dataset: quarantined cells removed, holes kept.
        self.dataset = dataset
        self.issues = list(issues)
        self.coverage = coverage
        #: {axis: {value: (present, expected)}} over chip/app/input/config.
        self.dimension_coverage = dimension_coverage

    @property
    def quarantined(self) -> List[CellIssue]:
        return [i for i in self.issues if i.verdict == "quarantined"]

    @property
    def missing(self) -> List[CellIssue]:
        return [i for i in self.issues if i.verdict == "missing"]

    @property
    def ok(self) -> bool:
        """No quarantined cells and full grid coverage."""
        return not self.issues

    # -- persistence -------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "cells_present": self.coverage.present,
            "cells_expected": self.coverage.expected,
            "quarantined": [i.to_dict() for i in self.quarantined],
            "missing": [i.to_dict() for i in self.missing],
            "coverage": {
                axis: {
                    value: [present, expected]
                    for value, (present, expected) in sorted(values.items())
                }
                for axis, values in self.dimension_coverage.items()
            },
            "holes": list(self.coverage.holes),
        }

    def save(self, path: str) -> None:
        """Atomically write the ``audit-v1`` artifact (checksummed JSON)."""
        body = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        payload = (
            f'{{"format": "{AUDIT_FORMAT}", '
            f'"checksum": "{sha256_hex(body)}", '
            f'"audit": {body}}}'
        )
        atomic_write_text(path, payload)

    @staticmethod
    def load_dict(path: str) -> dict:
        """Load and verify an ``audit-v1`` artifact's payload.

        Raises :class:`~repro.errors.AuditError` on truncation, an
        unrecognised format tag or a checksum mismatch.
        """
        try:
            with open(path, encoding="utf-8") as f:
                parsed = json.load(f)
        except OSError as exc:
            raise AuditError(f"cannot read audit {path!r}: {exc}") from exc
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise AuditError(
                f"corrupt audit {path!r}: truncated or invalid JSON ({exc})"
            ) from exc
        if not isinstance(parsed, dict) or parsed.get("format") != AUDIT_FORMAT:
            raise AuditError(
                f"unrecognised audit {path!r} (expected format "
                f"{AUDIT_FORMAT!r})"
            )
        body = json.dumps(
            parsed.get("audit", {}), sort_keys=True, separators=(",", ":")
        )
        if sha256_hex(body) != parsed.get("checksum"):
            raise AuditError(
                f"corrupt audit {path!r}: checksum mismatch (the file was "
                f"modified or partially written)"
            )
        return parsed["audit"]

    # -- rendering ---------------------------------------------------------

    def render(self, max_issues: int = 10) -> str:
        """A short human-readable summary (the doctor's audit section)."""
        lines = [f"coverage: {self.coverage.describe()}"]
        for issue in self.quarantined[:max_issues]:
            lines.append(
                f"  quarantined {issue.test} [{issue.config_key}]: "
                f"{issue.reason}"
            )
        hidden = len(self.quarantined) - max_issues
        if hidden > 0:
            lines.append(f"  ... and {hidden} more quarantined cells")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DatasetAudit(present={self.coverage.present}, "
            f"expected={self.coverage.expected}, "
            f"quarantined={len(self.quarantined)})"
        )


def _cell_reason(
    times: Tuple[float, ...], repetitions: Optional[int]
) -> Optional[str]:
    """Why a present cell must be quarantined, or ``None`` if it is ok."""
    if not times:
        return "no timings recorded"
    for t in times:
        if not isinstance(t, (int, float)):
            return f"non-numeric timing {t!r}"
        if not math.isfinite(t):
            return f"non-finite timing {t!r}"
        if t <= 0:
            return f"non-positive timing {t!r}"
    if repetitions is not None and len(times) != repetitions:
        return f"expected {repetitions} repetitions, got {len(times)}"
    return None


def audit_dataset(
    dataset: PerfDataset,
    *,
    expected_tests: Optional[Iterable[TestCase]] = None,
    expected_configs: Optional[Iterable[OptConfig]] = None,
    repetitions: Optional[int] = None,
    strict: bool = False,
) -> DatasetAudit:
    """Validate every cell of ``dataset`` against its expected grid.

    The grid defaults to the dataset's own tests × configurations;
    supply ``expected_tests`` / ``expected_configs`` to audit a partial
    dataset against the full study factorial (absent rows then count as
    ``missing``).  ``repetitions`` additionally pins the per-cell
    sample count.

    Bad cells (NaN/inf, non-positive, wrong repetition count) are
    *quarantined*: dropped from the returned audit's ``dataset`` so the
    coverage-aware analysis never sees them.  With ``strict=True`` the
    first bad cell raises :class:`~repro.errors.AuditError` instead —
    the pre-audit behaviour, for pipelines that would rather fail than
    degrade.
    """
    tests = (
        list(expected_tests) if expected_tests is not None else dataset.tests
    )
    configs = (
        list(expected_configs)
        if expected_configs is not None
        else dataset.configs
    )
    issues: List[CellIssue] = []
    present = 0
    dim_present: Dict[Tuple[str, str], int] = {}
    dim_expected: Dict[Tuple[str, str], int] = {}

    # Each configuration's key and label, computed once: the grid walk
    # below visits every (test, configuration) pair.
    grid = [(config.key(), config.label()) for config in configs]

    # One streaming pass over the dataset's cells classifies each
    # present grid cell (``None`` = healthy, else the quarantine
    # reason).  The grid walk below then needs only this verdict map —
    # no per-cell timing tuples — so a columnar dataset audits off its
    # mapped file without ever materialising the full grid in memory.
    grid_tests = set(tests)
    grid_keys = {key for key, _ in grid}
    verdicts: Dict[Tuple[TestCase, str], Optional[str]] = {}
    for test, key, times in dataset.iter_cells():
        if test in grid_tests and key in grid_keys:
            verdicts[(test, key)] = _cell_reason(times, repetitions)

    _MISSING = "missing"  # sentinel distinct from None (= healthy)
    for test in tests:
        test_axes = (
            ("chip", test.chip),
            ("app", test.app),
            ("input", test.graph),
        )
        for key, label in grid:
            axes = test_axes + (("config", label),)
            for axis in axes:
                dim_expected[axis] = dim_expected.get(axis, 0) + 1
            reason = verdicts.get((test, key), _MISSING)
            if reason is _MISSING:
                issues.append(CellIssue(test, key, "missing", "no measurement"))
                continue
            if reason is not None:
                if strict:
                    raise AuditError(
                        f"audit failed for {test} [{label}]: {reason}"
                    )
                issues.append(CellIssue(test, key, "quarantined", reason))
                continue
            present += 1
            for axis in axes:
                dim_present[axis] = dim_present.get(axis, 0) + 1

    quarantined = [i for i in issues if i.verdict == "quarantined"]
    clean = dataset
    if quarantined:
        bad = {(i.test, i.config_key) for i in quarantined}
        config_map = {config.key(): config for config in dataset.configs}
        clean = PerfDataset()
        for test, key, times in dataset.iter_cells():
            if (test, key) in bad:
                continue
            clean._times[(test, key)] = tuple(times)
            clean._configs.setdefault(key, config_map[key])
            clean._tests.setdefault(test, None)

    expected = len(tests) * len(configs)
    holes: Tuple[str, ...] = ()
    if issues:
        ranked = sorted(
            (
                (axis, value, dim_expected[(axis, value)] - count)
                for (axis, value), count in (
                    ((k, dim_present.get(k, 0)) for k in dim_expected)
                )
            ),
            key=lambda item: (-item[2], item[0], item[1]),
        )
        holes = tuple(
            f"{axis} {value}: {gap}/{dim_expected[(axis, value)]} cells "
            f"missing or bad"
            for axis, value, gap in ranked[:3]
            if gap > 0
        )
    coverage = Coverage(
        present=present,
        expected=expected,
        quarantined=len(quarantined),
        holes=holes,
    )
    dimension_coverage: Dict[str, Dict[str, Tuple[int, int]]] = {}
    for (axis, value), exp in dim_expected.items():
        dimension_coverage.setdefault(axis, {})[value] = (
            dim_present.get((axis, value), 0),
            exp,
        )
    return DatasetAudit(clean, issues, coverage, dimension_coverage)


def require_coverage(
    coverage: Coverage, floor: float = DEFAULT_COVERAGE_FLOOR
) -> None:
    """Refuse analysis below the coverage floor.

    Raises :class:`~repro.errors.InsufficientCoverageError` naming the
    worst holes and the re-pricing remedy when ``coverage.fraction``
    falls below ``floor``.  The error carries the offending
    :class:`~repro.study.dataset.Coverage` as ``.coverage``.
    """
    if not 0.0 <= floor <= 1.0:
        raise ValueError("coverage floor must be within [0, 1]")
    if coverage.fraction >= floor:
        return
    detail = (
        "; worst holes: " + "; ".join(coverage.holes)
        if coverage.holes
        else ""
    )
    err = InsufficientCoverageError(
        f"dataset coverage {100.0 * coverage.fraction:.0f}% "
        f"({coverage.present}/{coverage.expected} cells) is below the "
        f"--min-coverage floor of {100.0 * floor:.0f}%{detail}; re-price "
        f"the missing shards (python -m repro study OUT --resume) or "
        f"lower the floor"
    )
    err.coverage = coverage
    raise err
