"""Dataset audit and quarantine (repro.study.audit)."""

import hashlib
import json
import os

import pytest

from repro.compiler.options import OptConfig
from repro.errors import AuditError, InsufficientCoverageError
from repro.study.audit import (
    AUDIT_FORMAT,
    DatasetAudit,
    audit_dataset,
    require_coverage,
)
from repro.study.dataset import Coverage, PerfDataset, TestCase


def _configs():
    return [OptConfig(), OptConfig.from_names(["wg"])]


def _make_dataset(chips=("c0", "c1"), apps=("a0", "a1"), graphs=("g0",)):
    ds = PerfDataset()
    for chip in chips:
        for app in apps:
            for graph in graphs:
                for cfg in _configs():
                    ds.add(TestCase(app, graph, chip), cfg, (1.0, 2.0, 3.0))
    return ds


def _poison(ds, test, key, times):
    """Bypass add()'s validation to plant a bad cell (as corruption would)."""
    ds._times[(test, key)] = times


class TestAuditVerdicts:
    def test_clean_dataset_is_ok(self):
        audit = audit_dataset(_make_dataset())
        assert audit.ok
        assert audit.coverage.complete
        assert audit.quarantined == [] and audit.missing == []
        assert audit.dataset is not None
        assert "100%" in audit.render()

    def test_nan_cell_quarantined(self):
        ds = _make_dataset()
        bad = TestCase("a0", "g0", "c0")
        _poison(ds, bad, "wg", (float("nan"), 1.0, 2.0))
        audit = audit_dataset(ds)
        assert len(audit.quarantined) == 1
        issue = audit.quarantined[0]
        assert issue.test == bad and issue.config_key == "wg"
        assert "non-finite" in issue.reason
        # The cleaned dataset no longer holds the poisoned cell.
        assert audit.dataset.times_or_none(bad, OptConfig.from_names(["wg"])) is None
        assert audit.coverage.quarantined == 1
        assert not audit.coverage.complete

    def test_inf_and_nonpositive_quarantined(self):
        ds = _make_dataset()
        _poison(ds, TestCase("a0", "g0", "c0"), "baseline", (float("inf"),))
        _poison(ds, TestCase("a1", "g0", "c1"), "wg", (0.0, 1.0))
        audit = audit_dataset(ds)
        reasons = sorted(i.reason for i in audit.quarantined)
        assert len(reasons) == 2
        assert any("non-finite" in r for r in reasons)
        assert any("non-positive" in r for r in reasons)

    def test_repetition_count_enforced(self):
        ds = _make_dataset()
        _poison(ds, TestCase("a0", "g0", "c1"), "baseline", (1.0, 2.0))
        audit = audit_dataset(ds, repetitions=3)
        assert len(audit.quarantined) == 1
        assert "repetitions" in audit.quarantined[0].reason

    def test_missing_cells_against_expected_grid(self):
        ds = _make_dataset(chips=("c0",))
        expected = [TestCase(a, "g0", c) for a in ("a0", "a1") for c in ("c0", "c1")]
        audit = audit_dataset(ds, expected_tests=expected)
        assert len(audit.missing) == 4  # chip c1 never measured: 2 apps x 2 cfgs
        assert all(i.verdict == "missing" for i in audit.missing)
        assert audit.coverage.fraction == pytest.approx(0.5)
        assert any("chip c1" in h for h in audit.coverage.holes)

    def test_strict_raises_on_first_bad_cell(self):
        ds = _make_dataset()
        _poison(ds, TestCase("a0", "g0", "c0"), "wg", (float("nan"),))
        with pytest.raises(AuditError, match="non-finite"):
            audit_dataset(ds, strict=True)

    def test_dimension_coverage_counts(self):
        ds = _make_dataset()
        bad = TestCase("a0", "g0", "c0")
        _poison(ds, bad, "wg", (float("nan"),))
        audit = audit_dataset(ds)
        present, expected = audit.dimension_coverage["chip"]["c0"]
        assert (present, expected) == (3, 4)
        assert audit.dimension_coverage["chip"]["c1"] == (4, 4)


def _degraded_copy(ds):
    """Every seventh cell dropped; of the rest, every eleventh gets a NaN
    and every thirteenth loses a repetition."""
    copy = PerfDataset()
    for i, (test, config, times) in enumerate(ds.iter_measurements()):
        if i % 7:
            copy.add(test, config, times)
    for j, (test, key) in enumerate(list(copy._times)):
        times = copy._times[(test, key)]
        if j % 11 == 0:
            _poison(copy, test, key, (float("nan"),) + times[1:])
        elif j % 13 == 0:
            _poison(copy, test, key, times[:2])
    return copy


def test_audit_of_the_mini_dataset_is_pinned(goldens_dir):
    """The audit of the committed miniature dataset, and of a holed and
    quarantined copy of it, keeps its exact ``to_dict``."""
    ds = PerfDataset.load(os.path.join(goldens_dir, "mini-dataset.json.gz"))
    degraded = audit_dataset(_degraded_copy(ds), repetitions=3)
    assert (len(degraded.missing), len(degraded.quarantined)) == (247, 238)
    digests = [
        hashlib.sha256(
            json.dumps(audit.to_dict(), sort_keys=True).encode()
        ).hexdigest()
        for audit in (audit_dataset(ds), degraded)
    ]
    assert digests == [
        "8077d96bb5c6962e45facc68a251be3e64a0c8d32e3be4ee295181af98ff389f",
        "0185aaaf2da67c9bbc14290cb4d90ec1e0eb931d48daa3a19486ef7d1d92d6c7",
    ]


class TestAuditArtifact:
    def test_roundtrip(self, tmp_path):
        ds = _make_dataset()
        _poison(ds, TestCase("a0", "g0", "c0"), "wg", (float("inf"),))
        audit = audit_dataset(ds)
        path = str(tmp_path / "audit.json")
        audit.save(path)
        loaded = DatasetAudit.load_dict(path)
        assert loaded == audit.to_dict()
        assert loaded["cells_present"] == audit.coverage.present
        assert len(loaded["quarantined"]) == 1

    def test_format_tag(self, tmp_path):
        path = str(tmp_path / "audit.json")
        audit_dataset(_make_dataset()).save(path)
        with open(path) as f:
            payload = json.load(f)
        assert payload["format"] == AUDIT_FORMAT

    def test_truncated_artifact_rejected(self, tmp_path):
        path = str(tmp_path / "audit.json")
        audit_dataset(_make_dataset()).save(path)
        with open(path) as f:
            text = f.read()
        with open(path, "w") as f:
            f.write(text[: len(text) // 2])
        with pytest.raises(AuditError, match="truncated or invalid"):
            DatasetAudit.load_dict(path)

    def test_tampered_artifact_rejected(self, tmp_path):
        path = str(tmp_path / "audit.json")
        audit_dataset(_make_dataset()).save(path)
        with open(path) as f:
            payload = json.load(f)
        payload["audit"]["cells_present"] += 1
        with open(path, "w") as f:
            json.dump(payload, f)
        with pytest.raises(AuditError, match="checksum mismatch"):
            DatasetAudit.load_dict(path)

    def test_wrong_format_rejected(self, tmp_path):
        path = str(tmp_path / "audit.json")
        with open(path, "w") as f:
            json.dump({"format": "something-else"}, f)
        with pytest.raises(AuditError, match="unrecognised"):
            DatasetAudit.load_dict(path)


class TestCoverageFloor:
    def test_above_floor_passes(self):
        require_coverage(Coverage(present=9, expected=10), floor=0.5)

    def test_below_floor_raises_with_holes(self):
        cov = Coverage(
            present=1, expected=10, holes=("chip MALI: 9/10 cells missing",)
        )
        with pytest.raises(InsufficientCoverageError, match="MALI") as excinfo:
            require_coverage(cov, floor=0.5)
        assert excinfo.value.coverage is cov
        assert "--resume" in str(excinfo.value)

    def test_floor_validated(self):
        with pytest.raises(ValueError):
            require_coverage(Coverage(present=1, expected=1), floor=1.5)

    def test_empty_grid_counts_as_full(self):
        require_coverage(Coverage(present=0, expected=0), floor=1.0)
