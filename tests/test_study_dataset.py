"""Tests for the performance dataset."""

import json
import os

import pytest

from repro.compiler import BASELINE, OptConfig
from repro.core.cells import CellTable
from repro.errors import DatasetError
from repro.faults import FaultPlan
from repro.study import PerfDataset, TestCase


@pytest.fixture
def dataset():
    ds = PerfDataset()
    cfg_a = OptConfig(sg=True)
    cfg_b = OptConfig(fg=8)
    for chip in ("C1", "C2"):
        for app in ("a1", "a2"):
            base_time = 100.0 if chip == "C1" else 200.0
            ds.add(TestCase(app, "g1", chip), BASELINE, [base_time] * 3)
            ds.add(TestCase(app, "g1", chip), cfg_a, [base_time * 0.5] * 3)
            ds.add(TestCase(app, "g1", chip), cfg_b, [base_time * 2.0] * 3)
    return ds


class TestPopulation:
    def test_axes(self, dataset):
        assert dataset.apps == ["a1", "a2"]
        assert dataset.graphs == ["g1"]
        assert dataset.chips == ["C1", "C2"]
        assert len(dataset) == 4
        assert dataset.n_measurements == 12

    def test_rejects_empty_times(self):
        ds = PerfDataset()
        with pytest.raises(DatasetError):
            ds.add(TestCase("a", "g", "c"), BASELINE, [])

    def test_rejects_non_positive_times(self):
        ds = PerfDataset()
        with pytest.raises(DatasetError):
            ds.add(TestCase("a", "g", "c"), BASELINE, [1.0, -2.0])

    def test_overwrite_replaces(self, dataset):
        test = TestCase("a1", "g1", "C1")
        dataset.add(test, BASELINE, [7.0, 7.0, 7.0])
        assert dataset.median(test, BASELINE) == 7.0
        assert dataset.n_measurements == 12


class TestQueries:
    def test_times_and_median(self, dataset):
        test = TestCase("a1", "g1", "C1")
        assert dataset.times(test, BASELINE) == (100.0, 100.0, 100.0)
        assert dataset.median(test, OptConfig(sg=True)) == 50.0

    def test_missing_measurement(self, dataset):
        with pytest.raises(DatasetError):
            dataset.times(TestCase("zz", "g1", "C1"), BASELINE)
        with pytest.raises(DatasetError):
            dataset.times(TestCase("a1", "g1", "C1"), OptConfig(wg=True))

    def test_has(self, dataset):
        assert dataset.has(TestCase("a1", "g1", "C1"), BASELINE)
        assert not dataset.has(TestCase("a1", "g1", "C1"), OptConfig(wg=True))

    def test_best_config(self, dataset):
        """The oracle configuration is the test's lowest median."""
        best = CellTable(dataset).oracle(TestCase("a1", "g1", "C1"))
        assert best == OptConfig(sg=True).key()

    def test_tests_where(self, dataset):
        assert len(dataset.tests_where(chip="C1")) == 2
        assert len(dataset.tests_where(app="a1")) == 2
        assert len(dataset.tests_where(app="a1", chip="C2")) == 1
        assert dataset.tests_where(graph="nope") == []

    def test_subset(self, dataset):
        sub = dataset.subset(dataset.tests_where(chip="C1"))
        assert sub.chips == ["C1"]
        assert sub.n_measurements == 6

    def test_iter_measurements(self, dataset):
        seen = list(dataset.iter_measurements())
        assert len(seen) == 12
        test, config, times = seen[0]
        assert isinstance(test, TestCase)
        assert isinstance(config, OptConfig)
        assert len(times) == 3


class TestMerging:
    """Merging partial datasets of a sharded sweep."""

    def _part(self, chip, value=100.0):
        ds = PerfDataset()
        ds.add(TestCase("a1", "g1", chip), BASELINE, [value] * 3)
        ds.add(TestCase("a1", "g1", chip), OptConfig(sg=True), [value / 2] * 3)
        return ds

    def test_update_disjoint(self):
        ds = self._part("C1")
        ds.update(self._part("C2", 200.0))
        assert ds.chips == ["C1", "C2"]
        assert ds.n_measurements == 4
        assert ds.times(TestCase("a1", "g1", "C2"), BASELINE) == (200.0,) * 3

    def test_update_identical_overlap_ok(self):
        ds = self._part("C1")
        ds.update(self._part("C1"))
        assert ds.n_measurements == 2

    def test_update_conflicting_overlap_raises(self):
        ds = self._part("C1")
        with pytest.raises(DatasetError):
            ds.update(self._part("C1", 999.0))

    def test_update_conflict_names_the_offending_cell(self):
        """The error must say *which* (test, config) conflicted."""
        ds = self._part("C1")
        with pytest.raises(DatasetError) as excinfo:
            ds.update(self._part("C1", 999.0))
        err = excinfo.value
        assert err.test == TestCase("a1", "g1", "C1")
        assert err.config_key == BASELINE.key()
        message = str(err)
        assert "a1/g1/C1" in message
        assert f"{BASELINE.key()!r}" in message
        assert "100.0" in message and "999.0" in message

    def test_merged_classmethod(self):
        merged = PerfDataset.merged(
            [self._part("C1"), self._part("C2", 200.0), self._part("C3", 300.0)]
        )
        assert merged.chips == ["C1", "C2", "C3"]
        assert merged.n_measurements == 6

    def test_equality_ignores_insertion_order(self):
        a = PerfDataset.merged([self._part("C1"), self._part("C2", 200.0)])
        b = PerfDataset.merged([self._part("C2", 200.0), self._part("C1")])
        assert a == b
        assert a.tests != b.tests  # order differs, table does not

    def test_equality_detects_differences(self, dataset):
        other = PerfDataset.merged([dataset])
        assert other == dataset
        other.add(TestCase("a1", "g1", "C1"), BASELINE, [1.0, 1.0, 1.0])
        assert other != dataset
        assert dataset != object()


class TestPersistence:
    def test_json_roundtrip(self, dataset, tmp_path):
        path = str(tmp_path / "ds.json")
        dataset.save(path)
        loaded = PerfDataset.load(path)
        assert loaded.n_measurements == dataset.n_measurements
        test = TestCase("a2", "g1", "C2")
        assert loaded.times(test, OptConfig(sg=True)) == dataset.times(
            test, OptConfig(sg=True)
        )

    def test_gzip_roundtrip(self, dataset, tmp_path):
        path = str(tmp_path / "ds.json.gz")
        dataset.save(path)
        loaded = PerfDataset.load(path)
        assert loaded.n_measurements == dataset.n_measurements

    def test_config_keys_survive_roundtrip(self, dataset, tmp_path):
        path = str(tmp_path / "ds.json")
        dataset.save(path)
        loaded = PerfDataset.load(path)
        assert {c.key() for c in loaded.configs} == {
            c.key() for c in dataset.configs
        }

    def test_save_is_atomic_no_temp_left_behind(self, dataset, tmp_path):
        path = str(tmp_path / "ds.json")
        dataset.save(path)
        dataset.save(path)  # overwrite in place
        assert os.listdir(tmp_path) == ["ds.json"]

    def test_legacy_uncheck_summed_payload_loads(self, dataset, tmp_path):
        """Files from before the checksum header still load."""
        path = str(tmp_path / "legacy.json")
        with open(path, "w") as f:
            json.dump(dataset.to_dict(), f)
        assert PerfDataset.load(path) == dataset


class TestCorruptionDetection:
    """Truncated or tampered dataset files raise a clear DatasetError."""

    def _saved(self, dataset, tmp_path, name="ds.json"):
        path = str(tmp_path / name)
        dataset.save(path)
        return path

    def test_truncated_json_raises_with_path_and_reason(
        self, dataset, tmp_path
    ):
        path = self._saved(dataset, tmp_path)
        with open(path, "r+") as f:
            f.truncate(os.path.getsize(path) // 2)
        with pytest.raises(DatasetError) as excinfo:
            PerfDataset.load(path)
        assert path in str(excinfo.value)
        assert "truncated or invalid JSON" in str(excinfo.value)

    def test_truncated_gzip_raises(self, dataset, tmp_path):
        path = self._saved(dataset, tmp_path, "ds.json.gz")
        with open(path, "r+b") as f:
            f.truncate(os.path.getsize(path) // 2)
        with pytest.raises(DatasetError) as excinfo:
            PerfDataset.load(path)
        assert path in str(excinfo.value)

    def test_garbage_gzip_raises(self, dataset, tmp_path):
        path = str(tmp_path / "ds.json.gz")
        with open(path, "wb") as f:
            f.write(b"this is not gzip")
        with pytest.raises(DatasetError, match="bad gzip"):
            PerfDataset.load(path)

    def test_tampered_timing_fails_checksum(self, dataset, tmp_path):
        path = self._saved(dataset, tmp_path)
        with open(path) as f:
            payload = json.load(f)
        payload["measurements"][0]["times"][0] += 1.0
        with open(path, "w") as f:
            json.dump(payload, f)
        with pytest.raises(DatasetError, match="checksum mismatch"):
            PerfDataset.load(path)

    def test_missing_file_raises_dataset_error(self, tmp_path):
        with pytest.raises(DatasetError, match="cannot read"):
            PerfDataset.load(str(tmp_path / "nope.json"))

    def test_wrong_shape_payload_raises(self, tmp_path):
        path = str(tmp_path / "ds.json")
        with open(path, "w") as f:
            json.dump([1, 2, 3], f)
        with pytest.raises(DatasetError, match="measurements"):
            PerfDataset.load(path)

    def test_malformed_record_raises(self, tmp_path):
        path = str(tmp_path / "ds.json")
        with open(path, "w") as f:
            json.dump({"measurements": [{"app": "a"}]}, f)
        with pytest.raises(DatasetError, match="malformed measurement"):
            PerfDataset.load(path)

    def test_injected_corrupt_write_detected_on_load(self, dataset, tmp_path):
        """The corrupted-write fault class: save garbles, load rejects."""
        plan = FaultPlan(str(tmp_path / "spool"))
        plan.arm("corrupt", "ds.json")
        path = str(tmp_path / "ds.json")
        dataset.save(path, faults=plan)
        with pytest.raises(DatasetError) as excinfo:
            PerfDataset.load(path)
        assert path in str(excinfo.value)
        # With no fault armed the same save/load roundtrips cleanly.
        dataset.save(path, faults=plan)
        assert PerfDataset.load(path) == dataset

    def test_injected_corrupt_write_on_gzip(self, dataset, tmp_path):
        plan = FaultPlan(str(tmp_path / "spool"))
        plan.arm("corrupt", "ds.json.gz")
        path = str(tmp_path / "ds.json.gz")
        dataset.save(path, faults=plan)
        with pytest.raises(DatasetError):
            PerfDataset.load(path)
