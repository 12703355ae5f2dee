"""Tests for the binary columnar ``perf-dataset-v3`` store.

Three layers:

* unit tests of the writer/reader pair — interning, conflicts, lazy
  verification, corruption, salvage and unmapping on close;
* a Hypothesis property suite: any dataset (unicode axis names,
  NaN/inf/negative-zero timings, ragged repetition counts) survives a
  write/load round trip with *bitwise* float equality;
* the ``repro dataset`` CLI (convert / info / verify exit codes).
"""

from __future__ import annotations

import math
import os
import struct

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.compiler import BASELINE, OptConfig, enumerate_configs
from repro.errors import DatasetError
from repro.store import (
    COLUMNAR_FORMAT,
    COLUMNAR_MAGIC,
    ColumnWriter,
    ColumnarDataset,
    columnar_from_dataset,
    inspect_columnar,
    salvage_columnar,
    write_columnar,
)
from repro.store.cli import main as dataset_cli
from repro.study.audit import audit_dataset
from repro.study.dataset import PerfDataset, TestCase, peek_format

CONFIGS = enumerate_configs()


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


def _same_times(a, b) -> bool:
    """Bitwise float-sequence equality (NaN payloads, -0.0 included)."""
    return len(a) == len(b) and all(
        _bits(x) == _bits(y) for x, y in zip(a, b)
    )


def _cfg(key: str) -> OptConfig:
    return OptConfig() if key == "baseline" else OptConfig.from_names(
        key.split("+")
    )


def _assert_equivalent(columnar: PerfDataset, original: PerfDataset):
    """Cell-exact equivalence, robust to NaN (unlike a naive ``==``)."""
    assert columnar.tests == original.tests
    assert [c.key() for c in columnar.configs] == [
        c.key() for c in original.configs
    ]
    assert columnar.n_measurements == original.n_measurements
    for test, key, times in original.iter_cells():
        got = columnar.times_or_none(test, _cfg(key))
        assert got is not None, (test, key)
        assert _same_times(got, times), (test, key, got, times)


def _small_dataset() -> PerfDataset:
    ds = PerfDataset()
    for chip in ("C1", "C2"):
        for app in ("bfs", "pr"):
            test = TestCase(app, "g1", chip)
            ds.add(test, BASELINE, [1.0, 2.0, 3.0])
            ds.add(test, CONFIGS[5], [0.5, 0.25])
    return ds


@pytest.fixture
def v3_path(tmp_path):
    return str(tmp_path / "ds.v3")


# -- round trip ---------------------------------------------------------------


class TestRoundTrip:
    def test_small_dataset_round_trips(self, v3_path):
        ds = _small_dataset()
        write_columnar(ds, v3_path)
        loaded = ColumnarDataset.load(v3_path)
        _assert_equivalent(loaded, ds)
        assert loaded == ds  # no NaNs here, plain equality also holds
        loaded.close()

    def test_empty_dataset_round_trips(self, v3_path):
        write_columnar(PerfDataset(), v3_path)
        loaded = ColumnarDataset.load(v3_path)
        assert len(loaded) == 0
        assert loaded.n_measurements == 0
        assert list(loaded.iter_cells()) == []

    def test_load_dispatch_via_perfdataset(self, v3_path):
        write_columnar(_small_dataset(), v3_path)
        loaded = PerfDataset.load(v3_path)
        assert isinstance(loaded, ColumnarDataset)

    def test_save_autodetects_v3_extension(self, v3_path):
        ds = _small_dataset()
        ds.save(v3_path)
        assert peek_format(v3_path) == COLUMNAR_FORMAT
        assert PerfDataset.load(v3_path) == ds

    def test_save_explicit_format_overrides_extension(self, tmp_path):
        ds = _small_dataset()
        path = str(tmp_path / "ds.bin")
        ds.save(path, format="v3")
        assert peek_format(path) == COLUMNAR_FORMAT

    def test_save_rejects_unknown_format(self, tmp_path):
        with pytest.raises(ValueError, match="unknown dataset format"):
            _small_dataset().save(str(tmp_path / "x"), format="v9")

    def test_from_payload_and_memory_build(self):
        ds = _small_dataset()
        cd = columnar_from_dataset(ds)
        assert isinstance(cd, ColumnarDataset)
        assert cd == ds

    def test_deterministic_bytes(self, tmp_path):
        ds = _small_dataset()
        a, b = str(tmp_path / "a.v3"), str(tmp_path / "b.v3")
        write_columnar(ds, a)
        write_columnar(ds, b)
        assert open(a, "rb").read() == open(b, "rb").read()

    def test_insertion_order_preserved(self, v3_path):
        ds = PerfDataset()
        # Deliberately interleave configs so order != sorted order.
        t1, t2 = TestCase("z", "g", "C2"), TestCase("a", "g", "C1")
        ds.add(t1, CONFIGS[7], [1.0])
        ds.add(t2, BASELINE, [2.0])
        ds.add(t1, BASELINE, [3.0])
        write_columnar(ds, v3_path)
        loaded = ColumnarDataset.load(v3_path)
        assert loaded.tests == [t1, t2]
        assert [c.key() for c in loaded.configs] == [
            CONFIGS[7].key(),
            BASELINE.key(),
        ]

    def test_analysis_protocol_parity(self, v3_path):
        ds = _small_dataset()
        write_columnar(ds, v3_path)
        cd = ColumnarDataset.load(v3_path)
        test = ds.tests[0]
        assert cd.has(test, BASELINE)
        assert cd.times(test, BASELINE) == ds.times(test, BASELINE)
        assert cd.median(test, BASELINE) == ds.median(test, BASELINE)
        assert cd.times_or_none(test, CONFIGS[3]) is None
        assert cd.coverage().fraction == ds.coverage().fraction
        assert cd.apps == ds.apps
        assert cd.chips == ds.chips
        assert cd.graphs == ds.graphs

    def test_audit_works_on_columnar(self, v3_path):
        ds = _small_dataset()
        ds.add(TestCase("bad", "g1", "C1"), BASELINE, [float("nan"), 1.0])
        write_columnar(ds, v3_path)
        audit = audit_dataset(ColumnarDataset.load(v3_path))
        assert len(audit.quarantined) == 1
        assert audit.quarantined[0].test.app == "bad"


# -- read-only contract -------------------------------------------------------


class TestClose:
    def test_close_unmaps_the_file(self, v3_path):
        write_columnar(_small_dataset(), v3_path)
        ds = ColumnarDataset.load(v3_path)
        assert not ds._buf.closed
        ds.close()
        assert ds._buf.closed


class TestReadOnly:
    def test_add_raises(self, v3_path):
        write_columnar(_small_dataset(), v3_path)
        cd = ColumnarDataset.load(v3_path)
        with pytest.raises(DatasetError, match="read-only"):
            cd.add(TestCase("x", "y", "C1"), BASELINE, [1.0])

    def test_update_raises(self, v3_path):
        write_columnar(_small_dataset(), v3_path)
        cd = ColumnarDataset.load(v3_path)
        with pytest.raises(DatasetError, match="read-only"):
            cd.update(_small_dataset())

    def test_direct_construction_rejected(self):
        with pytest.raises(TypeError):
            ColumnarDataset()

    def test_subset_returns_mutable_dataset(self, v3_path):
        write_columnar(_small_dataset(), v3_path)
        cd = ColumnarDataset.load(v3_path)
        sub = cd.subset(t for t in cd.tests if t.chip == "C1")
        assert type(sub) is PerfDataset
        assert sub.chips == ["C1"]


# -- writer -------------------------------------------------------------------


class TestColumnWriter:
    def test_identical_readd_is_noop(self):
        w = ColumnWriter()
        t = TestCase("a", "g", "C1")
        w.add(t, BASELINE, [1.0, 2.0])
        w.add(t, BASELINE, [1.0, 2.0])
        assert w.n_cells == 1

    def test_conflicting_readd_raises(self):
        w = ColumnWriter()
        t = TestCase("a", "g", "C1")
        w.add(t, BASELINE, [1.0, 2.0])
        with pytest.raises(DatasetError, match="conflict"):
            w.add(t, BASELINE, [9.0])

    def test_empty_times_rejected(self):
        with pytest.raises(DatasetError, match="no timings"):
            ColumnWriter().add(TestCase("a", "g", "C1"), BASELINE, [])


# -- corruption, verification, salvage ---------------------------------------


def _flip_byte(path: str, offset: int) -> None:
    with open(path, "r+b") as f:
        f.seek(offset)
        byte = f.read(1)
        f.seek(offset)
        f.write(bytes([byte[0] ^ 0xFF]))


class TestIntegrity:
    def test_header_corruption_fails_load(self, v3_path):
        write_columnar(_small_dataset(), v3_path)
        _flip_byte(v3_path, 16)  # inside the counts block
        with pytest.raises(DatasetError, match="corrupt dataset"):
            ColumnarDataset.load(v3_path)

    def test_bad_magic_fails_load(self, v3_path):
        write_columnar(_small_dataset(), v3_path)
        _flip_byte(v3_path, 0)
        with pytest.raises(DatasetError):
            ColumnarDataset.load(v3_path)

    def test_string_table_corruption_fails_load(self, v3_path):
        write_columnar(_small_dataset(), v3_path)
        info = inspect_columnar(v3_path)
        _flip_byte(v3_path, info["sections"]["strings"]["offset"] + 6)
        with pytest.raises(DatasetError):
            ColumnarDataset.load(v3_path)

    def test_times_corruption_is_lazy(self, v3_path):
        """Load stays cheap: the timing column is only hashed by verify()."""
        write_columnar(_small_dataset(), v3_path)
        info = inspect_columnar(v3_path)
        sec = info["sections"]["times"]
        _flip_byte(v3_path, sec["offset"] + sec["bytes"] - 4)
        cd = ColumnarDataset.load(v3_path)  # loads fine
        with pytest.raises(DatasetError, match="times"):
            cd.verify()

    def test_truncation_fails_load(self, v3_path):
        write_columnar(_small_dataset(), v3_path)
        data = open(v3_path, "rb").read()
        open(v3_path, "wb").write(data[: len(data) - 20])
        with pytest.raises(DatasetError, match="truncated|exceeds"):
            ColumnarDataset.load(v3_path)

    def test_salvage_recovers_prefix_of_truncated_file(self, v3_path):
        ds = _small_dataset()
        write_columnar(ds, v3_path)
        info = inspect_columnar(v3_path)
        sec = info["sections"]["times"]
        # Keep the index columns and half the timing column.
        keep = sec["offset"] + sec["bytes"] // 2
        data = open(v3_path, "rb").read()
        open(v3_path, "wb").write(data[:keep])
        partial, salvaged, declared, notes = salvage_columnar(v3_path)
        assert declared == ds.n_measurements
        assert 0 < salvaged < declared
        assert partial.n_measurements == salvaged
        assert notes  # explains where it stopped
        # Salvaged cells match the original exactly, in original order.
        for (test, key, times), (otest, okey, otimes) in zip(
            partial.iter_cells(), ds.iter_cells()
        ):
            assert (test, key) == (otest, okey)
            assert _same_times(times, otimes)

    def test_inspect_reports_axes_and_sections(self, v3_path):
        ds = _small_dataset()
        write_columnar(ds, v3_path)
        info = inspect_columnar(v3_path)
        assert info["format"] == COLUMNAR_FORMAT
        assert info["tests"] == len(ds)
        assert info["cells"] == ds.n_measurements
        assert sorted(info["chips"]) == ["C1", "C2"]
        assert set(info["sections"]) == {
            "strings",
            "tests",
            "cells",
            "offsets",
            "times",
        }


# -- CLI ----------------------------------------------------------------------


class TestDatasetCli:
    def test_convert_info_verify(self, tmp_path, capsys):
        src = str(tmp_path / "src.json")
        dst = str(tmp_path / "dst.v3")
        _small_dataset().save(src)
        assert dataset_cli(["convert", src, dst]) == 0
        assert dataset_cli(["info", dst]) == 0
        out = capsys.readouterr().out
        assert COLUMNAR_FORMAT in out
        assert dataset_cli(["verify", dst]) == 0
        back = str(tmp_path / "back.json.gz")
        assert dataset_cli(["convert", dst, back]) == 0
        assert PerfDataset.load(back) == _small_dataset()

    def test_info_json_mode(self, tmp_path, capsys):
        import json

        dst = str(tmp_path / "d.v3")
        write_columnar(_small_dataset(), dst)
        assert dataset_cli(["info", dst, "--json"]) == 0
        info = json.loads(capsys.readouterr().out)
        assert info["format"] == COLUMNAR_FORMAT

    def test_verify_fails_on_damage(self, tmp_path, capsys):
        dst = str(tmp_path / "d.v3")
        write_columnar(_small_dataset(), dst)
        sec = inspect_columnar(dst)["sections"]["times"]
        _flip_byte(dst, sec["offset"] + 1)
        assert dataset_cli(["verify", dst]) == 1

    def test_convert_missing_input_fails(self, tmp_path, capsys):
        assert dataset_cli(["convert", str(tmp_path / "no.json"), "o.v3"]) == 1

    def test_no_verb_is_usage_error(self, capsys):
        assert dataset_cli([]) == 2


# -- Hypothesis property suite ------------------------------------------------

_name = st.text(
    alphabet=st.characters(
        whitelist_categories=("L", "N"), max_codepoint=0x2FFF
    ),
    min_size=1,
    max_size=6,
)

# PerfDataset.add rejects non-positive timings; NaN and +inf pass its
# gate (and get quarantined downstream), so they belong in the strategy.
_time = st.one_of(
    st.floats(min_value=1e-12, max_value=1e15, allow_nan=False),
    st.just(float("nan")),
    st.just(float("inf")),
)

_times = st.lists(_time, min_size=1, max_size=4)


@st.composite
def _datasets(draw):
    apps = draw(st.lists(_name, min_size=1, max_size=2, unique=True))
    graphs = draw(st.lists(_name, min_size=1, max_size=2, unique=True))
    chips = draw(st.lists(_name, min_size=1, max_size=2, unique=True))
    config_idx = draw(
        st.lists(
            st.integers(0, len(CONFIGS) - 1),
            min_size=1,
            max_size=3,
            unique=True,
        )
    )
    ds = PerfDataset()
    for app in apps:
        for graph in graphs:
            for chip in chips:
                test = TestCase(app, graph, chip)
                for idx in config_idx:
                    if draw(st.booleans()):
                        ds.add(test, CONFIGS[idx], draw(_times))
    return ds


class TestRoundTripProperties:
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(ds=_datasets())
    def test_any_dataset_round_trips_bitwise(self, ds, tmp_path_factory):
        path = str(tmp_path_factory.mktemp("prop") / "ds.v3")
        write_columnar(ds, path)
        loaded = ColumnarDataset.load(path)
        try:
            _assert_equivalent(loaded, ds)
            # And the reverse direction: every columnar cell exists in
            # the original (no invented cells).
            for test, key, times in loaded.iter_cells():
                orig = ds.times_or_none(test, _cfg(key))
                assert orig is not None
                assert _same_times(times, orig)
        finally:
            loaded.close()

    @settings(max_examples=20, deadline=None)
    @given(ds=_datasets())
    def test_memory_build_matches_file_build(self, ds, tmp_path_factory):
        path = str(tmp_path_factory.mktemp("mem") / "ds.v3")
        write_columnar(ds, path)
        from_file = ColumnarDataset.load(path)
        in_memory = columnar_from_dataset(ds)
        try:
            assert from_file.tests == in_memory.tests
            assert from_file.n_measurements == in_memory.n_measurements
            for test, key, times in from_file.iter_cells():
                assert _same_times(
                    times, in_memory.times(test, _cfg(key))
                )
        finally:
            from_file.close()
