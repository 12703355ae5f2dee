"""Integration tests for the columnar study path.

Covers ``run_study(store="v3")`` (the rows sweep converted to a
columnar dataset, byte-identical to a serial save), checkpointed
``store="v3"`` runs, the files older builds left in checkpoint
directories (``.v3`` shards and chunks, trace caches), what a
checkpointed parallel run leaves behind, and ``repro doctor`` on those
checkpoints.
"""

from __future__ import annotations

import hashlib
import os

import pytest

from repro.apps import get_application
from repro.chips import get_chip
from repro.compiler import enumerate_configs
from repro.graphs import rmat_graph, road_network
from repro.graphs.inputs import StudyInput
from repro.obs import Recorder, RunReport
from repro.store import ColumnarDataset
from repro.study import StudyConfig, run_study
from repro.study.checkpoint import StudyCheckpoint
from repro.study.doctor import diagnose_checkpoint


@pytest.fixture(scope="module")
def tiny_config() -> StudyConfig:
    """2 apps x 2 inputs x 2 chips x 12 configurations."""
    road = road_network(12, 12, seed=11, name="s-road")
    rmat = rmat_graph(7, edge_factor=8, seed=11, name="s-rmat")
    return StudyConfig(
        apps=[get_application("bfs-wl"), get_application("sssp-nf")],
        inputs={
            "s-road": StudyInput(
                name="s-road",
                input_class="road",
                description="store test road",
                _builder=lambda: road,
            ),
            "s-rmat": StudyInput(
                name="s-rmat",
                input_class="social",
                description="store test rmat",
                _builder=lambda: rmat,
            ),
        },
        chips=[get_chip("GTX1080"), get_chip("MALI")],
        configs=enumerate_configs()[::8],
    )


@pytest.fixture(scope="module")
def serial_dataset(tiny_config):
    return run_study(tiny_config, jobs=1, engine="batch")


class TestStoreSelection:
    def test_serial_v3_identical_to_rows(self, tiny_config, serial_dataset):
        ds = run_study(tiny_config, store="v3")
        assert isinstance(ds, ColumnarDataset)
        assert ds == serial_dataset
        assert ds.tests == serial_dataset.tests
        assert [c.key() for c in ds.configs] == [
            c.key() for c in serial_dataset.configs
        ]

    def test_parallel_v3_identical_to_serial(
        self, tiny_config, serial_dataset, tmp_path
    ):
        ds = run_study(tiny_config, jobs=2, store="v3")
        assert isinstance(ds, ColumnarDataset)
        assert ds == serial_dataset
        parallel, serial = str(tmp_path / "p.v3"), str(tmp_path / "s.v3")
        ds.save(parallel)
        serial_dataset.save(serial)
        assert _sha256(parallel) == _sha256(serial)

    def test_unknown_store_rejected(self, tiny_config):
        with pytest.raises(ValueError, match="store"):
            run_study(tiny_config, store="parquet")


def _sha256(path: str) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def _shards(ckpt: str):
    return sorted(n for n in os.listdir(ckpt) if n.startswith("shard-"))


#: The trace cache an older build wrote next to the shards.
_OLD_TRACE_CACHE = "traces-0123456789abcdef.bin"


def _plant_older_build_files(ckpt: str) -> None:
    """Swap one JSON shard for the files older builds wrote.

    Builds that spilled columnar chunks left ``shard-*.v3`` shards and
    un-adopted ``chunk-*.v3`` spill files in checkpoint directories;
    builds that shared traces through the checkpoint left a
    ``traces-<fingerprint>.bin`` cache.
    """
    os.unlink(os.path.join(ckpt, "shard-0000-0001.json"))
    for name in ("shard-0000-0001.v3", "chunk-0000-0000.v3", _OLD_TRACE_CACHE):
        with open(os.path.join(ckpt, name), "wb") as f:
            f.write(b"written by an older build")


class TestColumnarCheckpoint:
    def test_corrupt_shard_repriced_on_resume(
        self, tiny_config, serial_dataset, tmp_path
    ):
        ckpt = str(tmp_path / "ckpt")
        run_study(tiny_config, jobs=2, checkpoint=ckpt, store="v3")
        path = os.path.join(ckpt, _shards(ckpt)[0])
        data = bytearray(open(path, "rb").read())
        data[-3] ^= 0xFF
        open(path, "wb").write(bytes(data))
        rec = Recorder(clock=lambda: 0.0)
        resumed = run_study(
            tiny_config,
            jobs=2,
            checkpoint=ckpt,
            resume=True,
            store="v3",
            recorder=rec,
        )
        assert isinstance(resumed, ColumnarDataset)
        assert resumed == serial_dataset
        report = RunReport.from_recorder(rec)
        assert report.total_counter("study.checkpoint.invalid_shards") == 1
        assert report.total_counter("study.shards.priced") == 1

    def test_resume_ignores_v3_files_from_older_builds(
        self, tiny_config, serial_dataset, tmp_path
    ):
        ckpt = str(tmp_path / "ckpt")
        run_study(tiny_config, jobs=2, checkpoint=ckpt)
        _plant_older_build_files(ckpt)
        rec = Recorder(clock=lambda: 0.0)
        resumed = run_study(
            tiny_config, jobs=2, checkpoint=ckpt, resume=True, recorder=rec
        )
        assert resumed == serial_dataset
        report = RunReport.from_recorder(rec)
        # Only the cell whose JSON shard is gone is re-priced; no file
        # an older build left counts as a shard, valid or invalid.
        assert report.total_counter("study.shards.priced") == 1
        assert report.total_counter("study.checkpoint.invalid_shards") == 0
        assert "shard-0000-0001.json" in _shards(ckpt)

    def test_parallel_run_leaves_manifest_shards_and_metrics(
        self, tiny_config, tmp_path
    ):
        ckpt = str(tmp_path / "ckpt")
        run_study(
            tiny_config,
            jobs=2,
            checkpoint=ckpt,
            recorder=Recorder(clock=lambda: 0.0),
        )
        others = sorted(set(os.listdir(ckpt)) - set(_shards(ckpt)))
        assert len(_shards(ckpt)) == 2 * 12
        assert others == ["manifest.json", "metrics.json"]

    def test_clear_removes_every_file_older_builds_left(self, tiny_config, tmp_path):
        """JSON shards, ``shard-*.v3``, ``chunk-*.v3`` and ``traces-*.bin``
        all go, so the directory itself is removed after a good save."""
        ckpt = str(tmp_path / "ckpt")
        run_study(tiny_config, jobs=2, checkpoint=ckpt)
        _plant_older_build_files(ckpt)
        StudyCheckpoint(ckpt).clear()
        assert not os.path.exists(ckpt)


class TestDoctorOnColumnarCheckpoints:
    def test_healthy_v3_checkpoint(self, tiny_config, tmp_path):
        """A ``store="v3"`` run checkpoints the full grid as JSON shards."""
        ckpt = str(tmp_path / "ckpt")
        run_study(tiny_config, jobs=2, checkpoint=ckpt, store="v3")
        shards = _shards(ckpt)
        assert len(shards) == 2 * 12  # full grid
        assert all(n.endswith(".json") for n in shards)
        assert not [n for n in os.listdir(ckpt) if n.endswith(".v3")]
        diag = diagnose_checkpoint(ckpt)
        assert diag.ok
        assert not [f for f in diag.findings if f.severity == "error"]

    def test_v3_files_from_older_builds(self, tiny_config, tmp_path):
        ckpt = str(tmp_path / "ckpt")
        run_study(tiny_config, jobs=2, checkpoint=ckpt)
        _plant_older_build_files(ckpt)
        diag = diagnose_checkpoint(ckpt)
        assert diag.ok
        orphans = [f for f in diag.findings if f.code == "shard-orphan"]
        assert len(orphans) == 1
        assert orphans[0].severity == "warning"
        assert orphans[0].message.startswith("shard-0000-0001.v3:")
        # The chunk file is not a shard: 23 valid, none damaged.
        coverage = [f for f in diag.findings if f.code == "coverage"]
        assert coverage[0].message.startswith("23/24 shards valid, 0 damaged")
        assert not any("chunk-" in f.message for f in diag.findings)

    def test_trace_cache_not_misread_as_shard(self, tiny_config, tmp_path):
        """An older build's traces-*.bin never confuses the doctor, and
        clearing the checkpoint still removes it."""
        ckpt = str(tmp_path / "ckpt")
        run_study(tiny_config, jobs=2, checkpoint=ckpt)
        _plant_older_build_files(ckpt)
        diag = diagnose_checkpoint(ckpt)
        assert diag.ok
        assert not any(_OLD_TRACE_CACHE in f.message for f in diag.findings)
        StudyCheckpoint(ckpt).clear()
        assert not os.path.exists(os.path.join(ckpt, _OLD_TRACE_CACHE))
