"""Differential tests: analysis off ``perf-dataset-v3`` is byte-identical.

The committed miniature dataset is converted to the columnar format
once per module; every committed golden artifact — experiment tables,
the budget curve, the strategy index — is then regenerated from the
*converted* dataset and compared byte-for-byte against the golden
files the JSON dataset produced.  Any divergence means the columnar
store changed an analysis result, which it must never do: it is a
serialisation change, not a semantics change.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.experiments import (
    budget_curve,
    fig1_heatmap,
    fig2_top_opts,
    table2_envelope,
    table3_ranking,
)
from repro.experiments import common as experiments_common
from repro.serve.index import build_index
from repro.store import COLUMNAR_FORMAT, ColumnarDataset
from repro.study.dataset import PerfDataset, peek_format

GOLDEN_DATASET = "mini-dataset.json.gz"
GOLDEN_INDEX = "strategy-index.json"

EXPERIMENTS = {
    "table2_envelope.txt": table2_envelope.run,
    "table3_ranking.txt": table3_ranking.run,
    "fig1_heatmap.txt": fig1_heatmap.run,
    "fig2_top_opts.txt": fig2_top_opts.run,
    "budget_curve.txt": budget_curve.run,
}


@pytest.fixture(scope="module")
def json_dataset(goldens_dir) -> PerfDataset:
    return PerfDataset.load(os.path.join(goldens_dir, GOLDEN_DATASET))


@pytest.fixture(scope="module")
def v3_path(goldens_dir, tmp_path_factory, json_dataset) -> str:
    path = str(tmp_path_factory.mktemp("diff") / "mini.v3")
    json_dataset.save(path, format="v3")
    return path


@pytest.fixture(scope="module")
def v3_dataset(v3_path) -> ColumnarDataset:
    dataset = PerfDataset.load(v3_path)
    assert isinstance(dataset, ColumnarDataset)
    return dataset


def test_conversion_preserves_every_cell(json_dataset, v3_dataset):
    assert v3_dataset == json_dataset
    assert v3_dataset.tests == json_dataset.tests
    assert [c.key() for c in v3_dataset.configs] == [
        c.key() for c in json_dataset.configs
    ]


@pytest.mark.parametrize("name", sorted(EXPERIMENTS))
def test_golden_byte_identical_from_v3(name, v3_dataset, goldens_dir):
    rendered = EXPERIMENTS[name](v3_dataset)
    with open(os.path.join(goldens_dir, name), encoding="utf-8") as f:
        expected = f.read()
    assert rendered + "\n" == expected, (
        f"{name} rendered differently from the v3-converted dataset; "
        f"the columnar store changed an analysis result"
    )


def test_strategy_index_identical_from_v3(
    json_dataset, v3_dataset, tmp_path
):
    """Index compilation is deterministic across dataset backends."""
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    build_index(json_dataset).save(a)
    build_index(v3_dataset).save(b)
    assert open(a, "rb").read() == open(b, "rb").read()


def test_committed_index_golden_from_v3(v3_dataset, goldens_dir, tmp_path):
    path = str(tmp_path / "index.json")
    build_index(v3_dataset).save(path)
    with open(os.path.join(goldens_dir, GOLDEN_INDEX), encoding="utf-8") as f:
        golden = json.load(f)
    with open(path, encoding="utf-8") as f:
        built = json.load(f)
    assert built == golden


def test_default_dataset_accepts_v3_env(v3_path, json_dataset, monkeypatch):
    """``$REPRO_DATASET`` pointing at a .v3 file drives the experiments."""
    monkeypatch.setenv("REPRO_DATASET", v3_path)
    experiments_common.reset_cache()
    try:
        dataset = experiments_common.default_dataset()
        assert peek_format(v3_path) == COLUMNAR_FORMAT
        assert dataset == json_dataset
        # The rendered table matches the committed golden end to end.
        rendered = table2_envelope.run(dataset)
        goldens = os.path.join(
            os.path.dirname(__file__), "goldens", "table2_envelope.txt"
        )
        with open(goldens, encoding="utf-8") as f:
            assert rendered + "\n" == f.read()
    finally:
        experiments_common.reset_cache()
