"""Golden regression tests for the paper's headline experiments.

Each test renders an experiment on the committed miniature dataset
(``tests/goldens/mini-dataset.json.gz``) and compares the output
byte-for-byte against a committed golden file.  A separate test pins
the dataset itself: regenerating the miniature study must reproduce
the committed dataset exactly, so any drift in the study pipeline —
graph generation, the performance model, the noise model, the pricing
engines — fails loudly here before it silently shifts every table.

To bless intentional changes::

    PYTHONPATH=src python -m pytest tests/test_golden_experiments.py \
        --update-goldens

then commit the rewritten files under ``tests/goldens/``.
"""

from __future__ import annotations

import os

import pytest

from repro.core.portability import max_geomean_speedup
from repro.experiments import (
    fig1_heatmap,
    fig2_top_opts,
    table2_envelope,
    table3_ranking,
)
from repro.study.dataset import PerfDataset

GOLDEN_DATASET = "mini-dataset.json.gz"

EXPERIMENTS = {
    "table2_envelope.txt": table2_envelope.run,
    "table3_ranking.txt": table3_ranking.run,
    "fig1_heatmap.txt": fig1_heatmap.run,
    "fig2_top_opts.txt": fig2_top_opts.run,
}


@pytest.fixture(scope="module")
def golden_dataset(goldens_dir, mini_dataset, update_goldens) -> PerfDataset:
    """The committed miniature dataset (rewritten under --update-goldens)."""
    path = os.path.join(goldens_dir, GOLDEN_DATASET)
    if update_goldens:
        os.makedirs(goldens_dir, exist_ok=True)
        mini_dataset.save(path)
    if not os.path.exists(path):
        pytest.fail(
            f"missing golden dataset {path}; run with --update-goldens "
            f"to create it"
        )
    return PerfDataset.load(path)


def test_mini_dataset_matches_committed(golden_dataset, mini_dataset):
    """The study pipeline still reproduces the committed dataset.

    The miniature study is fully seeded, so regeneration must be exact;
    a mismatch means the pricing pipeline changed behaviour and every
    golden table needs re-blessing (or the change needs reverting).
    """
    assert mini_dataset == golden_dataset
    assert mini_dataset.n_measurements == golden_dataset.n_measurements


@pytest.mark.parametrize("name", sorted(EXPERIMENTS))
def test_experiment_output_matches_golden(
    name, golden_dataset, goldens_dir, update_goldens
):
    rendered = EXPERIMENTS[name](golden_dataset)
    assert rendered.strip(), f"{name}: experiment rendered nothing"
    path = os.path.join(goldens_dir, name)
    if update_goldens:
        with open(path, "w", encoding="utf-8") as f:
            f.write(rendered + "\n")
    if not os.path.exists(path):
        pytest.fail(
            f"missing golden file {path}; run with --update-goldens to "
            f"create it"
        )
    with open(path, encoding="utf-8") as f:
        expected = f.read()
    assert rendered + "\n" == expected, (
        f"{name} drifted from its golden file; if the change is "
        f"intentional, re-bless with --update-goldens and commit"
    )


def test_max_geomean_speedup_is_pinned(golden_dataset):
    """Section II-B's headline number on the miniature dataset, exactly:
    the oracle's geomean speedup over the baseline."""
    assert max_geomean_speedup(golden_dataset) == 4.218492582271946
