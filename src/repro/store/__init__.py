"""Columnar measurement store: the ``perf-dataset-v3`` binary format.

The JSON ``perf-dataset-v2`` format must be fully parsed and
materialised as Python dicts before any analysis can start; at the
paper's full grid (17 apps × 3 inputs × 6 chips × 96 configurations)
and beyond, that parse dominates every consumer's start-up.  This
package stores the same measurements in a checksummed binary columnar
layout built from stdlib ``struct``/``array``/``mmap``:

* :class:`~repro.store.columnar.ColumnarDataset` mmaps a ``.v3`` file
  read-only and serves the full :class:`~repro.study.dataset.PerfDataset`
  protocol — timings stay in the mapped file until a cell is queried;
* :class:`~repro.store.columnar.ColumnWriter` appends cells and
  commits atomically;
* :mod:`~repro.store.cli` is the ``repro dataset`` subcommand
  (``convert`` / ``info`` / ``verify``).

See ``docs/dataset.md`` for the on-disk layout and conversion
workflow.
"""

from .columnar import (
    COLUMNAR_FORMAT,
    COLUMNAR_MAGIC,
    ColumnarDataset,
    ColumnWriter,
    columnar_from_dataset,
    inspect_columnar,
    salvage_columnar,
    write_columnar,
)

__all__ = [
    "COLUMNAR_FORMAT",
    "COLUMNAR_MAGIC",
    "ColumnWriter",
    "ColumnarDataset",
    "columnar_from_dataset",
    "inspect_columnar",
    "salvage_columnar",
    "write_columnar",
]
