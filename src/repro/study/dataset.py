"""Performance dataset: the study's measurements and their query API.

A *test* is an (application, input, chip) tuple — the paper's unit of
analysis.  For every test the dataset holds repeated timings under
every optimisation configuration.  The analysis layer
(:mod:`repro.core`) consumes only this object, mirroring the paper's
design where the statistical machinery treats chips, applications and
inputs as black boxes behind a timing table.
"""

from __future__ import annotations

import gzip
import json
import os
import zlib
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..compiler.options import OptConfig
from ..errors import DatasetError
from ..util import atomic_write_bytes, sha256_hex

__all__ = [
    "TestCase",
    "PerfDataset",
    "Coverage",
    "DATASET_FORMAT",
    "peek_format",
]

#: Format tag of checksummed dataset files (legacy untagged files load too).
DATASET_FORMAT = "perf-dataset-v2"


@dataclass(frozen=True)
class Coverage:
    """How much of a dataset's (test × configuration) grid is present.

    ``expected`` counts the full cross product of the dataset's tests
    and configurations (or of an explicitly supplied grid, see
    :meth:`PerfDataset.coverage`); ``present`` the cells holding
    timings; ``quarantined`` cells an audit dropped for bad data.
    ``holes`` names the axis values with the largest gaps, so an
    operator knows which shards to re-price.
    """

    present: int
    expected: int
    quarantined: int = 0
    holes: Tuple[str, ...] = ()

    @property
    def fraction(self) -> float:
        """Fraction of expected cells present (1.0 for an empty grid)."""
        return self.present / self.expected if self.expected else 1.0

    @property
    def complete(self) -> bool:
        return self.present >= self.expected and self.quarantined == 0

    def describe(self) -> str:
        """One-line human summary, e.g. for table footnotes."""
        parts = [
            f"{100.0 * self.fraction:.0f}% of expected cells "
            f"({self.present}/{self.expected})"
        ]
        if self.quarantined:
            parts.append(f"{self.quarantined} quarantined")
        text = ", ".join(parts)
        if self.holes:
            text += "; worst holes: " + "; ".join(self.holes)
        return text


@dataclass(frozen=True, order=True)
class TestCase:
    """One (application, input, chip) tuple."""

    #: Tell pytest this is not a test class despite the name.
    __test__ = False

    app: str
    graph: str
    chip: str

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.app}/{self.graph}/{self.chip}"


class PerfDataset:
    """Timings for tests × configurations.

    Keys are stable strings: configurations are identified by
    :meth:`repro.compiler.options.OptConfig.key`.
    """

    def __init__(self) -> None:
        self._times: Dict[Tuple[TestCase, str], Tuple[float, ...]] = {}
        self._configs: Dict[str, OptConfig] = {}
        self._tests: Dict[TestCase, None] = {}  # insertion-ordered set

    # -- population -------------------------------------------------------

    def add(
        self, test: TestCase, config: OptConfig, times: Sequence[float]
    ) -> None:
        """Record the repeated timings of one (test, configuration)."""
        if not times:
            raise DatasetError(f"no timings provided for {test} [{config.label()}]")
        if any(t <= 0 for t in times):
            raise DatasetError(f"non-positive timing for {test} [{config.label()}]")
        key = config.key()
        self._times[(test, key)] = tuple(float(t) for t in times)
        self._configs.setdefault(key, config)
        self._tests.setdefault(test, None)

    def update(self, other: "PerfDataset") -> None:
        """Merge ``other``'s measurements into this dataset.

        Used to combine the partial datasets of a sharded (parallel)
        sweep.  A (test, configuration) present in both datasets must
        carry identical timings — anything else means two shards priced
        the same point differently, which a deterministic sweep can
        never do — otherwise :class:`~repro.errors.DatasetError` is
        raised.
        """
        for (test, key), times in other._times.items():
            existing = self._times.get((test, key))
            if existing is not None and existing != times:
                err = DatasetError(
                    f"conflicting timings for test {test} under config "
                    f"{key!r}: {existing} vs {times}"
                )
                # Structured coordinates of the conflicting cell, for
                # callers that want to locate the bad shard.
                err.test = test
                err.config_key = key
                raise err
            self._times[(test, key)] = times
            self._configs.setdefault(key, other._configs[key])
            self._tests.setdefault(test, None)

    @classmethod
    def merged(cls, parts: Iterable["PerfDataset"]) -> "PerfDataset":
        """One dataset from the partial datasets of a sharded sweep."""
        ds = cls()
        for part in parts:
            ds.update(part)
        return ds

    def __eq__(self, other: object) -> bool:
        """Datasets are equal iff they hold the same timing table.

        Insertion order is deliberately ignored: a parallel sweep may
        merge shards in a different order than the serial sweep visits
        points, but the measurements themselves must match exactly.
        """
        if not isinstance(other, PerfDataset):
            return NotImplemented
        return self._times == other._times

    # -- axes ---------------------------------------------------------------

    @property
    def tests(self) -> List[TestCase]:
        return list(self._tests)

    @property
    def configs(self) -> List[OptConfig]:
        return list(self._configs.values())

    @property
    def apps(self) -> List[str]:
        return sorted({t.app for t in self._tests})

    @property
    def graphs(self) -> List[str]:
        return sorted({t.graph for t in self._tests})

    @property
    def chips(self) -> List[str]:
        return sorted({t.chip for t in self._tests})

    @property
    def n_measurements(self) -> int:
        return len(self._times)

    # -- queries ------------------------------------------------------------

    def has(self, test: TestCase, config: OptConfig) -> bool:
        return (test, config.key()) in self._times

    def times(self, test: TestCase, config: OptConfig) -> Tuple[float, ...]:
        """Raw repeated timings, in microseconds."""
        try:
            return self._times[(test, config.key())]
        except KeyError:
            raise DatasetError(
                f"no measurement for {test} under [{config.label()}]"
            ) from None

    def times_or_none(
        self, test: TestCase, config: OptConfig
    ) -> Optional[Tuple[float, ...]]:
        """Like :meth:`times`, but ``None`` for an absent cell.

        The degraded-mode query primitive: coverage-aware analyses use
        it to skip holes in a partial dataset instead of crashing.
        """
        return self._times.get((test, config.key()))

    def median(self, test: TestCase, config: OptConfig) -> float:
        return float(np.median(self.times(test, config)))

    def tests_where(
        self,
        app: Optional[str] = None,
        graph: Optional[str] = None,
        chip: Optional[str] = None,
    ) -> List[TestCase]:
        """Tests matching the given (partial) coordinates — the
        partitioning primitive of Algorithm 1's specialisations."""
        return [
            t
            for t in self._tests
            if (app is None or t.app == app)
            and (graph is None or t.graph == graph)
            and (chip is None or t.chip == chip)
        ]

    # -- coverage -----------------------------------------------------------

    def missing_cells(self) -> List[Tuple[TestCase, OptConfig]]:
        """Every (test, configuration) cell of the grid with no timings."""
        return [
            (test, config)
            for test in self._tests
            for key, config in self._configs.items()
            if (test, key) not in self._times
        ]

    def coverage(self, quarantined: int = 0) -> "Coverage":
        """Coverage of this dataset's own (test × configuration) grid.

        ``quarantined`` lets an audit fold the cells it dropped into the
        record.  The worst holes are named per axis (chip, app, input,
        configuration), largest missing fraction first.
        """
        expected = len(self._tests) * len(self._configs)
        present = len(self._times)
        holes: Tuple[str, ...] = ()
        if present < expected:
            missing = self.missing_cells()
            holes = tuple(_worst_holes(missing, self._tests, self._configs))
        return Coverage(
            present=present,
            expected=expected,
            quarantined=quarantined,
            holes=holes,
        )

    def subset(self, tests: Iterable[TestCase]) -> "PerfDataset":
        """A dataset restricted to the given tests (shared timing data)."""
        wanted = set(tests)
        sub = PerfDataset()
        for (test, key), times in self._times.items():
            if test in wanted:
                sub._times[(test, key)] = times
                sub._configs.setdefault(key, self._configs[key])
                sub._tests.setdefault(test, None)
        return sub

    def iter_measurements(
        self,
    ) -> Iterator[Tuple[TestCase, OptConfig, Tuple[float, ...]]]:
        for (test, key), times in self._times.items():
            yield test, self._configs[key], times

    def iter_cells(
        self,
    ) -> Iterator[Tuple[TestCase, str, Tuple[float, ...]]]:
        """Stream ``(test, config_key, times)`` in insertion order.

        The streaming consumption primitive: audit, conversion and
        strategy derivation iterate cells through this instead of
        materialising the full grid, so a columnar backend
        (:class:`repro.store.ColumnarDataset`, which overrides it) can
        serve them in constant memory straight off the mapped file.
        """
        for (test, key), times in self._times.items():
            yield test, key, times

    # -- persistence ----------------------------------------------------------

    def to_dict(self) -> Dict:
        return {
            "measurements": [
                {
                    "app": test.app,
                    "graph": test.graph,
                    "chip": test.chip,
                    "config": key,
                    "times": list(times),
                }
                for (test, key), times in self._times.items()
            ]
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "PerfDataset":
        if not isinstance(data, dict) or not isinstance(
            data.get("measurements"), list
        ):
            raise DatasetError(
                "malformed dataset payload: expected an object with a "
                "'measurements' list"
            )
        ds = cls()
        try:
            for rec in data["measurements"]:
                config = (
                    OptConfig()
                    if rec["config"] == "baseline"
                    else OptConfig.from_names(rec["config"].split("+"))
                )
                ds.add(
                    TestCase(rec["app"], rec["graph"], rec["chip"]),
                    config,
                    rec["times"],
                )
        except (KeyError, TypeError, AttributeError) as exc:
            raise DatasetError(
                f"malformed measurement record: {exc!r}"
            ) from exc
        return ds

    def save(self, path: str, faults=None, format: Optional[str] = None) -> None:
        """Write the dataset atomically in the selected on-disk format.

        ``format`` picks the serialisation: ``"v2"`` is the checksummed
        (optionally gzipped) JSON this method always wrote, ``"v3"``
        the binary columnar layout of :mod:`repro.store`.  The default
        autodetects from the extension — ``.v3`` files are columnar,
        everything else JSON — so ``save``/``load`` stay symmetric.

        Either way the file is written atomically (temp file + rename),
        so an interrupted save leaves the previous complete file —
        never a truncated one — in place, and carries SHA-256
        checksums which :meth:`load` verifies, so silent on-disk
        corruption is detected instead of analysed.

        ``faults`` (a :class:`repro.faults.FaultPlan`, testing only)
        garbles the payload when a ``corrupt`` fault is armed for this
        file's basename, simulating a disk failure past the atomicity
        guarantee.
        """
        if format is None:
            format = "v3" if path.endswith(".v3") else "v2"
        if format == "v3":
            from ..store.columnar import write_columnar

            write_columnar(self, path, faults=faults)
            return
        if format != "v2":
            raise ValueError(
                f"unknown dataset format {format!r}; expected 'v2' or 'v3'"
            )
        body = json.dumps(self.to_dict()["measurements"], separators=(",", ":"))
        payload = (
            f'{{"format": "{DATASET_FORMAT}", '
            f'"checksum": "{sha256_hex(body)}", '
            f'"measurements": {body}}}'
        )
        data = payload.encode("utf-8")
        if faults is not None and faults.fire("corrupt", os.path.basename(path)):
            data = data[: max(1, len(data) // 2)]  # simulated disk failure
        if path.endswith(".gz"):
            data = gzip.compress(data, mtime=0)
        atomic_write_bytes(path, data)

    @classmethod
    def load(cls, path: str) -> "PerfDataset":
        """Load a dataset, raising :class:`DatasetError` on corruption.

        Truncated files, invalid JSON, bad gzip streams and checksum
        mismatches all raise a ``DatasetError`` naming the file and the
        reason; legacy files without a checksum header still load.

        Binary columnar files (``perf-dataset-v3``, recognised by
        magic or a ``.v3`` extension) dispatch to
        :class:`repro.store.ColumnarDataset`, which serves the same
        query protocol off the memory-mapped file.
        """
        from ..store.columnar import COLUMNAR_MAGIC, ColumnarDataset

        try:
            with open(path, "rb") as probe:
                head = probe.read(len(COLUMNAR_MAGIC))
        except OSError as exc:
            raise DatasetError(f"cannot read dataset {path!r}: {exc}") from exc
        if head == COLUMNAR_MAGIC or path.endswith(".v3"):
            return ColumnarDataset.load(path)
        try:
            with open(path, "rb") as f:
                data = f.read()
            if path.endswith(".gz"):
                data = gzip.decompress(data)
            parsed = json.loads(data.decode("utf-8"))
        except (gzip.BadGzipFile, EOFError, zlib.error) as exc:
            raise DatasetError(
                f"corrupt dataset {path!r}: bad gzip stream ({exc})"
            ) from exc
        except OSError as exc:
            raise DatasetError(f"cannot read dataset {path!r}: {exc}") from exc
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise DatasetError(
                f"corrupt dataset {path!r}: truncated or invalid JSON ({exc})"
            ) from exc
        if isinstance(parsed, dict) and "checksum" in parsed:
            body = json.dumps(
                parsed.get("measurements", []), separators=(",", ":")
            )
            if sha256_hex(body) != parsed["checksum"]:
                raise DatasetError(
                    f"corrupt dataset {path!r}: checksum mismatch (the file "
                    f"was modified or partially written)"
                )
        try:
            return cls.from_dict(parsed)
        except DatasetError as exc:
            raise DatasetError(f"corrupt dataset {path!r}: {exc}") from exc

    def __len__(self) -> int:
        return len(self._tests)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PerfDataset(tests={len(self._tests)}, "
            f"configs={len(self._configs)}, measurements={len(self._times)})"
        )


def _worst_holes(missing, tests, configs, top: int = 3) -> List[str]:
    """Name the axis values with the largest missing fractions.

    For each axis (chip, app, input, config) count missing cells per
    value; report the ``top`` values with the most missing cells as
    ``"chip MALI: 96/576 cells missing"`` strings, worst first.
    """
    n_configs = max(1, len(configs))
    expected_per_test = n_configs
    per_axis: Dict[Tuple[str, str], int] = {}
    for test, config in missing:
        for axis, value in (
            ("chip", test.chip),
            ("app", test.app),
            ("input", test.graph),
            ("config", config.label()),
        ):
            per_axis[(axis, value)] = per_axis.get((axis, value), 0) + 1
    expected: Dict[Tuple[str, str], int] = {}
    for test in tests:
        for axis, value in (
            ("chip", test.chip),
            ("app", test.app),
            ("input", test.graph),
        ):
            expected[(axis, value)] = (
                expected.get((axis, value), 0) + expected_per_test
            )
    n_tests = max(1, len(tests))
    ranked = sorted(
        per_axis.items(), key=lambda kv: (-kv[1], kv[0][0], kv[0][1])
    )
    out = []
    for (axis, value), count in ranked[:top]:
        total = expected.get((axis, value), n_tests)
        out.append(f"{axis} {value}: {count}/{total} cells missing")
    return out


def peek_format(path: str) -> Optional[str]:
    """The format tag of a dataset file, or ``None``.

    ``None`` means the file is a legacy (pre-``perf-dataset-v2``)
    artifact *or* is unreadable/corrupt — in either case a cache owner
    should rebuild rather than trust it.  This never raises: it exists
    so cache-validation paths can decide cheaply without committing to
    a full load.
    """
    from ..store.columnar import COLUMNAR_FORMAT, COLUMNAR_MAGIC

    try:
        with open(path, "rb") as f:
            data = f.read()
        if data.startswith(COLUMNAR_MAGIC):
            return COLUMNAR_FORMAT
        if path.endswith(".gz"):
            data = gzip.decompress(data)
        parsed = json.loads(data.decode("utf-8"))
    except (OSError, EOFError, zlib.error, gzip.BadGzipFile, ValueError):
        return None
    if isinstance(parsed, dict):
        fmt = parsed.get("format")
        return fmt if isinstance(fmt, str) else None
    return None
