"""The ``perf-dataset-v3`` columnar on-disk format.

Layout of a ``.v3`` file (all integers little-endian)::

    header (308 bytes)
      0   magic            8s   b"RPDCOL3\\0"
      8   version          u16  1
      10  flags            u16  reserved (0)
      12  n_tests          u64
      20  n_cells          u64
      28  n_times          u64
      36  5 × section descriptor (offset u64, length u64, sha256 32B)
          in order: strings, tests, cells, offsets, times
      276 sha256 of bytes [0:276]

    strings   four interned tables (apps, inputs, chips, config keys),
              each  u32 count  then per entry  u32 length + UTF-8 bytes
    tests     n_tests × (app u32, input u32, chip u32)
    cells     n_cells × (test u32, config u32)
    offsets   (n_cells + 1) × u64 — cell *i*'s repeated timings are
              ``times[offsets[i]:offsets[i+1]]``
    times     n_times × f64 — every timing, exact

Sections start 8-byte aligned and each carries its own SHA-256.
:meth:`ColumnarDataset.load` verifies the header and every section
*except* ``times`` — the timing column is by far the largest and stays
unread in the mapped file until a cell is queried, which is what makes
the load effectively free; :meth:`ColumnarDataset.verify` (and ``repro
dataset verify``) hashes everything.

Cells appear in insertion order and the string tables in first-use
order, so converting a :class:`~repro.study.dataset.PerfDataset` to v3
and back preserves iteration order exactly — the golden tables render
byte-identically from either backend.
"""

from __future__ import annotations

import hashlib
import mmap
import os
import struct
import sys
from array import array
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..compiler.options import OptConfig
from ..errors import DatasetError, InvalidConfigError
from ..study.dataset import PerfDataset, TestCase
from ..util import atomic_write_bytes

__all__ = [
    "COLUMNAR_FORMAT",
    "COLUMNAR_MAGIC",
    "HEADER_SIZE",
    "ColumnWriter",
    "ColumnarDataset",
    "columnar_from_dataset",
    "inspect_columnar",
    "salvage_columnar",
    "write_columnar",
]

#: Format tag reported by ``peek_format`` / ``repro dataset info``.
COLUMNAR_FORMAT = "perf-dataset-v3"

#: First eight bytes of every ``perf-dataset-v3`` file.
COLUMNAR_MAGIC = b"RPDCOL3\x00"

_VERSION = 1
_COUNTS_FMT = "<8sHHQQQ"  # magic, version, flags, n_tests, n_cells, n_times
_COUNTS_SIZE = struct.calcsize(_COUNTS_FMT)
_SECTION_FMT = "<QQ32s"  # offset, length, sha256
_SECTION_SIZE = struct.calcsize(_SECTION_FMT)
_SECTIONS = ("strings", "tests", "cells", "offsets", "times")
_HEADER_BODY = _COUNTS_SIZE + len(_SECTIONS) * _SECTION_SIZE

#: Total header size, including its trailing SHA-256.
HEADER_SIZE = _HEADER_BODY + 32

_TEST_ROW = 3 * 4  # bytes per tests-section row
_CELL_ROW = 2 * 4  # bytes per cells-section row


def _le(arr: array) -> array:
    """The array with little-endian byte order (on-disk order)."""
    if sys.byteorder == "big":  # pragma: no cover - LE hosts everywhere
        arr = array(arr.typecode, arr)
        arr.byteswap()
    return arr


def _array_from_le(typecode: str, data) -> array:
    """A native array decoded from little-endian bytes."""
    arr = array(typecode)
    arr.frombytes(bytes(data))
    if sys.byteorder == "big":  # pragma: no cover - LE hosts everywhere
        arr.byteswap()
    return arr


def _config_from_key(key: str) -> OptConfig:
    """Rebuild an :class:`OptConfig` from its stable dataset key."""
    if key == "baseline":
        return OptConfig()
    return OptConfig.from_names(key.split("+"))


def _corrupt(path: str, reason: str) -> DatasetError:
    return DatasetError(f"corrupt dataset {path!r}: {reason}")


# -- writing -----------------------------------------------------------------


class ColumnWriter:
    """Append-only builder of a ``perf-dataset-v3`` payload.

    Cells are appended one at a time (:meth:`add`), in the order they
    will appear on disk.  :meth:`commit` writes the file atomically
    (temp + rename), so an interrupted commit leaves the previous
    complete file in place.

    Re-adding a cell with identical timings is a no-op; differing
    timings raise :class:`~repro.errors.DatasetError`, mirroring
    :meth:`PerfDataset.update`'s shard-conflict check.
    """

    def __init__(self) -> None:
        self._apps: Dict[str, int] = {}
        self._graphs: Dict[str, int] = {}
        self._chips: Dict[str, int] = {}
        self._config_keys: Dict[str, int] = {}
        self._tests: Dict[Tuple[int, int, int], int] = {}
        self._cells = array("I")  # flat (test_idx, cfg_idx) pairs
        self._cell_index: Dict[Tuple[int, int], int] = {}
        self._offsets = array("Q", [0])
        self._times = array("d")

    @property
    def n_cells(self) -> int:
        return len(self._cell_index)

    @property
    def n_times(self) -> int:
        return len(self._times)

    @staticmethod
    def _intern(table: Dict[str, int], value: str) -> int:
        idx = table.get(value)
        if idx is None:
            idx = len(table)
            table[value] = idx
        return idx

    def _intern_test(self, app: str, graph: str, chip: str) -> int:
        row = (
            self._intern(self._apps, app),
            self._intern(self._graphs, graph),
            self._intern(self._chips, chip),
        )
        idx = self._tests.get(row)
        if idx is None:
            idx = len(self._tests)
            self._tests[row] = idx
        return idx

    def add(
        self,
        test: TestCase,
        config: Union[OptConfig, str],
        times: Sequence[float],
    ) -> None:
        """Append one cell's repeated timings."""
        if not times:
            raise DatasetError(f"no timings provided for {test}")
        key = config.key() if isinstance(config, OptConfig) else str(config)
        t_idx = self._intern_test(test.app, test.graph, test.chip)
        c_idx = self._intern(self._config_keys, key)
        vals = [float(t) for t in times]
        seen = self._cell_index.get((t_idx, c_idx))
        if seen is not None:
            lo, hi = self._offsets[seen], self._offsets[seen + 1]
            if self._times[lo:hi].tolist() != vals:
                raise DatasetError(
                    f"conflicting timings for test {test} under config "
                    f"{key!r}: {tuple(self._times[lo:hi])} vs {tuple(vals)}"
                )
            return
        self._cell_index[(t_idx, c_idx)] = len(self._offsets) - 1
        self._cells.append(t_idx)
        self._cells.append(c_idx)
        self._times.extend(vals)
        self._offsets.append(len(self._times))

    # -- serialisation ---------------------------------------------------

    @staticmethod
    def _encode_strings(tables: List[Dict[str, int]]) -> bytes:
        out = bytearray()
        for table in tables:
            out += struct.pack("<I", len(table))
            for value in table:  # insertion (first-use) order
                raw = value.encode("utf-8")
                out += struct.pack("<I", len(raw))
                out += raw
        return bytes(out)

    def payload(self) -> bytes:
        """The complete checksummed ``perf-dataset-v3`` byte string."""
        tests_col = array("I")
        for row in self._tests:
            tests_col.extend(row)
        sections = [
            self._encode_strings(
                [self._apps, self._graphs, self._chips, self._config_keys]
            ),
            _le(tests_col).tobytes(),
            _le(self._cells).tobytes(),
            _le(self._offsets).tobytes(),
            _le(self._times).tobytes(),
        ]
        out = bytearray(HEADER_SIZE)
        descriptors = []
        for data in sections:
            out += b"\x00" * (-len(out) % 8)
            descriptors.append(
                (len(out), len(data), hashlib.sha256(data).digest())
            )
            out += data
        struct.pack_into(
            _COUNTS_FMT,
            out,
            0,
            COLUMNAR_MAGIC,
            _VERSION,
            0,
            len(self._tests),
            len(self._cell_index),
            len(self._times),
        )
        pos = _COUNTS_SIZE
        for offset, length, digest in descriptors:
            struct.pack_into(_SECTION_FMT, out, pos, offset, length, digest)
            pos += _SECTION_SIZE
        out[_HEADER_BODY:HEADER_SIZE] = hashlib.sha256(
            out[:_HEADER_BODY]
        ).digest()
        return bytes(out)

    def commit(self, path: str, faults=None) -> None:
        """Atomically write the payload to ``path`` (temp + rename).

        ``faults`` (a :class:`repro.faults.FaultPlan`, testing only)
        truncates the payload when a ``corrupt`` fault is armed for
        this file's basename, simulating a disk failure past the
        atomicity guarantee.
        """
        data = self.payload()
        if faults is not None and faults.fire(
            "corrupt", os.path.basename(path)
        ):
            data = data[: max(1, len(data) // 2)]  # simulated disk failure
        atomic_write_bytes(path, data)


def write_columnar(dataset: PerfDataset, path: str, faults=None) -> None:
    """Convert any :class:`PerfDataset` to a ``.v3`` file on disk."""
    writer = ColumnWriter()
    for test, key, times in dataset.iter_cells():
        writer.add(test, key, times)
    writer.commit(path, faults=faults)


def columnar_from_dataset(dataset: PerfDataset) -> "ColumnarDataset":
    """An in-memory columnar copy of ``dataset`` (no file involved)."""
    writer = ColumnWriter()
    for test, key, times in dataset.iter_cells():
        writer.add(test, key, times)
    return ColumnarDataset.from_payload(writer.payload())


# -- parsing -----------------------------------------------------------------


class _Parsed:
    """The decoded skeleton of a v3 buffer (no timing materialised)."""

    __slots__ = (
        "n_tests",
        "n_cells",
        "n_times",
        "sections",
        "apps",
        "graphs",
        "chips",
        "config_keys",
        "test_rows",
        "cell_rows",
        "offsets",
        "times",
    )


def _section_digest(buf, span) -> bytes:
    offset, length, _ = span
    return hashlib.sha256(bytes(buf[offset : offset + length])).digest()


def _check_section(buf, path: str, name: str, span) -> None:
    if _section_digest(buf, span) != span[2]:
        raise _corrupt(
            path,
            f"{name} section checksum mismatch (the file was modified "
            f"or partially written)",
        )


def _parse_counts(buf, path: str):
    if len(buf) < HEADER_SIZE:
        raise _corrupt(
            path,
            f"truncated header ({len(buf)} bytes, need {HEADER_SIZE})",
        )
    magic, version, _flags, n_tests, n_cells, n_times = struct.unpack_from(
        _COUNTS_FMT, buf, 0
    )
    if magic != COLUMNAR_MAGIC:
        raise _corrupt(
            path, f"bad magic {magic!r} — not a {COLUMNAR_FORMAT} file"
        )
    if version != _VERSION:
        raise _corrupt(
            path, f"unsupported {COLUMNAR_FORMAT} version {version}"
        )
    return n_tests, n_cells, n_times


def _parse_sections(buf, path: str) -> Dict[str, Tuple[int, int, bytes]]:
    sections = {}
    pos = _COUNTS_SIZE
    for name in _SECTIONS:
        offset, length, digest = struct.unpack_from(_SECTION_FMT, buf, pos)
        pos += _SECTION_SIZE
        if offset < HEADER_SIZE or offset + length > len(buf):
            raise _corrupt(
                path,
                f"{name} section [{offset}:{offset + length}] exceeds the "
                f"{len(buf)}-byte file (truncated or rewritten)",
            )
        sections[name] = (offset, length, digest)
    return sections


def _decode_strings(buf, path: str, span) -> List[List[str]]:
    offset, length, _ = span
    end = offset + length
    pos = offset
    tables: List[List[str]] = []
    for _ in range(4):
        if pos + 4 > end:
            raise _corrupt(path, "truncated string table")
        (count,) = struct.unpack_from("<I", buf, pos)
        pos += 4
        entries: List[str] = []
        for _ in range(count):
            if pos + 4 > end:
                raise _corrupt(path, "truncated string table")
            (n,) = struct.unpack_from("<I", buf, pos)
            pos += 4
            if pos + n > end:
                raise _corrupt(path, "truncated string table entry")
            try:
                entries.append(bytes(buf[pos : pos + n]).decode("utf-8"))
            except UnicodeDecodeError as exc:
                raise _corrupt(
                    path, f"undecodable string table entry ({exc})"
                ) from exc
            pos += n
        tables.append(entries)
    return tables


def _parse(buf, path: str, *, verify_times: bool = False) -> _Parsed:
    """Decode and validate a v3 buffer (header, tables, index columns).

    The ``times`` column is bounds- and length-checked but its checksum
    is only verified with ``verify_times=True`` — the lazy default is
    what keeps :meth:`ColumnarDataset.load` independent of grid size.
    """
    n_tests, n_cells, n_times = _parse_counts(buf, path)
    if hashlib.sha256(bytes(buf[:_HEADER_BODY])).digest() != bytes(
        buf[_HEADER_BODY:HEADER_SIZE]
    ):
        raise _corrupt(
            path,
            "header checksum mismatch (the file was modified or "
            "partially written)",
        )
    sections = _parse_sections(buf, path)
    for name in ("strings", "tests", "cells", "offsets"):
        _check_section(buf, path, name, sections[name])
    if verify_times:
        _check_section(buf, path, "times", sections["times"])

    p = _Parsed()
    p.n_tests, p.n_cells, p.n_times = n_tests, n_cells, n_times
    p.sections = sections
    p.apps, p.graphs, p.chips, p.config_keys = _decode_strings(
        buf, path, sections["strings"]
    )

    offset, length, _ = sections["tests"]
    if length != n_tests * _TEST_ROW:
        raise _corrupt(
            path, f"tests section holds {length} bytes for {n_tests} tests"
        )
    p.test_rows = np.frombuffer(
        buf, dtype="<u4", count=n_tests * 3, offset=offset
    ).reshape(n_tests, 3)
    if n_tests and (
        int(p.test_rows[:, 0].max()) >= len(p.apps)
        or int(p.test_rows[:, 1].max()) >= len(p.graphs)
        or int(p.test_rows[:, 2].max()) >= len(p.chips)
    ):
        raise _corrupt(path, "test row references a missing string entry")

    offset, length, _ = sections["cells"]
    if length != n_cells * _CELL_ROW:
        raise _corrupt(
            path, f"cells section holds {length} bytes for {n_cells} cells"
        )
    p.cell_rows = np.frombuffer(
        buf, dtype="<u4", count=n_cells * 2, offset=offset
    ).reshape(n_cells, 2)
    if n_cells and (
        int(p.cell_rows[:, 0].max()) >= n_tests
        or int(p.cell_rows[:, 1].max()) >= len(p.config_keys)
    ):
        raise _corrupt(path, "cell references a missing test or config")

    offset, length, _ = sections["offsets"]
    if length != (n_cells + 1) * 8:
        raise _corrupt(
            path,
            f"offsets section holds {length} bytes for {n_cells} cells",
        )
    p.offsets = np.frombuffer(buf, dtype="<u8", count=n_cells + 1, offset=offset)
    if (
        int(p.offsets[0]) != 0
        or int(p.offsets[-1]) != n_times
        or (n_cells and bool(np.any(np.diff(p.offsets.astype(np.int64)) < 0)))
    ):
        raise _corrupt(path, "repetition offsets are not a monotone span")

    offset, length, _ = sections["times"]
    if length != n_times * 8:
        raise _corrupt(
            path,
            f"times section holds {length} bytes for {n_times} timings",
        )
    p.times = np.frombuffer(buf, dtype="<f8", count=n_times, offset=offset)
    return p


# -- reading -----------------------------------------------------------------


class _SegmentTable:
    """A read-only mapping view over the columnar timing segments.

    Stands in for ``PerfDataset._times``: keys are ``(TestCase,
    config_key)`` pairs, values are tuples materialised on demand from
    the mapped timing column.  A bounded memo keeps hot cells cheap
    without ever pinning the whole grid in memory.
    """

    _MEMO_CAP = 1 << 16

    def __init__(
        self,
        tests: List[TestCase],
        config_keys: List[str],
        cell_rows,
        offsets,
        times,
    ) -> None:
        self._test_list = tests
        self._config_keys = config_keys
        self._cell_rows = cell_rows
        self._offsets = offsets
        self._times = times
        self._index: Optional[Dict[Tuple[TestCase, str], int]] = None
        self._memo: Dict[Tuple[TestCase, str], Tuple[float, ...]] = {}

    def _ensure_index(self) -> Dict[Tuple[TestCase, str], int]:
        if self._index is None:
            index: Dict[Tuple[TestCase, str], int] = {}
            tests, keys, rows = self._test_list, self._config_keys, self._cell_rows
            for i in range(len(rows)):
                index[(tests[int(rows[i, 0])], keys[int(rows[i, 1])])] = i
            if len(index) != len(rows):
                raise DatasetError(
                    "corrupt dataset: duplicate (test, config) cells"
                )
            self._index = index
        return self._index

    def _segment(self, ordinal: int) -> Tuple[float, ...]:
        lo = int(self._offsets[ordinal])
        hi = int(self._offsets[ordinal + 1])
        return tuple(self._times[lo:hi].tolist())

    def __getitem__(self, key) -> Tuple[float, ...]:
        got = self._memo.get(key)
        if got is None:
            ordinal = self._ensure_index()[key]
            got = self._segment(ordinal)
            if len(self._memo) >= self._MEMO_CAP:
                self._memo.clear()
            self._memo[key] = got
        return got

    def get(self, key, default=None):
        if key not in self._ensure_index():
            return default
        return self[key]

    def __contains__(self, key) -> bool:
        return key in self._ensure_index()

    def __iter__(self):
        return iter(self._ensure_index())

    def keys(self):
        return self._ensure_index().keys()

    def items(self):
        for key, ordinal in self._ensure_index().items():
            yield key, self._segment(ordinal)

    def values(self):
        for ordinal in self._ensure_index().values():
            yield self._segment(ordinal)

    def __len__(self) -> int:
        return len(self._cell_rows)

    @staticmethod
    def _segments_equal(a, b) -> bool:
        # Exact float equality, except NaN compares equal to NaN: a
        # dict-backed dataset's NaN cells survive comparison via
        # CPython's identity shortcut, which freshly materialised
        # tuples cannot rely on.
        return len(a) == len(b) and all(
            x == y or (x != x and y != y) for x, y in zip(a, b)
        )

    def __eq__(self, other) -> bool:
        if isinstance(other, (dict, _SegmentTable)):
            if len(other) != len(self):
                return False
            index = self._ensure_index()
            try:
                return all(
                    self._segments_equal(other[key], self._segment(ordinal))
                    for key, ordinal in index.items()
                )
            except KeyError:
                return False
        return NotImplemented

    def __ne__(self, other) -> bool:
        eq = self.__eq__(other)
        return eq if eq is NotImplemented else not eq

    __hash__ = None  # mutable-mapping semantics: unhashable


class ColumnarDataset(PerfDataset):
    """A read-only :class:`PerfDataset` backed by a v3 columnar buffer.

    Every protocol query (``times`` / ``times_or_none`` / ``coverage``
    / ``iter_cells`` / ``subset`` / …) works unchanged; timings live
    in the mapped file and are materialised per cell on first access.
    Mutation (:meth:`add` / :meth:`update`) raises — convert with
    :func:`columnar_from_dataset` round-tripped through a
    :class:`ColumnWriter` to build new data.
    """

    def __init__(self) -> None:  # pragma: no cover - guard rail
        raise TypeError(
            "ColumnarDataset is built via load()/from_payload(), "
            "not constructed empty"
        )

    # -- construction ----------------------------------------------------

    @classmethod
    def load(cls, path: str) -> "ColumnarDataset":
        """Memory-map and validate a ``.v3`` file.

        Raises :class:`~repro.errors.DatasetError` on truncation, a
        checksum mismatch in the header or index columns, or any
        structural damage.  The timing column itself is validated
        lazily — run :meth:`verify` (or ``repro dataset verify``) for
        a full integrity walk.
        """
        try:
            with open(path, "rb") as f:
                try:
                    buf = mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_READ)
                except (ValueError, OSError):  # empty file / no mmap
                    buf = f.read()
        except OSError as exc:
            raise DatasetError(
                f"cannot read dataset {path!r}: {exc}"
            ) from exc
        return cls._build(buf, path)

    @classmethod
    def from_payload(
        cls, data: bytes, path: str = "<memory>"
    ) -> "ColumnarDataset":
        """Build from an in-memory payload (e.g. a fresh writer's)."""
        return cls._build(bytes(data), path)

    @classmethod
    def _build(cls, buf, path: str) -> "ColumnarDataset":
        try:
            parsed = _parse(buf, path)
            test_list = [
                TestCase(
                    parsed.apps[int(parsed.test_rows[i, 0])],
                    parsed.graphs[int(parsed.test_rows[i, 1])],
                    parsed.chips[int(parsed.test_rows[i, 2])],
                )
                for i in range(parsed.n_tests)
            ]
            tests: Dict[TestCase, None] = {t: None for t in test_list}
            if len(tests) != parsed.n_tests:
                raise _corrupt(path, "duplicate test rows")
            configs: Dict[str, OptConfig] = {}
            for key in parsed.config_keys:
                try:
                    configs[key] = _config_from_key(key)
                except (InvalidConfigError, ValueError) as exc:
                    raise _corrupt(
                        path, f"invalid config key {key!r} ({exc})"
                    ) from exc
            if len(configs) != len(parsed.config_keys):
                raise _corrupt(path, "duplicate config keys")
        except DatasetError:
            if isinstance(buf, mmap.mmap):
                buf.close()
            raise
        self = object.__new__(cls)
        self._path = path
        self._buf = buf
        self._parsed = parsed
        self._test_list = test_list
        self._tests = tests
        self._configs = configs
        self._table = _SegmentTable(
            test_list,
            parsed.config_keys,
            parsed.cell_rows,
            parsed.offsets,
            parsed.times,
        )
        return self

    # -- storage protocol -------------------------------------------------

    @property
    def _times(self) -> _SegmentTable:
        return self._table

    @property
    def n_measurements(self) -> int:
        return self._parsed.n_cells

    def add(self, test, config, times) -> None:
        raise DatasetError(
            f"columnar dataset {self._path!r} is read-only; build new "
            f"data with a ColumnWriter and reload"
        )

    def update(self, other) -> None:
        raise DatasetError(
            f"columnar dataset {self._path!r} is read-only; merge into "
            f"a fresh PerfDataset or ColumnWriter instead"
        )

    def iter_cells(
        self,
    ) -> Iterator[Tuple[TestCase, str, Tuple[float, ...]]]:
        """Stream ``(test, config_key, times)`` in insertion order.

        Unlike dict-backed iteration this never touches the lazy memo:
        each segment tuple is yielded and dropped, so full-grid
        consumers (audit, conversion, strategy derivation) run in
        constant memory over the mapped column.
        """
        p = self._parsed
        tests, keys = self._test_list, p.config_keys
        rows, offs, col = p.cell_rows, p.offsets, p.times
        for i in range(len(rows)):
            lo, hi = int(offs[i]), int(offs[i + 1])
            yield (
                tests[int(rows[i, 0])],
                keys[int(rows[i, 1])],
                tuple(col[lo:hi].tolist()),
            )

    def iter_measurements(self):
        for test, key, times in self.iter_cells():
            yield test, self._configs[key], times

    # -- introspection ----------------------------------------------------

    def verify(self) -> None:
        """Full integrity walk: every section checksum, times included.

        Raises :class:`~repro.errors.DatasetError` naming the damaged
        section.  This reads the whole file (unlike :meth:`load`).
        """
        for name in _SECTIONS:
            _check_section(
                self._buf, self._path, name, self._parsed.sections[name]
            )

    def close(self) -> None:
        """Release the underlying mmap (the dataset is unusable after)."""
        if isinstance(self._buf, mmap.mmap):
            # The parsed columns are zero-copy views into the mmap; drop
            # them first or the close would fail with exported pointers.
            self._parsed = None
            self._table = None
            try:
                self._buf.close()
            except BufferError:  # view still held by a caller; GC closes
                pass

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ColumnarDataset({self._path!r}, tests={len(self._tests)}, "
            f"configs={len(self._configs)}, "
            f"measurements={self.n_measurements})"
        )


# -- tooling -----------------------------------------------------------------


def inspect_columnar(path: str) -> Dict:
    """Header/axis/section summary of a ``.v3`` file (``dataset info``).

    Validates the header and index columns (raising
    :class:`~repro.errors.DatasetError` on damage) but does not hash
    the timing column — use :meth:`ColumnarDataset.verify` for that.
    """
    with open(path, "rb") as f:
        buf = f.read()
    parsed = _parse(buf, path)
    return {
        "format": COLUMNAR_FORMAT,
        "path": path,
        "file_bytes": len(buf),
        "tests": parsed.n_tests,
        "cells": parsed.n_cells,
        "timings": parsed.n_times,
        "apps": list(parsed.apps),
        "inputs": list(parsed.graphs),
        "chips": list(parsed.chips),
        "configs": len(parsed.config_keys),
        "sections": {
            name: {
                "offset": parsed.sections[name][0],
                "bytes": parsed.sections[name][1],
            }
            for name in _SECTIONS
        },
    }


def salvage_columnar(path: str):
    """Best-effort recovery of intact cells from a damaged ``.v3`` file.

    Ignores checksums entirely and walks the columns structurally,
    keeping every cell whose test/config references and timing segment
    fall inside the readable file.  Returns ``(dataset, salvaged,
    declared, notes)`` — a plain :class:`PerfDataset` of the salvaged
    cells, how many of the header's declared cells survived, and notes
    describing where the walk stopped.  Raises
    :class:`~repro.errors.DatasetError` when nothing is salvageable
    (bad magic, unreadable string tables).
    """
    try:
        with open(path, "rb") as f:
            buf = f.read()
    except OSError as exc:
        raise DatasetError(f"cannot read dataset {path!r}: {exc}") from exc
    if len(buf) < _HEADER_BODY:
        raise _corrupt(path, "truncated before the section table")
    magic, version, _flags, n_tests, n_cells, n_times = struct.unpack_from(
        _COUNTS_FMT, buf, 0
    )
    if magic != COLUMNAR_MAGIC:
        raise _corrupt(
            path, f"bad magic {magic!r} — not a {COLUMNAR_FORMAT} file"
        )
    sections = {}
    pos = _COUNTS_SIZE
    for name in _SECTIONS:
        offset, length, digest = struct.unpack_from(_SECTION_FMT, buf, pos)
        pos += _SECTION_SIZE
        sections[name] = (offset, min(length, max(0, len(buf) - offset)), digest)

    apps, graphs, chips, config_keys = _decode_strings(
        buf, path, sections["strings"]
    )
    notes: List[str] = []

    def _column(name: str, dtype: str, rowbytes: int, count: int):
        offset, avail, _ = sections[name]
        usable = min(count, avail // rowbytes)
        if usable < count:
            notes.append(
                f"{name} column truncated: {usable}/{count} rows readable"
            )
        return (
            np.frombuffer(
                buf,
                dtype=dtype,
                count=usable * (rowbytes // int(dtype[-1])),
                offset=min(offset, len(buf)),
            ),
            usable,
        )

    test_col, avail_tests = _column("tests", "<u4", _TEST_ROW, n_tests)
    test_col = test_col.reshape(avail_tests, 3)
    cell_col, avail_cells = _column("cells", "<u4", _CELL_ROW, n_cells)
    cell_col = cell_col.reshape(avail_cells, 2)
    off_col, avail_offsets = _column("offsets", "<u8", 8, n_cells + 1)
    time_col, avail_times = _column("times", "<f8", 8, n_times)

    configs: Dict[str, OptConfig] = {}
    ds = PerfDataset()
    salvaged = 0
    limit = min(avail_cells, max(0, avail_offsets - 1))
    for i in range(limit):
        t_idx, c_idx = int(cell_col[i, 0]), int(cell_col[i, 1])
        if t_idx >= avail_tests or c_idx >= len(config_keys):
            notes.append(
                f"stopping at cell {i}: reference to unreadable test/config"
            )
            break
        lo, hi = int(off_col[i]), int(off_col[i + 1])
        if not 0 <= lo <= hi <= avail_times:
            notes.append(
                f"stopping at cell {i}: timing segment [{lo}:{hi}] is "
                f"outside the readable column ({avail_times} timings)"
            )
            break
        key = config_keys[c_idx]
        config = configs.get(key)
        if config is None:
            try:
                config = _config_from_key(key)
            except (InvalidConfigError, ValueError):
                notes.append(f"skipping cell {i}: invalid config key {key!r}")
                continue
            configs[key] = config
        vals = time_col[lo:hi].tolist()
        if not vals:
            continue
        test = TestCase(
            apps[int(test_col[t_idx, 0])],
            graphs[int(test_col[t_idx, 1])],
            chips[int(test_col[t_idx, 2])],
        )
        # Direct insertion: salvage must keep degraded cells (NaN,
        # non-positive) for the audit to quarantine, which add() rejects.
        ds._times[(test, key)] = tuple(vals)
        ds._configs.setdefault(key, config)
        ds._tests.setdefault(test, None)
        salvaged += 1
    else:
        if limit < n_cells:
            notes.append(
                f"stopping at cell {limit}: remaining cells are past the "
                f"readable columns"
            )
    return ds, salvaged, n_cells, notes
