"""Small shared numeric and filesystem helpers."""

from __future__ import annotations

import hashlib
import os
from typing import Iterable, Sequence, Union

import numpy as np

__all__ = [
    "atomic_write_bytes",
    "atomic_write_text",
    "expand_segments",
    "fnv1a_extend",
    "fnv1a_extend_array",
    "fnv1a_fold",
    "fnv1a_fold_array",
    "fnv1a_state",
    "geomean",
    "sha256_hex",
    "stable_hash",
]


def sha256_hex(data: Union[bytes, str]) -> str:
    """Hex SHA-256 digest of ``data`` (strings are UTF-8 encoded)."""
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def atomic_write_bytes(path: str, data: bytes) -> None:
    """Write ``data`` to ``path`` atomically (write-temp-then-rename).

    The bytes are flushed and fsynced to a sibling temporary file which
    is then renamed over ``path``; a crash mid-write can leave a stale
    temporary behind but never a truncated ``path``.  Readers always
    observe either the previous complete file or the new complete file.
    """
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "wb") as f:
            f.write(data)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):  # pragma: no cover - crash-path cleanup
            try:
                os.unlink(tmp)
            except OSError:
                pass


def atomic_write_text(path: str, text: str) -> None:
    """UTF-8 variant of :func:`atomic_write_bytes`."""
    atomic_write_bytes(path, text.encode("utf-8"))


def expand_segments(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Expand per-segment (start, count) pairs into flat indices.

    For segments ``(s_i, c_i)`` returns the concatenation of
    ``[s_i, s_i + 1, ..., s_i + c_i - 1]`` — the vectorised equivalent
    of iterating CSR adjacency lists, used throughout the functional
    executor.
    """
    starts = np.asarray(starts, dtype=np.int64)
    counts = np.asarray(counts, dtype=np.int64)
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    seg_begin = np.repeat(np.cumsum(counts) - counts, counts)
    return np.arange(total, dtype=np.int64) - seg_begin + np.repeat(starts, counts)


def geomean(values: Iterable[float]) -> float:
    """Geometric mean of positive values; 1.0 for an empty input.

    The paper summarises relative performance with geometric means
    throughout; an empty set of ratios is the multiplicative identity.
    """
    arr = np.asarray(list(values), dtype=np.float64)
    if arr.size == 0:
        return 1.0
    if np.any(arr <= 0):
        raise ValueError("geomean requires positive values")
    return float(np.exp(np.log(arr).mean()))


_FNV_OFFSET = 14695981039346656037
_FNV_PRIME = 1099511628211
_MASK64 = (1 << 64) - 1
_MASK63 = (1 << 63) - 1


def fnv1a_state(*parts: object) -> int:
    """Raw (unmasked) FNV-1a state after hashing the joined parts.

    The state can be extended with more parts via :func:`fnv1a_extend`;
    splitting a :func:`stable_hash` computation this way lets a fixed
    prefix (e.g. chip/program/graph) be hashed once and reused for many
    suffixes (e.g. configuration × repetition seeds).
    """
    h = _FNV_OFFSET
    for ch in "\x1f".join(str(p) for p in parts).encode("utf-8"):
        h = ((h ^ ch) * _FNV_PRIME) & _MASK64
    return h


def fnv1a_fold(state: int, *parts: object) -> int:
    """Raw FNV-1a state after extending a prefix state with more parts.

    ``fnv1a_fold(fnv1a_state(*a), *b) == fnv1a_state(*a, *b)`` for any
    non-empty ``a`` and ``b``, so a state can be extended in steps.
    """
    h = state
    for ch in ("\x1f" + "\x1f".join(str(p) for p in parts)).encode("utf-8"):
        h = ((h ^ ch) * _FNV_PRIME) & _MASK64
    return h


def fnv1a_extend(state: int, *parts: object) -> int:
    """Finish a :func:`fnv1a_state` prefix with more parts.

    ``fnv1a_extend(fnv1a_state(*a), *b) == stable_hash(*a, *b)`` for
    any non-empty ``a`` and ``b``.
    """
    return fnv1a_fold(state, *parts) & _MASK63


def fnv1a_fold_array(
    states: np.ndarray, parts: Sequence[object]
) -> np.ndarray:
    """``fnv1a_fold(states[i], parts[i])`` for every ``i``, as ``uint64``.

    The parts' bytes are padded into one matrix and folded a byte
    column at a time over all rows; a row whose part has ended keeps
    its state.  ``uint64`` products wrap, which is the scalar path's
    ``& _MASK64``.
    """
    encoded = [("\x1f" + str(p)).encode("utf-8") for p in parts]
    lengths = np.array([len(b) for b in encoded], dtype=np.int64)
    width = int(lengths.max(initial=0))
    padded = np.frombuffer(
        b"".join(b.ljust(width, b"\0") for b in encoded), dtype=np.uint8
    ).reshape(len(encoded), width)
    columns = padded.T.astype(np.uint64)
    live = lengths > np.arange(width)[:, None]
    h = np.array(states, dtype=np.uint64)
    prime = np.uint64(_FNV_PRIME)
    with np.errstate(over="ignore"):
        for column, mask in zip(columns, live):
            np.copyto(h, (h ^ column) * prime, where=mask)
    return h


def fnv1a_extend_array(states: np.ndarray, *parts: object) -> np.ndarray:
    """``fnv1a_extend(state, *parts)`` of every state, as ``uint64``.

    The same parts finish every state, so their bytes fold into the
    whole array one at a time.
    """
    h = np.array(states, dtype=np.uint64)
    prime = np.uint64(_FNV_PRIME)
    with np.errstate(over="ignore"):
        suffix = "\x1f" + "\x1f".join(str(p) for p in parts)
        for ch in suffix.encode("utf-8"):
            h = (h ^ np.uint64(ch)) * prime
    return h & np.uint64(_MASK63)


def stable_hash(*parts: object) -> int:
    """A deterministic 63-bit hash of string-convertible parts.

    Python's built-in ``hash`` is salted per process; experiment seeds
    must be reproducible across runs, so we use FNV-1a over the joined
    string representation.
    """
    return fnv1a_state(*parts) & _MASK63
