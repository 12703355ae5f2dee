"""Worklist machinery for data-driven graph applications.

Models the global-memory worklist the IrGL runtime uses: a double
buffer where one kernel pops the *in* list and pushes to the *out*
list, and the host (or the outlined device loop) swaps them between
iterations.  Push counting matters — every push is one contended
global RMW, the raw material of cooperative conversion.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..errors import ExecutionError

__all__ = ["Worklist"]


class Worklist:
    """A double-buffered node worklist with push accounting."""

    def __init__(self, initial: Optional[np.ndarray] = None) -> None:
        self._current = (
            np.asarray(initial, dtype=np.int64).ravel().copy()
            if initial is not None
            else np.empty(0, dtype=np.int64)
        )
        self._next: list = []
        self._pushes_this_iteration = 0
        self.total_pushes = 0

    @property
    def size(self) -> int:
        return int(self._current.size)

    @property
    def is_empty(self) -> bool:
        return self.size == 0

    def items(self) -> np.ndarray:
        """The current iteration's items (read-only semantics)."""
        return self._current

    def push(self, items: np.ndarray) -> int:
        """Append items to the out-buffer; returns the number pushed.

        The count is the number of atomic tail bumps performed, one per
        item.
        """
        items = np.asarray(items, dtype=np.int64).ravel()
        self._next.append(items)
        n = int(items.size)
        self._pushes_this_iteration += n
        self.total_pushes += n
        return n

    def swap(self) -> int:
        """End-of-iteration buffer swap; returns pushes this iteration."""
        pushes = self._pushes_this_iteration
        self._current = (
            np.concatenate(self._next) if self._next else np.empty(0, dtype=np.int64)
        )
        self._next = []
        self._pushes_this_iteration = 0
        return pushes

    def checked_nonempty(self) -> np.ndarray:
        if self.is_empty:
            raise ExecutionError("pop from an empty worklist")
        return self._current
