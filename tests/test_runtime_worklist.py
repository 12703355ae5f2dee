"""Tests for the double-buffered worklist."""

import numpy as np
import pytest

from repro.errors import ExecutionError
from repro.runtime import Worklist


class TestWorklist:
    def test_initial_items(self):
        wl = Worklist(np.array([3, 1]))
        assert wl.size == 2
        assert wl.items().tolist() == [3, 1]

    def test_empty_start(self):
        wl = Worklist()
        assert wl.is_empty

    def test_push_goes_to_next_buffer(self):
        wl = Worklist(np.array([0]))
        wl.push(np.array([5, 6]))
        assert wl.items().tolist() == [0]  # current unchanged
        wl.swap()
        assert wl.items().tolist() == [5, 6]

    def test_swap_returns_push_count(self):
        wl = Worklist()
        wl.push(np.array([1, 1, 2]))
        wl.push(np.array([3]))
        assert wl.swap() == 4

    def test_total_pushes_accumulates(self):
        wl = Worklist()
        wl.push(np.array([1]))
        wl.swap()
        wl.push(np.array([2, 3]))
        wl.swap()
        assert wl.total_pushes == 3

    def test_swap_clears_iteration_counter(self):
        wl = Worklist()
        wl.push(np.array([1]))
        wl.swap()
        assert wl.swap() == 0

    def test_checked_nonempty(self):
        wl = Worklist()
        with pytest.raises(ExecutionError):
            wl.checked_nonempty()
        wl.push(np.array([4]))
        wl.swap()
        assert wl.checked_nonempty().tolist() == [4]

    def test_push_empty_array(self):
        wl = Worklist()
        assert wl.push(np.empty(0, dtype=np.int64)) == 0
        wl.swap()
        assert wl.is_empty
