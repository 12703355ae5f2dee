"""Compressed sparse row (CSR) graph representation.

All applications in the study consume graphs in CSR form, the same
layout the IrGL runtime uses on GPUs: an ``n_nodes + 1`` row-pointer
array and a column-index array holding the destination of each directed
edge, plus an optional parallel array of edge weights.

The representation is immutable after construction; algorithms that
mutate graph structure (e.g. Boruvka's MST contraction) build new
arrays rather than editing in place.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence, Tuple

import numpy as np

from ..errors import GraphError

__all__ = ["CSRGraph"]


class CSRGraph:
    """A directed graph in compressed sparse row format.

    Parameters
    ----------
    row_ptr:
        ``int64`` array of length ``n_nodes + 1``; out-edges of node
        ``v`` occupy ``col_idx[row_ptr[v]:row_ptr[v + 1]]``.
    col_idx:
        ``int32``/``int64`` array of edge destinations.
    weights:
        Optional array of per-edge weights (parallel to ``col_idx``).
    name:
        Human-readable identifier used in datasets and reports.
    """

    def __init__(
        self,
        row_ptr: np.ndarray,
        col_idx: np.ndarray,
        weights: Optional[np.ndarray] = None,
        name: str = "graph",
    ) -> None:
        row_ptr = np.asarray(row_ptr, dtype=np.int64)
        col_idx = np.asarray(col_idx, dtype=np.int64)
        if row_ptr.ndim != 1 or col_idx.ndim != 1:
            raise GraphError("row_ptr and col_idx must be 1-D arrays")
        if row_ptr.size == 0:
            raise GraphError("row_ptr must have at least one entry")
        if row_ptr[0] != 0:
            raise GraphError("row_ptr must start at 0")
        if row_ptr[-1] != col_idx.size:
            raise GraphError(
                "row_ptr must end at the number of edges "
                f"({row_ptr[-1]} != {col_idx.size})"
            )
        if np.any(np.diff(row_ptr) < 0):
            raise GraphError("row_ptr must be non-decreasing")
        n_nodes = row_ptr.size - 1
        if col_idx.size and (col_idx.min() < 0 or col_idx.max() >= n_nodes):
            raise GraphError("col_idx contains out-of-range node ids")
        if weights is not None:
            weights = np.asarray(weights)
            if weights.shape != col_idx.shape:
                raise GraphError("weights must be parallel to col_idx")
        self._row_ptr = row_ptr
        self._col_idx = col_idx
        self._weights = weights
        self.name = name
        self._undirected: Optional[CSRGraph] = None
        self._row_ptr.setflags(write=False)
        self._col_idx.setflags(write=False)
        if self._weights is not None:
            self._weights.setflags(write=False)

    # -- construction ---------------------------------------------------

    @classmethod
    def from_edges(
        cls,
        n_nodes: int,
        edges: Sequence[Tuple[int, int]] | np.ndarray,
        weights: Optional[Sequence[float]] = None,
        name: str = "graph",
    ) -> "CSRGraph":
        """Build a CSR graph from an edge list.

        Edges are sorted by source (stable, so parallel weights follow
        their edge).  Self-loops and duplicate edges are preserved; use
        :meth:`deduplicated` to drop them.
        """
        if n_nodes < 0:
            raise GraphError("n_nodes must be non-negative")
        edges = np.asarray(edges, dtype=np.int64)
        if edges.size == 0:
            edges = edges.reshape(0, 2)
        if edges.ndim != 2 or edges.shape[1] != 2:
            raise GraphError("edges must be an (m, 2) array")
        src, dst = edges[:, 0], edges[:, 1]
        if edges.shape[0] and (
            src.min() < 0 or src.max() >= n_nodes or dst.min() < 0 or dst.max() >= n_nodes
        ):
            raise GraphError("edge endpoints out of range")
        order = np.argsort(src, kind="stable")
        src, dst = src[order], dst[order]
        w = None
        if weights is not None:
            w = np.asarray(weights)
            if w.shape != (edges.shape[0],):
                raise GraphError(
                    f"weights must be parallel to edges "
                    f"({w.shape} vs {edges.shape[0]} edges)"
                )
            w = w[order]
        row_ptr = np.zeros(n_nodes + 1, dtype=np.int64)
        np.add.at(row_ptr, src + 1, 1)
        np.cumsum(row_ptr, out=row_ptr)
        return cls(row_ptr, dst, w, name=name)

    def deduplicated(self) -> "CSRGraph":
        """Return a copy with self-loops and duplicate edges removed.

        When duplicate edges carry weights, the minimum weight is kept
        (the convention used by shortest-path inputs).
        """
        return _simple_graph(
            self.n_nodes, self.edge_sources(), self._col_idx, self._weights, self.name
        )

    def symmetrized(self) -> "CSRGraph":
        """Return the graph with every edge mirrored (and deduplicated).

        Weights are kept, the minimum of each mirrored pair winning.
        Applications that need only the structure use :meth:`undirected`,
        which is built once per graph.
        """
        w = None
        if self._weights is not None:
            w = np.concatenate([self._weights, self._weights])
        return self._mirrored(w)

    def undirected(self) -> "CSRGraph":
        """The unweighted, simple, undirected view of the graph.

        The structure of :meth:`symmetrized` without its weights, built
        on first use and kept: the graph is immutable, so every
        application that needs the view (CC, TRI, MIS) shares one copy.
        The view is its own undirected view.
        """
        if self._undirected is None:
            view = self._mirrored(None)
            view._undirected = view
            self._undirected = view
        return self._undirected

    def _mirrored(self, weights: Optional[np.ndarray]) -> "CSRGraph":
        """Every edge plus its mirror, deduplicated; ``weights`` cover both."""
        src = self.edge_sources()
        return _simple_graph(
            self.n_nodes,
            np.concatenate([src, self._col_idx]),
            np.concatenate([self._col_idx, src]),
            weights,
            self.name,
        )

    def reversed(self) -> "CSRGraph":
        """Return the transpose graph (all edges flipped)."""
        src = self.edge_sources()
        return CSRGraph.from_edges(
            self.n_nodes,
            np.column_stack([self._col_idx, src]),
            self._weights,
            name=self.name,
        )

    # -- accessors -------------------------------------------------------

    @property
    def n_nodes(self) -> int:
        return self._row_ptr.size - 1

    @property
    def n_edges(self) -> int:
        return self._col_idx.size

    @property
    def row_ptr(self) -> np.ndarray:
        return self._row_ptr

    @property
    def col_idx(self) -> np.ndarray:
        return self._col_idx

    @property
    def weights(self) -> Optional[np.ndarray]:
        return self._weights

    @property
    def has_weights(self) -> bool:
        return self._weights is not None

    def out_degrees(self) -> np.ndarray:
        """Out-degree of every node as an ``int64`` array."""
        return np.diff(self._row_ptr)

    def out_degree(self, v: int) -> int:
        self._check_node(v)
        return int(self._row_ptr[v + 1] - self._row_ptr[v])

    def neighbors(self, v: int) -> np.ndarray:
        """Destinations of the out-edges of ``v`` (a read-only view)."""
        self._check_node(v)
        return self._col_idx[self._row_ptr[v] : self._row_ptr[v + 1]]

    def edge_weights_of(self, v: int) -> np.ndarray:
        if self._weights is None:
            raise GraphError(f"graph {self.name!r} is unweighted")
        self._check_node(v)
        return self._weights[self._row_ptr[v] : self._row_ptr[v + 1]]

    def edge_sources(self) -> np.ndarray:
        """Source node of every edge, i.e. CSR expanded back to COO."""
        return np.repeat(np.arange(self.n_nodes, dtype=np.int64), self.out_degrees())

    def edges(self) -> Iterator[Tuple[int, int]]:
        """Iterate over (source, destination) pairs."""
        src = self.edge_sources()
        for s, d in zip(src, self._col_idx):
            yield int(s), int(d)

    def is_symmetric(self) -> bool:
        """True when for every edge (u, v) the edge (v, u) also exists."""
        fwd = set(map(tuple, np.column_stack([self.edge_sources(), self._col_idx])))
        return all((d, s) in fwd for s, d in fwd)

    def with_unit_weights(self) -> "CSRGraph":
        """Return a weighted copy with every edge weight set to 1."""
        return CSRGraph(
            self._row_ptr,
            self._col_idx,
            np.ones(self.n_edges, dtype=np.float64),
            name=self.name,
        )

    def _check_node(self, v: int) -> None:
        if not 0 <= v < self.n_nodes:
            raise GraphError(f"node {v} out of range [0, {self.n_nodes})")

    # -- dunder ----------------------------------------------------------

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        w = "weighted" if self.has_weights else "unweighted"
        return (
            f"CSRGraph(name={self.name!r}, nodes={self.n_nodes}, "
            f"edges={self.n_edges}, {w})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CSRGraph):
            return NotImplemented
        if not (
            np.array_equal(self._row_ptr, other._row_ptr)
            and np.array_equal(self._col_idx, other._col_idx)
        ):
            return False
        if (self._weights is None) != (other._weights is None):
            return False
        if self._weights is not None:
            return bool(np.allclose(self._weights, other._weights))
        return True

    def __hash__(self) -> int:
        return hash((self.name, self.n_nodes, self.n_edges))


def _simple_graph(
    n_nodes: int,
    src: np.ndarray,
    dst: np.ndarray,
    weights: Optional[np.ndarray],
    name: str,
) -> CSRGraph:
    """CSR of the distinct non-loop ``(src, dst)`` pairs, in one sort.

    Each pair becomes the key ``src * n_nodes + dst``; sorted keys are
    already in CSR order (by source, then destination), so the row
    pointer is a ``bincount`` of their sources.  Among duplicate pairs
    the minimum weight is kept.
    """
    keep = src != dst
    key = src[keep] * n_nodes + dst[keep]
    w = None
    if weights is None:
        key = np.unique(key)
    else:
        w = weights[keep]
        order = np.lexsort((w, key))
        key, w = key[order], w[order]
        first = np.ones(key.size, dtype=bool)
        first[1:] = key[1:] != key[:-1]
        key, w = key[first], w[first]
    n = max(n_nodes, 1)
    row_ptr = np.zeros(n_nodes + 1, dtype=np.int64)
    np.cumsum(np.bincount(key // n, minlength=n_nodes), out=row_ptr[1:])
    return CSRGraph(row_ptr, key % n, w, name=name)
