"""Tests for the CSR graph representation."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.apps.base import unique_nodes
from repro.errors import GraphError
from repro.graphs import CSRGraph


def edges_strategy(max_nodes=30, max_edges=80):
    return st.integers(min_value=1, max_value=max_nodes).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.tuples(
                    st.integers(min_value=0, max_value=n - 1),
                    st.integers(min_value=0, max_value=n - 1),
                ),
                max_size=max_edges,
            ),
        )
    )


def weighted_edges_strategy(max_nodes=30, max_edges=80):
    """Multigraphs with self-loops and duplicates; weights may be absent.

    Weights come from a small set so duplicate edges often tie.
    """
    return edges_strategy(max_nodes, max_edges).flatmap(
        lambda data: st.tuples(
            st.just(data),
            st.one_of(
                st.none(),
                st.lists(
                    st.sampled_from([1.0, 2.0, 3.0, 7.5]),
                    min_size=len(data[1]),
                    max_size=len(data[1]),
                ),
            ),
        )
    )


def _graph(data) -> CSRGraph:
    (n, edges), weights = data
    return CSRGraph.from_edges(n, edges, weights, name="g")


def reference_deduplicated(g: CSRGraph) -> CSRGraph:
    """The two-step dedup: key sort, then a ``from_edges`` argsort."""
    src = g.edge_sources()
    dst = g.col_idx
    keep = src != dst
    src, dst = src[keep], dst[keep]
    w = g.weights[keep] if g.weights is not None else None
    key = src * g.n_nodes + dst
    if w is None:
        uniq = np.unique(key)
        usrc, udst = uniq // g.n_nodes, uniq % g.n_nodes
        return CSRGraph.from_edges(g.n_nodes, np.column_stack([usrc, udst]))
    order = np.lexsort((w, key))
    key, src, dst, w = key[order], src[order], dst[order], w[order]
    first = np.ones(key.size, dtype=bool)
    first[1:] = key[1:] != key[:-1]
    return CSRGraph.from_edges(
        g.n_nodes, np.column_stack([src[first], dst[first]]), w[first]
    )


def reference_symmetrized(g: CSRGraph) -> CSRGraph:
    """The two-step symmetrization: mirror through ``from_edges``, dedup."""
    src = g.edge_sources()
    w = None if g.weights is None else np.concatenate([g.weights, g.weights])
    mirrored = CSRGraph.from_edges(
        g.n_nodes,
        np.column_stack(
            [np.concatenate([src, g.col_idx]), np.concatenate([g.col_idx, src])]
        ),
        w,
    )
    return reference_deduplicated(mirrored)


def assert_same_graph(got: CSRGraph, want: CSRGraph) -> None:
    """Exact equality of structure and weights, dtypes included."""
    for a, b in ((got.row_ptr, want.row_ptr), (got.col_idx, want.col_idx)):
        assert a.dtype == b.dtype
        assert np.array_equal(a, b)
    assert (got.weights is None) == (want.weights is None)
    if want.weights is not None:
        assert got.weights.dtype == want.weights.dtype
        assert np.array_equal(got.weights, want.weights)


class TestConstruction:
    def test_from_edges_basic(self):
        g = CSRGraph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
        assert g.n_nodes == 3
        assert g.n_edges == 3
        assert g.neighbors(0).tolist() == [1, 2]
        assert g.neighbors(1).tolist() == [2]
        assert g.neighbors(2).tolist() == []

    def test_from_edges_empty(self):
        g = CSRGraph.from_edges(4, [])
        assert g.n_nodes == 4
        assert g.n_edges == 0

    def test_weights_follow_edges(self):
        g = CSRGraph.from_edges(3, [(1, 2), (0, 1)], [9.0, 5.0])
        assert g.edge_weights_of(0).tolist() == [5.0]
        assert g.edge_weights_of(1).tolist() == [9.0]

    def test_rejects_out_of_range_edges(self):
        with pytest.raises(GraphError):
            CSRGraph.from_edges(2, [(0, 5)])
        with pytest.raises(GraphError):
            CSRGraph.from_edges(2, [(-1, 0)])

    def test_rejects_bad_row_ptr(self):
        with pytest.raises(GraphError):
            CSRGraph(np.array([1, 2]), np.array([0]))
        with pytest.raises(GraphError):
            CSRGraph(np.array([0, 2]), np.array([0]))
        with pytest.raises(GraphError):
            CSRGraph(np.array([0, 2, 1, 3]), np.array([0, 0, 0]))

    def test_rejects_mismatched_weights(self):
        with pytest.raises(GraphError):
            CSRGraph.from_edges(2, [(0, 1)], [1.0, 2.0])

    def test_arrays_read_only(self):
        g = CSRGraph.from_edges(2, [(0, 1)])
        with pytest.raises(ValueError):
            g.col_idx[0] = 0

    @given(edges_strategy())
    def test_from_edges_preserves_multiset(self, data):
        n, edges = data
        g = CSRGraph.from_edges(n, edges)
        rebuilt = sorted(zip(g.edge_sources().tolist(), g.col_idx.tolist()))
        assert rebuilt == sorted(edges)


class TestTransforms:
    def test_deduplicated_drops_self_loops_and_dups(self):
        g = CSRGraph.from_edges(3, [(0, 0), (0, 1), (0, 1), (1, 2)])
        d = g.deduplicated()
        assert sorted(d.edges()) == [(0, 1), (1, 2)]

    def test_deduplicated_keeps_min_weight(self):
        g = CSRGraph.from_edges(2, [(0, 1), (0, 1)], [7.0, 3.0])
        d = g.deduplicated()
        assert d.n_edges == 1
        assert d.weights[0] == 3.0

    def test_symmetrized_mirrors_edges(self):
        g = CSRGraph.from_edges(3, [(0, 1), (1, 2)], [4.0, 5.0])
        s = g.symmetrized()
        assert s.is_symmetric()
        assert sorted(s.edges()) == [(0, 1), (1, 0), (1, 2), (2, 1)]

    def test_reversed_flips_all_edges(self):
        g = CSRGraph.from_edges(3, [(0, 1), (0, 2)], [1.0, 2.0])
        r = g.reversed()
        assert sorted(r.edges()) == [(1, 0), (2, 0)]
        assert r.n_edges == g.n_edges

    def test_with_unit_weights(self):
        g = CSRGraph.from_edges(2, [(0, 1)])
        w = g.with_unit_weights()
        assert w.has_weights
        assert w.weights.tolist() == [1.0]

    @given(edges_strategy())
    def test_double_reverse_preserves_edges(self, data):
        n, edges = data
        g = CSRGraph.from_edges(n, edges)
        # Adjacency-list order may differ; the edge multiset must not.
        assert sorted(g.reversed().reversed().edges()) == sorted(g.edges())

    @given(edges_strategy())
    def test_symmetrized_is_symmetric(self, data):
        n, edges = data
        assert CSRGraph.from_edges(n, edges).symmetrized().is_symmetric()

    @given(edges_strategy())
    def test_deduplicated_has_no_duplicates(self, data):
        n, edges = data
        d = CSRGraph.from_edges(n, edges).deduplicated()
        pairs = list(d.edges())
        assert len(pairs) == len(set(pairs))
        assert all(s != t for s, t in pairs)


class TestOneSortTransforms:
    """The one-sort transforms against the two-step reference."""

    @given(weighted_edges_strategy())
    def test_deduplicated_matches_reference(self, data):
        g = _graph(data)
        assert_same_graph(g.deduplicated(), reference_deduplicated(g))

    @given(weighted_edges_strategy())
    def test_symmetrized_matches_reference(self, data):
        g = _graph(data)
        assert_same_graph(g.symmetrized(), reference_symmetrized(g))

    @given(weighted_edges_strategy())
    def test_undirected_is_unweighted_reference_structure(self, data):
        g = _graph(data)
        want = reference_symmetrized(g)
        view = g.undirected()
        assert view.weights is None
        assert np.array_equal(view.row_ptr, want.row_ptr)
        assert np.array_equal(view.col_idx, want.col_idx)

    @given(weighted_edges_strategy())
    def test_undirected_is_built_once(self, data):
        g = _graph(data)
        view = g.undirected()
        assert g.undirected() is view
        assert view.undirected() is view
        for arr in (view.row_ptr, view.col_idx):
            assert not arr.flags.writeable

    def test_empty_graphs(self):
        for n in (0, 3):
            g = CSRGraph.from_edges(n, [])
            assert_same_graph(g.deduplicated(), reference_deduplicated(g))
            assert_same_graph(g.symmetrized(), reference_symmetrized(g))
            assert g.undirected().n_edges == 0
            assert g.undirected().n_nodes == n


class TestUniqueNodes:
    @given(
        st.integers(min_value=1, max_value=50).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.lists(st.integers(min_value=0, max_value=n - 1), max_size=120),
            )
        )
    )
    def test_matches_np_unique(self, data):
        n, ids = data
        ids = np.asarray(ids, dtype=np.int64)
        got = unique_nodes(ids, n)
        want = np.unique(ids)
        assert got.dtype == np.int64
        assert np.array_equal(got, want)

    def test_empty_input(self):
        got = unique_nodes(np.empty(0, dtype=np.int64), 4)
        assert got.dtype == np.int64
        assert got.size == 0


class TestAccessors:
    def test_out_degrees(self):
        g = CSRGraph.from_edges(3, [(0, 1), (0, 2), (2, 0)])
        assert g.out_degrees().tolist() == [2, 0, 1]
        assert g.out_degree(0) == 2

    def test_node_range_checked(self):
        g = CSRGraph.from_edges(2, [(0, 1)])
        with pytest.raises(GraphError):
            g.neighbors(2)
        with pytest.raises(GraphError):
            g.out_degree(-1)

    def test_edge_weights_requires_weights(self):
        g = CSRGraph.from_edges(2, [(0, 1)])
        with pytest.raises(GraphError):
            g.edge_weights_of(0)

    def test_equality_considers_weights(self):
        a = CSRGraph.from_edges(2, [(0, 1)], [1.0])
        b = CSRGraph.from_edges(2, [(0, 1)], [2.0])
        c = CSRGraph.from_edges(2, [(0, 1)])
        assert a != b
        assert a != c
        assert a == CSRGraph.from_edges(2, [(0, 1)], [1.0])
