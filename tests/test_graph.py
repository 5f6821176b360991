"""Unit and property tests for the core Graph container."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import generators
from repro.graph.edits import EdgeEdits
from repro.graph.graph import Graph


# --------------------------------------------------------------------------- #
# construction and validation
# --------------------------------------------------------------------------- #
class TestConstruction:
    def test_basic_construction(self):
        g = Graph(4, [0, 1, 2], [1, 2, 3], [1.0, 2.0, 3.0])
        assert g.num_vertices == 4
        assert g.num_edges == 3
        assert g.total_weight == pytest.approx(6.0)

    def test_default_unit_weights(self):
        g = Graph(3, [0, 1], [1, 2])
        assert np.allclose(g.w, 1.0)

    def test_rejects_self_loops(self):
        with pytest.raises(ValueError):
            Graph(3, [0, 1], [0, 2])

    def test_rejects_negative_weights(self):
        with pytest.raises(ValueError):
            Graph(3, [0], [1], [-1.0])

    def test_rejects_zero_weights(self):
        with pytest.raises(ValueError):
            Graph(3, [0], [1], [0.0])

    def test_rejects_out_of_range_vertex(self):
        with pytest.raises(ValueError):
            Graph(2, [0], [5])

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            Graph(3, [0, 1], [1])

    def test_empty_graph(self):
        g = Graph(5, [], [], [])
        assert g.num_edges == 0
        assert g.degrees().tolist() == [0] * 5

    def test_from_edge_list(self):
        g = Graph.from_edge_list(3, [(0, 1, 2.0), (1, 2, 3.0)])
        assert g.num_edges == 2
        assert g.w.tolist() == [2.0, 3.0]

    def test_from_scipy_adjacency_roundtrip(self):
        g = generators.grid_2d(4, 4)
        adj = g.adjacency_matrix()
        g2 = Graph.from_scipy_adjacency(adj)
        assert g2.num_edges == g.num_edges
        assert g2.total_weight == pytest.approx(g.total_weight)

    def test_equality(self):
        g1 = Graph(3, [0, 1], [1, 2])
        g2 = Graph(3, [0, 1], [1, 2])
        g3 = Graph(3, [0], [2])
        assert g1 == g2
        assert g1 != g3


# --------------------------------------------------------------------------- #
# degrees, adjacency, incidence
# --------------------------------------------------------------------------- #
class TestAdjacency:
    def test_degrees_path(self):
        g = generators.path_graph(5)
        assert g.degrees().tolist() == [1, 2, 2, 2, 1]

    def test_weighted_degrees(self):
        g = Graph(3, [0, 1], [1, 2], [2.0, 5.0])
        assert g.degrees(weighted=True).tolist() == [2.0, 7.0, 5.0]

    def test_neighbors(self):
        g = generators.star_graph(5)
        assert sorted(g.neighbors(0).tolist()) == [1, 2, 3, 4]
        assert g.neighbors(1).tolist() == [0]

    def test_incident_edges(self):
        g = generators.path_graph(4)
        assert len(g.incident_edges(0)) == 1
        assert len(g.incident_edges(1)) == 2

    def test_adjacency_matrix_symmetric(self):
        g = generators.erdos_renyi_gnm(30, 80, seed=0)
        adj = g.adjacency_matrix()
        assert (adj - adj.T).nnz == 0

    def test_incidence_matrix_gives_laplacian(self):
        from repro.graph.laplacian import graph_to_laplacian

        g = generators.weighted_grid_2d(5, 5, seed=2)
        B = g.incidence_matrix()
        L = graph_to_laplacian(g)
        assert np.allclose((B.T @ B).toarray(), L.toarray())

    def test_parallel_edges_counted(self):
        g = Graph(3, [0, 0], [1, 1], [1.0, 2.0])
        assert g.num_edges == 2
        assert g.degrees()[0] == 2


# --------------------------------------------------------------------------- #
# subgraphs, coalescing, reweighting
# --------------------------------------------------------------------------- #
class TestTransforms:
    def test_edge_subgraph(self):
        g = generators.path_graph(5)
        sub = g.edge_subgraph(np.array([0, 2]))
        assert sub.num_edges == 2
        assert sub.n == g.n

    def test_edge_subgraph_bool_mask(self):
        g = generators.path_graph(5)
        mask = np.array([True, False, True, False])
        sub = g.edge_subgraph(mask)
        assert sub.num_edges == 2

    def test_induced_subgraph(self):
        g = generators.grid_2d(4, 4)
        verts = np.array([0, 1, 2, 3])  # first row
        sub, eidx = g.induced_subgraph(verts)
        assert sub.n == 4
        assert sub.num_edges == 3
        assert np.all(g.u[eidx] < 4) and np.all(g.v[eidx] < 4)

    def test_coalesce_merges_parallel_edges(self):
        g = Graph(3, [0, 0, 1], [1, 1, 2], [1.0, 2.0, 5.0])
        simple, inverse = g.coalesce()
        assert simple.num_edges == 2
        assert simple.total_weight == pytest.approx(8.0)
        assert inverse.shape[0] == 3

    def test_reweighted(self):
        g = generators.path_graph(4)
        g2 = g.reweighted([2.0, 3.0, 4.0])
        assert g2.total_weight == pytest.approx(9.0)
        assert g.total_weight == pytest.approx(3.0)

    def test_add_edges(self):
        g = generators.path_graph(4)
        g2 = g.add_edges([0], [3], [7.0])
        assert g2.num_edges == g.num_edges + 1
        assert g2.w[-1] == 7.0

    def test_copy_independent(self):
        g = generators.path_graph(3)
        g2 = g.copy()
        g2.w[0] = 100.0
        assert g.w[0] == 1.0

    def test_weight_buckets(self):
        g = Graph(4, [0, 1, 2], [1, 2, 3], [1.0, 4.0, 16.0])
        buckets = g.weight_buckets(4.0)
        assert buckets.tolist() == [1, 2, 3]

    def test_weight_buckets_requires_base_gt_one(self):
        g = generators.path_graph(3)
        with pytest.raises(ValueError):
            g.weight_buckets(1.0)


# --------------------------------------------------------------------------- #
# mutation helpers and fingerprint canonicalization
# --------------------------------------------------------------------------- #
class TestMutation:
    def test_fingerprint_invariant_under_weight_dtype(self):
        """Regression: float32 weights hashed different bytes than float64."""
        u, v, w = [0, 1, 2], [1, 2, 3], [1.0, 2.0, 3.0]
        g64 = Graph(4, u, v, np.array(w, dtype=np.float64))
        g32 = Graph(4, u, v, np.array(w, dtype=np.float32))
        assert g64.fingerprint() == g32.fingerprint()

    def test_delete_edges_by_index_and_mask(self):
        g = generators.path_graph(5)
        by_index = g.delete_edges([1, 3])
        mask = np.zeros(g.num_edges, dtype=bool)
        mask[[1, 3]] = True
        by_mask = g.delete_edges(mask)
        for g2 in (by_index, by_mask):
            assert g2.num_edges == 2
            assert g2.n == g.n
        assert np.array_equal(by_index.u, by_mask.u)

    def test_delete_edges_empty_selection_roundtrips(self):
        g = generators.path_graph(4)
        g2 = g.delete_edges([])
        assert g2.num_edges == g.num_edges
        assert g2.fingerprint() == g.fingerprint()

    def test_reweight_edges(self):
        g = generators.path_graph(4)
        g2 = g.reweight_edges([0, 2], [5.0, 9.0])
        assert g2.w.tolist() == [5.0, 1.0, 9.0]
        assert g.w.tolist() == [1.0, 1.0, 1.0]  # original untouched

    def test_apply_edits_order_and_index_map(self):
        g = generators.path_graph(5)  # edges (0,1),(1,2),(2,3),(3,4)
        edits = EdgeEdits.merge(
            EdgeEdits.deletes([1]),
            EdgeEdits.reweights([3], [4.0]),
            EdgeEdits.inserts([0], [4], [2.5]),
        )
        g2, index_map = g.apply_edits(edits, return_index_map=True)
        # Surviving originals keep their relative order, inserts go last.
        assert g2.num_edges == 4
        assert index_map.tolist() == [0, -1, 1, 2]
        assert g2.w[index_map[3]] == 4.0
        assert g2.w[-1] == 2.5
        assert (g2.u[-1], g2.v[-1]) == (0, 4)

    def test_apply_edits_validates_bounds(self):
        g = generators.path_graph(4)
        with pytest.raises(ValueError):
            g.apply_edits(EdgeEdits.deletes([g.num_edges]))
        with pytest.raises(ValueError):
            g.apply_edits(EdgeEdits.inserts([0], [g.n], [1.0]))

    def test_edge_edits_rejects_overlapping_delete_reweight(self):
        with pytest.raises(ValueError):
            EdgeEdits.merge(EdgeEdits.deletes([2]), EdgeEdits.reweights([2], [1.0]))


# --------------------------------------------------------------------------- #
# property-based tests
# --------------------------------------------------------------------------- #
@st.composite
def random_graphs(draw):
    n = draw(st.integers(min_value=2, max_value=30))
    m = draw(st.integers(min_value=1, max_value=60))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**31)))
    u = rng.integers(0, n, size=m)
    v = rng.integers(0, n, size=m)
    keep = u != v
    if not np.any(keep):
        u, v = np.array([0]), np.array([1])
        keep = np.array([True])
    w = rng.random(keep.sum()) + 0.1
    return Graph(n, u[keep], v[keep], w)


@settings(max_examples=50, deadline=None)
@given(random_graphs())
def test_degrees_sum_to_twice_edges(g: Graph):
    assert int(g.degrees().sum()) == 2 * g.num_edges


@settings(max_examples=50, deadline=None)
@given(random_graphs())
def test_adjacency_consistent_with_edges(g: Graph):
    indptr, neighbors, edge_ids = g.adjacency
    assert indptr[-1] == 2 * g.num_edges
    # Every edge id appears exactly twice.
    counts = np.bincount(edge_ids, minlength=g.num_edges)
    assert np.all(counts == 2)


@settings(max_examples=50, deadline=None)
@given(random_graphs())
def test_coalesce_preserves_total_weight(g: Graph):
    simple, _ = g.coalesce()
    assert simple.total_weight == pytest.approx(g.total_weight)
    # No parallel edges remain.
    keys = set()
    for a, b in zip(simple.u, simple.v):
        key = (min(a, b), max(a, b))
        assert key not in keys
        keys.add(key)


@settings(max_examples=50, deadline=None)
@given(random_graphs())
def test_incidence_matches_laplacian(g: Graph):
    from repro.graph.laplacian import graph_to_laplacian

    B = g.incidence_matrix()
    L = graph_to_laplacian(g)
    assert np.allclose((B.T @ B).toarray(), L.toarray(), atol=1e-9)
