"""Streaming edge ingestion must be bit-identical to the in-memory Graph.

Every corpus case — including multigraphs and disconnected unions — is
round-tripped through all ingestion sources (in-memory blocks, ``.npy``
memmaps, packed binary records) at several block sizes, and the resulting
graph's ``u``/``v``/``w`` arrays, dtypes, and fingerprint must match the
direct constructor exactly.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.graph.graph import Graph
from repro.graph.io import (
    BINARY_EDGE_DTYPE,
    graph_from_edge_blocks,
    graph_from_edge_list,
    iter_edge_blocks,
    save_edge_list_binary,
    save_edge_list_npy,
)
from repro.testing import fuzz_corpus

CASES = fuzz_corpus(seed=0)
BLOCK_SIZES = [1, 3, 1 << 10]


def _assert_graphs_identical(got: Graph, want: Graph) -> None:
    assert got.n == want.n
    assert got.num_edges == want.num_edges
    assert got.u.dtype == want.u.dtype
    assert got.v.dtype == want.v.dtype
    assert got.w.dtype == want.w.dtype
    np.testing.assert_array_equal(got.u, want.u)
    np.testing.assert_array_equal(got.v, want.v)
    np.testing.assert_array_equal(got.w, want.w)
    assert got.fingerprint() == want.fingerprint()


@pytest.mark.parametrize("block_edges", BLOCK_SIZES)
@pytest.mark.parametrize("case", CASES, ids=lambda c: c.name)
def test_array_blocks_match_direct_constructor(case, block_edges):
    g = case.graph
    built = graph_from_edge_blocks(
        g.n,
        iter_edge_blocks((g.u, g.v, g.w), block_edges=block_edges),
        num_edges=g.num_edges,
    )
    _assert_graphs_identical(built, g)


@pytest.mark.parametrize("case", CASES, ids=lambda c: c.name)
def test_unknown_edge_count_grows_buffers(case):
    # Without num_edges the builder grows by doubling; result is identical.
    g = case.graph
    built = graph_from_edge_list(g.n, (g.u, g.v, g.w), block_edges=2)
    _assert_graphs_identical(built, g)


@pytest.mark.parametrize("block_edges", [3, 1 << 10])
@pytest.mark.parametrize("case", CASES, ids=lambda c: c.name)
def test_npy_memmap_roundtrip(case, block_edges, tmp_path):
    g = case.graph
    path = save_edge_list_npy(g, tmp_path / "edges.npy")
    built = graph_from_edge_list(g.n, path, block_edges=block_edges)
    _assert_graphs_identical(built, g)


@pytest.mark.parametrize("case", CASES, ids=lambda c: c.name)
def test_binary_roundtrip(case, tmp_path):
    g = case.graph
    path = save_edge_list_binary(g, tmp_path / "edges.bin")
    built = graph_from_edge_list(g.n, path, block_edges=7)
    _assert_graphs_identical(built, g)


def test_plain_2d_npy_without_weights(tmp_path):
    g = fuzz_corpus(seed=0)[5].graph  # path_12, unweighted
    arr = np.stack([g.u, g.v], axis=1).astype(np.int64)
    path = tmp_path / "pairs.npy"
    np.save(path, arr)
    built = graph_from_edge_list(g.n, str(path), block_edges=4)
    _assert_graphs_identical(built, g)


def test_iter_edge_blocks_from_graph_and_passthrough():
    g = Graph(4, [0, 1, 2], [1, 2, 3], [1.0, 2.0, 3.0])
    blocks = list(iter_edge_blocks(g, block_edges=2))
    assert [b[0].shape[0] for b in blocks] == [2, 1]
    rebuilt = graph_from_edge_blocks(4, iter(blocks))
    _assert_graphs_identical(rebuilt, g)


def test_streaming_validation_rejects_bad_blocks():
    with pytest.raises(ValueError):
        graph_from_edge_blocks(3, [(np.array([0]), np.array([5]), np.array([1.0]))])
    with pytest.raises(ValueError):
        graph_from_edge_blocks(3, [(np.array([1]), np.array([1]), np.array([1.0]))])
    with pytest.raises(ValueError):
        graph_from_edge_blocks(3, [(np.array([0]), np.array([1]), np.array([-1.0]))])
