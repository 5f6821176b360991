"""The single storage rule: ``Graph`` picks every dtype, the chain reuses it.

Endpoints are stored in ``min_index_dtype(n, m)`` and weights in float64,
whatever the input arrays carry; the operator's top chain level *is* the
caller's graph.  Forcing int64 storage (the path graphs past int32 capacity
take) never changes a solve.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

import repro.graph.graph
from repro.core.chain_cache import estimate_operator_bytes
from repro.core.operator import factorize
from repro.graph import generators
from repro.graph.graph import Graph
from repro.testing import fuzz_corpus
from repro.util.dtypes import as_index_array, index_capacity_ok, min_index_dtype

INT32_MAX = np.iinfo(np.int32).max


# --------------------------------------------------------------------------- #
# capacity rule
# --------------------------------------------------------------------------- #
def test_min_index_dtype_boundaries():
    # Capacity rule: int32 iff max(n, 2m + 2) <= 2**31 - 1 (arc ids reach
    # 2m + sentinel in the Euler-tour rooting, CSR offsets reach 2m).
    assert min_index_dtype(10, 10) == np.dtype(np.int32)
    assert min_index_dtype(INT32_MAX, 0) == np.dtype(np.int32)
    assert min_index_dtype(INT32_MAX + 1, 0) == np.dtype(np.int64)
    m_edge = (INT32_MAX - 2) // 2
    assert min_index_dtype(10, m_edge) == np.dtype(np.int32)
    assert min_index_dtype(10, m_edge + 1) == np.dtype(np.int64)


def test_index_capacity_ok_matches_min_dtype():
    for n, m in [(0, 0), (5, 3), (INT32_MAX, 0), (INT32_MAX + 1, 0), (7, 2**31)]:
        ok32 = index_capacity_ok(np.dtype(np.int32), n, m)
        assert ok32 == (min_index_dtype(n, m) == np.dtype(np.int32))
        assert index_capacity_ok(np.dtype(np.int64), n, m)


def test_as_index_array_preserves_lean_dtypes():
    a32 = np.arange(5, dtype=np.int32)
    out32 = as_index_array(a32)
    assert out32.dtype == np.dtype(np.int32)
    assert np.shares_memory(out32, a32)  # pass-through view, no copy
    a64 = np.arange(5, dtype=np.int64)
    out64 = as_index_array(a64)
    assert out64.dtype == np.dtype(np.int64)
    assert np.shares_memory(out64, a64)
    assert as_index_array([1, 2, 3]).dtype == np.dtype(np.int64)


# --------------------------------------------------------------------------- #
# Graph storage
# --------------------------------------------------------------------------- #
def test_graph_stores_min_index_dtype_and_float64_weights():
    u64 = np.array([0, 1], dtype=np.int64)
    v64 = np.array([1, 2], dtype=np.int64)
    g = Graph(10, u64, v64, np.array([1.0, 2.0], dtype=np.float32))
    assert g.u.dtype == g.v.dtype == np.dtype(np.int32)
    assert g.w.dtype == np.dtype(np.float64)
    np.testing.assert_array_equal(g.u, u64)
    np.testing.assert_array_equal(g.w, [1.0, 2.0])
    # Python lists, int64 slices and edits all land on the same rule.
    assert Graph(10, [0, 1], [1, 2]).u.dtype == np.dtype(np.int32)
    assert g.add_edges(u64, v64 + 1, [3.0, 4.0]).u.dtype == np.dtype(np.int32)
    # Input that already has the storage dtype is not copied.
    u32 = u64.astype(np.int32)
    v32 = v64.astype(np.int32)
    w = np.array([1.0, 2.0])
    lean = Graph(10, u32, v32, w)
    assert np.shares_memory(lean.u, u32)
    assert np.shares_memory(lean.v, v32)
    assert np.shares_memory(lean.w, w)


def test_graph_validation_checks_precast_values():
    # An out-of-range int64 endpoint must not wrap into valid int32 range.
    bad = np.array([INT32_MAX + 7], dtype=np.int64)
    with pytest.raises(ValueError):
        Graph(10, bad, np.array([1], dtype=np.int64), [1.0])


def test_int64_input_shares_one_top_level():
    g32 = generators.weighted_grid_2d(10, 10, seed=3)
    g64 = Graph(g32.n, g32.u.astype(np.int64), g32.v.astype(np.int64), g32.w)
    op = factorize(g64, seed=1)
    assert op.chain.levels[0].graph is op.graph
    assert op.laplacian is op.chain.levels[0].laplacian
    assert estimate_operator_bytes(op) == estimate_operator_bytes(factorize(g32, seed=1))


# --------------------------------------------------------------------------- #
# corpus parity: index dtype never changes a solve
# --------------------------------------------------------------------------- #
def _digest(x):
    return hashlib.sha256(np.ascontiguousarray(x, dtype=np.float64).tobytes()).hexdigest()


@pytest.mark.parametrize(
    "case", [c for c in fuzz_corpus(seed=0) if c.graph.num_edges > 0], ids=lambda c: c.name
)
def test_corpus_int32_and_int64_solves_agree_exactly(case, monkeypatch):
    g = case.graph
    rng = np.random.default_rng(11)
    b = rng.standard_normal(g.n)
    b -= b.mean()
    r32 = factorize(g, seed=2).solve(b)
    # Force the int64 storage that graphs past int32 capacity get.
    monkeypatch.setattr(repro.graph.graph, "min_index_dtype", lambda n, m: np.dtype(np.int64))
    op64 = factorize(Graph(g.n, g.u, g.v, g.w), seed=2)
    assert op64.chain.levels[0].graph.u.dtype == np.dtype(np.int64)
    r64 = op64.solve(b)
    assert _digest(r32.x) == _digest(r64.x)
    assert r32.iterations == r64.iterations
