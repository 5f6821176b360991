"""Chain-cache tests: LRU capacity, eviction counter, byte estimate, keys.

The hit/miss accounting of the basic LRU behaviour is pinned in
``test_property_random.py``/``test_api.py``; this module covers the
capacity eviction counter, same-key replacement, counter resets, the
operator byte estimate, and unfingerprintable inputs.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import chain_cache
from repro.core.chain_cache import (
    DEFAULT_CAPACITY,
    chain_cache_stats,
    clear_chain_cache,
    estimate_operator_bytes,
    fingerprint_matrix,
    make_key,
    set_chain_cache_capacity,
)
from repro.core.config import ChainConfig, SolverConfig
from repro.core.operator import factorize
from repro.graph import generators


@pytest.fixture(autouse=True)
def fresh_cache():
    """Pristine cache with default policy before and after every test."""

    def reset():
        clear_chain_cache()
        set_chain_cache_capacity(DEFAULT_CAPACITY)

    reset()
    yield
    reset()


def _grid_key(seed: int = 0):
    g = generators.grid_2d(5, 5)
    return g, make_key(g, ChainConfig(), SolverConfig(), seed)


class TestCapacityAndBudget:
    def test_capacity_evictions_counted(self):
        set_chain_cache_capacity(1)
        g = generators.grid_2d(5, 5)
        factorize(g, seed=0, cache=True)
        factorize(g, seed=1, cache=True)
        stats = chain_cache_stats()
        assert stats.size == 1
        assert stats.evictions == 1

    def test_lookup_refreshes_lru_order(self):
        set_chain_cache_capacity(2)
        a, b, c = object(), object(), object()
        chain_cache.store(("a",), a)
        chain_cache.store(("b",), b)
        assert chain_cache.lookup(("a",)) is a  # "b" is now least recent
        chain_cache.store(("c",), c)
        assert chain_cache.lookup(("b",)) is None
        assert chain_cache.lookup(("a",)) is a
        assert chain_cache.lookup(("c",)) is c
        assert chain_cache_stats().evictions == 1

    def test_restore_same_key_replaces_bytes(self):
        chain_cache.store(("a",), object())
        chain_cache.store(("a",), object())
        stats = chain_cache_stats()
        assert stats.size == 1

    def test_estimated_bytes_cover_chain_arrays(self):
        g = generators.grid_2d(6, 6)
        op = factorize(g, seed=0, cache=True)
        lower_bound = sum(
            level.laplacian.data.nbytes
            + level.laplacian.indices.nbytes
            + level.laplacian.indptr.nbytes
            for level in op.chain.levels
        )
        estimate = estimate_operator_bytes(op)
        assert estimate >= lower_bound > 0


class TestCounters:
    def test_clear_resets_everything(self):
        g, key = _grid_key()
        factorize(g, seed=0, cache=True)
        factorize(g, seed=0, cache=True)
        clear_chain_cache()
        stats = chain_cache_stats()
        assert (stats.hits, stats.misses, stats.size) == (0, 0, 0)
        assert stats.evictions == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            set_chain_cache_capacity(0)


class TestUnfingerprintableInputs:
    def test_fingerprint_none_bypasses_key(self):
        assert fingerprint_matrix(object()) is None
        assert make_key(object(), ChainConfig(), SolverConfig(), 0) is None

    def test_graph_with_none_fingerprint_solves_uncached(self):
        import repro
        from repro.graph.graph import Graph

        class _NoFingerprint(Graph):
            def fingerprint(self):
                return None

        g = generators.grid_2d(5, 5)
        nofp = _NoFingerprint(g.n, g.u, g.v, g.w)
        b = np.random.default_rng(0).standard_normal(g.n)
        b -= b.mean()
        before = chain_cache_stats()
        report = repro.solve(nofp, b, seed=3)
        assert report.converged
        after = chain_cache_stats()
        # The facade degrades to an uncached solve: no entry, no counters.
        assert (after.hits, after.misses, after.size) == (
            before.hits,
            before.misses,
            before.size,
        )

