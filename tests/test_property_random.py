"""Property-style randomized tests over the seeded fuzz corpus.

Three classes of properties:

* **Batched == looped, bit-for-bit.**  A batched ``(n, k)`` solve must be
  byte-identical to ``k`` independent ``(n,)`` solves — including on
  disconnected graphs, where the per-component projectors are exercised.
  This holds because every reduction on the solve path is batch-width
  invariant (see :mod:`repro.linalg.norms`).
* **Chain-cache accounting.**  ``chain_cache_stats()`` hit/miss counters
  must track repeated ``repro.solve`` calls exactly.
* **``direct`` is exact.**  One application of the top-level sparse factor
  meets a tight residual on every corpus graph (disconnected ones
  included), on a Gremban-reduced SDD system and on a patched operator.

They are parameterized over corpus seeds so the suite re-fuzzes itself;
the large-corpus sweeps are marked ``slow`` (run with ``-m slow``).
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.core.config import ChainConfig
from repro.core.operator import factorize
from repro.graph import generators
from repro.graph.components import connected_components
from repro.graph.laplacian import graph_to_laplacian
from repro.linalg.direct import ComponentProjector, solve_sdd_direct
from repro.testing import dense_solve_laplacian, fuzz_corpus

CORPUS_SEEDS = [0, 1, 2]


def _cases(seed, *, include_large=False, predicate=None):
    cases = fuzz_corpus(seed, include_large=include_large)
    if predicate is not None:
        cases = [c for c in cases if predicate(c)]
    return cases


@pytest.mark.parametrize("corpus_seed", CORPUS_SEEDS)
class TestBatchedEqualsLooped:
    def test_bit_for_bit_on_disconnected_graphs(self, corpus_seed):
        for case in _cases(corpus_seed, predicate=lambda c: c.has("disconnected")):
            g = case.graph
            op = factorize(g, seed=corpus_seed)
            rhs = np.random.default_rng(corpus_seed + 100).standard_normal((g.n, 4))
            batched = op.solve(rhs, tol=1e-8)
            for j in range(rhs.shape[1]):
                single = op.solve(rhs[:, j], tol=1e-8)
                assert np.array_equal(single.x, batched.x[:, j]), (case.name, j)
                assert single.iterations == batched.column_iterations[j]
                assert single.converged == batched.column_converged[j]

    def test_bit_for_bit_across_corpus(self, corpus_seed):
        for case in _cases(corpus_seed, predicate=lambda c: c.graph.n >= 2):
            g = case.graph
            op = factorize(g, seed=7)
            rhs = np.random.default_rng(corpus_seed).standard_normal((g.n, 3))
            batched = op.solve(rhs, tol=1e-8)
            for j in range(rhs.shape[1]):
                assert np.array_equal(op.solve(rhs[:, j], tol=1e-8).x, batched.x[:, j]), case.name


@pytest.mark.parametrize("corpus_seed", CORPUS_SEEDS)
def test_solve_matches_dense_oracle(corpus_seed):
    """Every corpus graph's solve agrees with the dense pinv oracle."""
    for case in _cases(corpus_seed):
        g = case.graph
        rhs = np.random.default_rng(corpus_seed + 1).standard_normal(g.n)
        report = repro.solve(g, rhs, tol=1e-12, seed=0, use_cache=False)
        ref = dense_solve_laplacian(g, rhs)
        # Compare modulo the null space: project both onto the range.
        diff = report.x - ref
        _, labels = connected_components(g)
        for comp in np.unique(labels):
            mask = labels == comp
            diff[mask] -= diff[mask].mean()
        scale = max(float(np.abs(ref).max()), 1e-12)
        assert np.abs(diff).max() <= 1e-8 * scale, case.name


DIRECT_TOL = 1e-12


def _direct_systems(source):
    """``(name, operator, matrix, b)`` systems ``direct`` must solve exactly.

    ``matrix`` is the system the operator solves *now*.  For the patched
    depth-1 operator that is the mutated Laplacian, which its chain's bottom
    factor (built before the edit) no longer matches.
    """
    if source == "sdd":
        mat, b = generators.weighted_sdd_system(60, 150, seed=2)
        return [("gremban", factorize(mat, seed=2), mat, b)]
    if source == "patched":
        g = generators.grid_2d(12, 12)
        op = factorize(g, ChainConfig(max_levels=1), seed=0)
        edits = repro.EdgeEdits.reweights(np.arange(0, g.num_edges, 38), np.full(7, 4.0))
        patched, report = op.update(edits)
        assert report.strategy == "patched" and patched.depth == 1
        b = np.random.default_rng(0).standard_normal(g.n)
        return [("patched", patched, graph_to_laplacian(patched.graph), b - b.mean())]
    systems = []
    for case in fuzz_corpus(source):
        g = case.graph
        project = ComponentProjector(connected_components(g)[1])
        b = project(np.random.default_rng(source).standard_normal((g.n, 2)))
        systems.append((case.name, factorize(g, seed=0), graph_to_laplacian(g), b))
    return systems


@pytest.mark.parametrize("source", CORPUS_SEEDS + ["sdd", "patched"])
def test_direct_is_exact(source):
    """``direct`` is one exact sparse solve of the operator's current system."""
    for name, op, matrix, b in _direct_systems(source):
        report = op.solve(b, tol=DIRECT_TOL, method="direct")
        assert report.converged and report.iterations == 1, name
        residual = np.linalg.norm(matrix @ report.x - b, axis=0)
        assert np.all(residual <= DIRECT_TOL * np.linalg.norm(b, axis=0)), name
        if source == "sdd":
            x_ref = solve_sdd_direct(matrix, b)
            assert np.linalg.norm(report.x - x_ref) <= 1e-10 * np.linalg.norm(x_ref)


class TestChainCacheStats:
    def setup_method(self):
        repro.clear_chain_cache()

    def test_hit_miss_counts_across_repeated_solves(self):
        from repro.graph import generators

        g = generators.grid_2d(6, 6)
        b = np.random.default_rng(0).standard_normal(g.n)
        stats = repro.chain_cache_stats()
        assert (stats.hits, stats.misses, stats.size) == (0, 0, 0)

        repro.solve(g, b, seed=3)
        stats = repro.chain_cache_stats()
        assert (stats.hits, stats.misses, stats.size) == (0, 1, 1)

        for repeat in range(1, 4):
            repro.solve(g, 2.0 * b, seed=3)
            stats = repro.chain_cache_stats()
            assert (stats.hits, stats.misses) == (repeat, 1)

        # Different seed → different factorization → a second miss.
        repro.solve(g, b, seed=4)
        stats = repro.chain_cache_stats()
        assert (stats.hits, stats.misses, stats.size) == (3, 2, 2)

        # Bypassing the cache must leave the counters untouched.
        repro.solve(g, b, seed=3, use_cache=False)
        assert repro.chain_cache_stats() == stats

        # Non-integer seeds are uncacheable and never counted.
        repro.solve(g, b, seed=np.random.default_rng(0))
        assert repro.chain_cache_stats() == stats

    def test_distinct_graphs_miss_separately(self):
        from repro.graph import generators

        g1 = generators.grid_2d(5, 5)
        g2 = generators.grid_2d(5, 6)
        b1 = np.ones(g1.n)
        b2 = np.ones(g2.n)
        repro.solve(g1, b1, seed=0)
        repro.solve(g2, b2, seed=0)
        repro.solve(g1, b1, seed=0)
        stats = repro.chain_cache_stats()
        assert (stats.hits, stats.misses, stats.size) == (1, 2, 2)


@pytest.mark.slow
@pytest.mark.parametrize("corpus_seed", CORPUS_SEEDS)
def test_large_corpus_solve_and_batching(corpus_seed):
    """Large fuzz sweep: oracle agreement + bit-for-bit batching at scale."""
    for case in _cases(corpus_seed, include_large=True, predicate=lambda c: c.has("large")):
        g = case.graph
        op = factorize(g, seed=corpus_seed)
        rhs = np.random.default_rng(corpus_seed).standard_normal((g.n, 4))
        batched = op.solve(rhs, tol=1e-10)
        assert batched.converged
        j = corpus_seed % rhs.shape[1]
        single = op.solve(rhs[:, j], tol=1e-10)
        assert np.array_equal(single.x, batched.x[:, j]), case.name
