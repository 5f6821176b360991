"""Tests for the factorize-once / solve-many API.

Covers the config objects, the batched multi-RHS path (including the general
SDD / Gremban route), the four solve methods, the process-level chain cache,
and the ``repro.solve`` facade.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

import repro
from repro.core.chain_cache import (
    chain_cache_stats,
    clear_chain_cache,
    set_chain_cache_capacity,
)
from repro.core.config import SOLVE_METHODS, ChainConfig, SolverConfig, check_method
from repro.core.operator import LaplacianOperator, factorize
from repro.graph import generators
from repro.graph.laplacian import graph_to_laplacian
from repro.linalg.direct import solve_laplacian_direct, solve_sdd_direct
from repro.pram.model import CostModel


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_chain_cache()
    yield
    clear_chain_cache()


def _laplacian_problem(graph, seed=0):
    lap = graph_to_laplacian(graph)
    rng = np.random.default_rng(seed)
    b = rng.standard_normal(graph.n)
    b -= b.mean()
    return lap, b


def _batch(graph, k, seed=7):
    rng = np.random.default_rng(seed)
    b = rng.standard_normal((graph.n, k))
    return b - b.mean(axis=0)


class TestConfigValidation:
    def test_defaults_are_valid(self):
        ChainConfig()
        SolverConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"kappa": 1.0},
            {"kappa": -3.0},
            {"kappa": float("inf")},
            {"bottom_size": 2.5},
            {"bottom_size": 0},
            {"max_levels": 0},
        ],
    )
    def test_chain_config_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            ChainConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"method": "bogus"},
            {"tol": float("inf")},
            {"tol": 0.0},
            {"tol": -1e-8},
            {"max_iterations": 0},
        ],
    )
    def test_solver_config_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            SolverConfig(**kwargs)

    def test_configs_are_frozen_and_hashable(self):
        cfg = ChainConfig(kappa=36.0)
        with pytest.raises(Exception):
            cfg.kappa = 49.0
        assert hash(cfg.cache_key()) == hash(ChainConfig(kappa=36.0).cache_key())
        assert ChainConfig().cache_key() != cfg.cache_key()

    def test_inner_iteration_resolution(self):
        """The operator derives the paper's max(2, ceil(sqrt(kappa))) budget."""
        g = generators.grid_2d(6, 6)
        assert factorize(g, seed=0).inner_iterations == 5
        assert factorize(g, ChainConfig(kappa=2.0), seed=0).inner_iterations == 2
        assert factorize(g, ChainConfig(kappa=30.0), seed=0).inner_iterations == 6


class TestBatchedSolve:
    def test_batched_matches_independent_solves(self):
        g = generators.grid_2d(14, 14)
        batch = _batch(g, 5)
        op = factorize(g, seed=0)
        batched = op.solve(batch, tol=1e-8)
        assert batched.x.shape == batch.shape
        assert batched.converged
        assert batched.column_iterations.shape == (5,)
        for j in range(batch.shape[1]):
            single = op.solve(batch[:, j], tol=1e-8)
            np.testing.assert_allclose(batched.x[:, j], single.x, atol=1e-10)
            assert batched.column_iterations[j] == single.iterations

    def test_batched_accuracy_against_direct(self):
        g = generators.erdos_renyi_gnm(200, 700, seed=3)
        lap = graph_to_laplacian(g)
        batch = _batch(g, 4)
        op = factorize(g, seed=0)
        report = op.solve(batch, tol=1e-9)
        for j in range(batch.shape[1]):
            x_exact = solve_laplacian_direct(lap, batch[:, j])
            x = report.x[:, j] - report.x[:, j].mean()
            assert np.linalg.norm(x - x_exact) <= 1e-5 * max(np.linalg.norm(x_exact), 1.0)

    def test_batched_depth_does_not_scale_with_width(self):
        """Lockstep columns share each iteration: PRAM depth ~ width-free."""
        g = generators.grid_2d(12, 12)
        op = factorize(g, seed=0)
        single = op.solve(_batch(g, 1), tol=1e-8)
        wide = op.solve(_batch(g, 6), tol=1e-8)
        assert wide.depth <= 2.0 * single.depth
        assert wide.work > single.work

    def test_factorize_once_charges_less_than_sequential_loop(self):
        """Acceptance criterion: batched multi-RHS beats k x factorize + solve."""
        g = generators.grid_2d(14, 14)
        batch = _batch(g, 6)

        cost_batched = CostModel()
        op = factorize(g, seed=0, cost=cost_batched)
        batched = op.solve(batch, tol=1e-8)
        assert batched.converged

        cost_looped = CostModel()
        for j in range(batch.shape[1]):
            report = factorize(g, seed=0, cost=cost_looped).solve(batch[:, j], tol=1e-8)
            # residuals match: same factorization seed, same per-column path
            assert abs(report.relative_residual - batched.column_residuals[j]) <= 1e-12
            np.testing.assert_allclose(report.x, batched.x[:, j], atol=1e-10)

        assert cost_batched.work < cost_looped.work
        assert cost_batched.depth < cost_looped.depth

    def test_gremban_path_under_batching(self):
        mat, b = generators.weighted_sdd_system(60, 150, seed=2)
        x_exact = solve_sdd_direct(mat, b)
        op = factorize(mat, seed=2)
        batch = np.stack([b, -0.5 * b, 3.0 * b], axis=1)
        report = op.solve(batch, tol=1e-9)
        assert report.converged
        expected = np.stack([x_exact, -0.5 * x_exact, 3.0 * x_exact], axis=1)
        assert np.linalg.norm(report.x - expected) <= 1e-4 * np.linalg.norm(expected)

    def test_rejects_bad_shapes(self):
        g = generators.grid_2d(6, 6)
        op = factorize(g, seed=0)
        with pytest.raises(ValueError):
            op.solve(np.ones(5))
        with pytest.raises(ValueError):
            op.solve(np.ones((g.n, 2, 2)))

    def test_empty_batch_is_a_trivial_solve(self):
        """(n, 0) blocks succeed vacuously so RHS slicing needs no special case."""
        g = generators.grid_2d(6, 6)
        op = factorize(g, seed=0)
        report = op.solve(np.zeros((g.n, 0)))
        assert report.x.shape == (g.n, 0)
        assert report.converged and report.iterations == 0
        assert report.work == 0.0 and report.depth == 0.0
        assert report.column_iterations.shape == (0,)
        assert report.column_converged.shape == (0,)
        # validation still runs before the empty early-out
        with pytest.raises(ValueError):
            op.solve(np.zeros((g.n, 0)), tol=0.0)
        with pytest.raises(ValueError):
            op.solve(np.zeros((g.n, 0)), method="nope")

    def test_nonpositive_tol_rejected_per_call(self):
        """Per-call tol overrides get the same validation as SolverConfig."""
        g = generators.grid_2d(6, 6)
        op = factorize(g, seed=0)
        b = np.ones(g.n)
        b -= b.mean()
        with pytest.raises(ValueError, match="tol must be positive"):
            op.solve(b, tol=0.0)
        with pytest.raises(ValueError, match="tol must be positive"):
            op.solve(b, tol=-1e-8)
        with pytest.raises(ValueError, match="max_iterations"):
            op.solve(b, max_iterations=0)

    def test_zero_rhs_column(self):
        g = generators.grid_2d(8, 8)
        op = factorize(g, seed=0)
        batch = _batch(g, 2)
        batch[:, 1] = 0.0
        report = op.solve(batch, tol=1e-8)
        assert report.converged
        np.testing.assert_allclose(report.x[:, 1], 0.0, atol=1e-12)


class TestMethodRegistry:
    def test_builtin_methods_registered(self):
        assert SOLVE_METHODS == ("pcg", "chebyshev", "jacobi", "direct")
        for method in SOLVE_METHODS:
            assert check_method(method) == method

    def test_unknown_method_raises(self):
        with pytest.raises(ValueError, match="pcg, chebyshev, jacobi, direct"):
            check_method("nope")
        with pytest.raises(ValueError, match="unknown method 'nope'"):
            SolverConfig(method="nope")
        g = generators.grid_2d(6, 6)
        with pytest.raises(ValueError, match="unknown method 'nope'"):
            factorize(g, seed=0).solve(np.zeros(g.n), method="nope")

    @pytest.mark.parametrize("method", ["pcg", "chebyshev", "jacobi", "direct"])
    def test_every_method_solves(self, method):
        g = generators.grid_2d(10, 10)
        lap, b = _laplacian_problem(g)
        op = factorize(g, solver=SolverConfig(method=method, max_iterations=2000), seed=0)
        report = op.solve(b, tol=1e-8)
        assert report.converged
        x_exact = solve_laplacian_direct(lap, b)
        x = report.x - report.x.mean()
        assert np.linalg.norm(x - x_exact) <= 1e-4 * np.linalg.norm(x_exact)

    def test_per_call_method_override(self):
        g = generators.grid_2d(10, 10)
        op = factorize(g, seed=0)
        report = op.solve(_batch(g, 2), method="direct")
        assert report.converged
        assert report.iterations == 1


class TestChainCache:
    def test_hit_returns_same_operator(self):
        g = generators.grid_2d(10, 10)
        first = factorize(g, seed=0, cache=True)
        second = factorize(g, seed=0, cache=True)
        assert first is second
        stats = chain_cache_stats()
        assert stats.hits == 1 and stats.misses == 1 and stats.size == 1

    def test_miss_on_different_config_seed_or_graph(self):
        g = generators.grid_2d(10, 10)
        base = factorize(g, seed=0, cache=True)
        assert factorize(g, ChainConfig(kappa=36.0), seed=0, cache=True) is not base
        assert factorize(g, seed=1, cache=True) is not base
        other = generators.grid_2d(11, 10)
        assert factorize(other, seed=0, cache=True) is not base
        assert chain_cache_stats().hits == 0

    def test_per_call_defaults_share_one_factorization(self):
        """tol/max_iterations are per-call defaults, not factorization state."""
        g = generators.grid_2d(10, 10)
        base = factorize(g, seed=0, cache=True)
        loose = factorize(g, solver=SolverConfig(tol=1e-3), seed=0, cache=True)
        assert loose is base
        # but a different method is real operator state
        assert factorize(g, solver=SolverConfig(method="chebyshev"), seed=0, cache=True) is not base

    def test_facade_honors_requested_tol_on_cache_hit(self):
        g = generators.grid_2d(10, 10)
        _, b = _laplacian_problem(g)
        tight = repro.solve(g, b, seed=0, solver=SolverConfig(tol=1e-10))
        loose = repro.solve(g, b, seed=0, solver=SolverConfig(tol=1e-2))
        assert chain_cache_stats().hits == 1  # one shared factorization
        assert loose.iterations < tight.iterations
        assert tight.relative_residual <= 1e-10

    def test_non_integer_seed_bypasses_cache(self):
        g = generators.grid_2d(8, 8)
        rng = np.random.default_rng(0)
        a = factorize(g, seed=rng, cache=True)
        b = factorize(g, seed=np.random.default_rng(0), cache=True)
        assert a is not b
        assert chain_cache_stats().size == 0

    def test_matrix_inputs_are_cacheable(self):
        g = generators.grid_2d(8, 8)
        lap = graph_to_laplacian(g)
        a = factorize(lap, seed=0, cache=True)
        b = factorize(lap.copy(), seed=0, cache=True)
        assert a is b

    def test_lru_eviction(self):
        set_chain_cache_capacity(2)
        try:
            g1 = generators.grid_2d(6, 6)
            g2 = generators.grid_2d(7, 6)
            g3 = generators.grid_2d(8, 6)
            a = factorize(g1, seed=0, cache=True)
            factorize(g2, seed=0, cache=True)
            factorize(g3, seed=0, cache=True)  # evicts g1
            assert chain_cache_stats().size == 2
            assert factorize(g1, seed=0, cache=True) is not a
        finally:
            set_chain_cache_capacity(32)

    def test_facade_uses_cache(self):
        g = generators.grid_2d(10, 10)
        _, b = _laplacian_problem(g)
        r1 = repro.solve(g, b, seed=0)
        r2 = repro.solve(g, b, seed=0)
        stats = chain_cache_stats()
        assert stats.hits == 1 and stats.misses == 1
        np.testing.assert_allclose(r1.x, r2.x)

    def test_cached_operator_not_bound_to_caller_cost_model(self):
        """A shared cached operator must account into its own private model."""
        g = generators.grid_2d(9, 9)
        cost_a = CostModel()
        op = factorize(g, seed=0, cost=cost_a)  # uncached: bound to cost_a
        assert op.cost is cost_a
        clear_chain_cache()
        cost_b = CostModel()
        shared = factorize(g, seed=0, cost=cost_b, cache=True)
        assert shared.cost is not cost_b
        # the setup work performed during this call is still mirrored
        assert cost_b.work == pytest.approx(shared.setup_work)
        work_before = cost_b.work
        _, b = _laplacian_problem(g)
        factorize(g, seed=0, cache=True).solve(b)  # hit; solves elsewhere
        assert cost_b.work == work_before  # caller A's accounting untouched

    def test_facade_charges_solve_cost_on_cache_hit(self):
        g = generators.grid_2d(10, 10)
        _, b = _laplacian_problem(g)
        repro.solve(g, b, seed=0)  # populate
        cost = CostModel()
        report = repro.solve(g, b, seed=0, cost=cost)
        assert cost.work == pytest.approx(report.work)
        assert cost.work > 0


class TestFacade:
    def test_solve_on_graph(self):
        g = generators.grid_2d(12, 12)
        lap, b = _laplacian_problem(g)
        report = repro.solve(g, b, tol=1e-8, seed=0)
        assert report.converged
        x_exact = solve_laplacian_direct(lap, b)
        x = report.x - report.x.mean()
        assert np.linalg.norm(x - x_exact) <= 1e-5 * np.linalg.norm(x_exact)

    def test_solve_batched_on_sdd_matrix(self):
        mat, b = generators.weighted_sdd_system(50, 120, seed=1)
        batch = np.stack([b, 2.0 * b], axis=1)
        report = repro.solve(mat, batch, tol=1e-9, seed=1)
        assert report.converged
        x_exact = solve_sdd_direct(mat, b)
        assert np.linalg.norm(report.x[:, 0] - x_exact) <= 1e-4 * np.linalg.norm(x_exact)

    def test_operator_exposed_types(self):
        g = generators.grid_2d(6, 6)
        op = repro.factorize(g, seed=0)
        assert isinstance(op, LaplacianOperator)
        assert op.n == g.n
        assert op.shape == (g.n, g.n)
        assert op.depth == op.chain.depth
        assert sp.issparse(op.original_matrix())
