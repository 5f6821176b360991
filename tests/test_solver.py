"""End-to-end tests for the SDD solver (Theorem 1.1).

Accuracy, input handling, and cost-scaling checks driven through the public
entry points: ``repro.factorize(...).solve`` and the one-call
``repro.solve`` (with the chain cache off, so every call factorizes).
Lifecycle, batching, and cache coverage lives in ``test_api.py``.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

import repro
from repro.core.config import ChainConfig, SolverConfig
from repro.graph import generators
from repro.graph.laplacian import graph_to_laplacian
from repro.linalg.direct import solve_laplacian_direct, solve_sdd_direct
from repro.linalg.norms import relative_a_norm_error


def _solve(matrix, b, *, tol, seed, **chain_kwargs):
    """Factorize ``matrix`` and solve once (no chain cache)."""
    return repro.solve(
        matrix, b, tol=tol, seed=seed, chain=ChainConfig(**chain_kwargs), use_cache=False
    )


def _laplacian_problem(graph, seed=0):
    lap = graph_to_laplacian(graph)
    rng = np.random.default_rng(seed)
    b = rng.standard_normal(graph.n)
    b -= b.mean()
    return lap, b, solve_laplacian_direct(lap, b)


class TestLaplacianSolves:
    @pytest.mark.parametrize(
        "graph_factory",
        [
            lambda: generators.grid_2d(16, 16),
            lambda: generators.weighted_grid_2d(14, 14, seed=1, spread=1e3),
            lambda: generators.erdos_renyi_gnm(300, 1000, seed=2),
            lambda: generators.random_regular_graph(200, 4, seed=3),
        ],
    )
    def test_theorem_1_1_accuracy(self, graph_factory):
        """||x - A^+ b||_A <= eps ||A^+ b||_A for the requested tolerance."""
        g = graph_factory()
        lap, b, x_exact = _laplacian_problem(g)
        report = _solve(g, b, tol=1e-8, seed=0)
        assert report.converged
        err = relative_a_norm_error(lap, report.x - report.x.mean(), x_exact)
        assert err <= 1e-5

    def test_tighter_tolerance_gives_smaller_error(self):
        g = generators.grid_2d(14, 14)
        lap, b, x_exact = _laplacian_problem(g)
        op = repro.factorize(g, seed=0)
        loose = op.solve(b, tol=1e-3)
        tight = op.solve(b, tol=1e-10)
        err_loose = relative_a_norm_error(lap, loose.x - loose.x.mean(), x_exact)
        err_tight = relative_a_norm_error(lap, tight.x - tight.x.mean(), x_exact)
        assert err_tight <= err_loose

    def test_solver_reusable_for_multiple_rhs(self):
        g = generators.grid_2d(12, 12)
        lap = graph_to_laplacian(g)
        op = repro.factorize(g, seed=0)
        rng = np.random.default_rng(5)
        for _ in range(3):
            b = rng.standard_normal(g.n)
            b -= b.mean()
            report = op.solve(b, tol=1e-8)
            x_exact = solve_laplacian_direct(lap, b)
            assert relative_a_norm_error(lap, report.x - report.x.mean(), x_exact) <= 1e-5

    def test_chebyshev_method(self):
        g = generators.grid_2d(14, 14)
        lap, b, x_exact = _laplacian_problem(g)
        report = repro.solve(g, b, tol=1e-8, seed=0, method="chebyshev", use_cache=False)
        assert report.converged
        assert relative_a_norm_error(lap, report.x - report.x.mean(), x_exact) <= 1e-5

    def test_laplacian_matrix_input(self):
        g = generators.grid_2d(10, 10)
        lap, b, x_exact = _laplacian_problem(g)
        report = _solve(lap, b, tol=1e-8, seed=0)
        assert relative_a_norm_error(lap, report.x - report.x.mean(), x_exact) <= 1e-5

    def test_disconnected_graph(self):
        from repro.graph.graph import Graph

        # two separate paths
        g = Graph(8, [0, 1, 2, 4, 5, 6], [1, 2, 3, 5, 6, 7])
        lap = graph_to_laplacian(g)
        rng = np.random.default_rng(0)
        b = rng.standard_normal(8)
        # make b consistent per component
        b[:4] -= b[:4].mean()
        b[4:] -= b[4:].mean()
        report = _solve(g, b, tol=1e-9, seed=0)
        assert np.linalg.norm(lap @ report.x - b) <= 1e-6 * np.linalg.norm(b)

    def test_report_contents(self):
        g = generators.grid_2d(10, 10)
        _, b, _ = _laplacian_problem(g)
        op = repro.factorize(g, seed=0)
        report = op.solve(b, tol=1e-6)
        assert report.iterations > 0
        assert report.work > 0
        assert report.depth > 0
        assert op.depth >= 1

    def test_tree_only_ablation_converges(self):
        g = generators.grid_2d(12, 12)
        lap, b, x_exact = _laplacian_problem(g)
        report = _solve(g, b, tol=1e-8, seed=0, use_tree_only=True)
        assert relative_a_norm_error(lap, report.x - report.x.mean(), x_exact) <= 1e-5


class TestSDDInputs:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_general_sdd_system(self, seed):
        mat, b = generators.weighted_sdd_system(60, 150, seed=seed)
        x_exact = solve_sdd_direct(mat, b)
        report = _solve(mat, b, tol=1e-9, seed=seed)
        assert np.linalg.norm(report.x - x_exact) <= 1e-4 * np.linalg.norm(x_exact)

    def test_sdd_with_diagonal_excess_only(self):
        g = generators.grid_2d(8, 8)
        lap = graph_to_laplacian(g).tolil()
        lap[0, 0] += 3.0
        mat = sp.csr_matrix(lap)
        b = np.random.default_rng(1).standard_normal(64)
        x_exact = solve_sdd_direct(mat, b)
        report = _solve(mat, b, tol=1e-9, seed=0)
        assert np.linalg.norm(report.x - x_exact) <= 1e-4 * np.linalg.norm(x_exact)

    def test_rejects_non_sdd(self):
        mat = sp.csr_matrix(np.array([[1.0, -5.0], [-5.0, 1.0]]))
        with pytest.raises(ValueError):
            repro.factorize(mat)

    def test_rejects_bad_rhs_length(self):
        g = generators.grid_2d(6, 6)
        op = repro.factorize(g, seed=0)
        with pytest.raises(ValueError):
            op.solve(np.ones(5))

    def test_rejects_unknown_method(self):
        g = generators.grid_2d(6, 6)
        with pytest.raises(ValueError):
            repro.factorize(g, solver=SolverConfig(method="bogus"))


class TestScalingBehaviour:
    def test_work_grows_much_slower_than_direct_solve(self):
        """Charged work should fall ever further below the O(n^3) dense cost.

        (Strict near-linearity needs the paper's asymptotic parameter regime;
        what is checkable at laptop scale is that the work exponent is far
        below the dense-factorization one and the gap widens with size —
        see EXPERIMENTS.md, experiment E8.)
        """
        ratios = []
        for size in (12, 24):
            g = generators.grid_2d(size, size)
            op = repro.factorize(g, seed=0)
            b = np.random.default_rng(0).standard_normal(g.n)
            b -= b.mean()
            report = op.solve(b, tol=1e-6)
            ratios.append((op.setup_work + report.work) / float(g.n) ** 3)
        assert ratios[1] < ratios[0]
        assert ratios[1] < 0.2

    def test_depth_much_smaller_than_work(self):
        g = generators.grid_2d(20, 20)
        op = repro.factorize(g, seed=0)
        b = np.random.default_rng(0).standard_normal(g.n)
        b -= b.mean()
        report = op.solve(b, tol=1e-6)
        assert report.depth < report.work / 10.0
