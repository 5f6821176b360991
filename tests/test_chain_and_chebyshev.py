"""Tests for the preconditioner chain and preconditioned Chebyshev iteration."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core.chain import build_chain, default_bottom_size
from repro.core.chebyshev import chebyshev_apply, estimate_extreme_eigenvalues
from repro.core.config import ChainConfig, SolverConfig
from repro.graph import generators
from repro.graph.laplacian import graph_to_laplacian
from repro.pram.model import CostModel


class TestChainConstruction:
    def test_chain_levels_shrink(self):
        g = generators.grid_2d(24, 24)
        chain = build_chain(g, seed=0)
        sizes = [lvl.num_vertices for lvl in chain.levels]
        assert sizes[0] == g.n
        assert all(sizes[i + 1] < sizes[i] for i in range(len(sizes) - 1))

    def test_bottom_level_has_pseudoinverse(self):
        g = generators.grid_2d(16, 16)
        chain = build_chain(g, seed=0)
        bottom = chain.levels[-1]
        solver = chain.bottom_solver
        assert solver.n == bottom.num_vertices
        # The bottom factor applies L^+: L (L^+ (L x)) = L x on the range.
        lap = bottom.laplacian
        x = np.random.default_rng(0).standard_normal(bottom.num_vertices)
        x -= x.mean()
        assert np.allclose(lap @ solver.solve(lap @ x), lap @ x, atol=1e-6)
        block = np.random.default_rng(1).standard_normal((bottom.num_vertices, 3))
        assert np.allclose(lap @ solver.solve(lap @ block), lap @ block, atol=1e-6)

    def test_intermediate_levels_have_preconditioners(self):
        g = generators.grid_2d(20, 20)
        chain = build_chain(g, seed=1)
        for lvl in chain.levels[:-1]:
            assert lvl.sparsifier is not None
            assert lvl.elimination is not None
            assert lvl.kappa > 1
        assert chain.levels[-1].sparsifier is None

    def test_max_levels_respected(self):
        g = generators.grid_2d(24, 24)
        chain = build_chain(g, ChainConfig(max_levels=2), seed=0)
        assert chain.depth <= 2

    def test_small_graph_single_level(self):
        g = generators.grid_2d(4, 4)
        chain = build_chain(g, seed=0)
        assert chain.depth == 1

    def test_level_sizes_summary(self):
        g = generators.grid_2d(16, 16)
        chain = build_chain(g, seed=0)
        rows = chain.level_sizes()
        assert rows[0]["n"] == g.n
        assert rows[0]["level"] == 1

    def test_tree_only_ablation_builds(self):
        g = generators.grid_2d(16, 16)
        chain = build_chain(g, ChainConfig(use_tree_only=True), seed=0)
        assert chain.depth >= 1

    def test_cost_charged(self):
        g = generators.grid_2d(16, 16)
        cost = CostModel()
        build_chain(g, seed=0, cost=cost)
        assert cost.work > 0

    def test_default_bottom_size(self):
        assert default_bottom_size(1000, 0) >= 40
        assert default_bottom_size(10**9, 0) == 1000
        assert default_bottom_size(100, 12000) == min(1500, 2000)

    def test_empty_graph_rejected(self):
        from repro.graph.graph import Graph

        with pytest.raises(ValueError):
            build_chain(Graph(0, [], [], []), seed=0)


class TestChebyshev:
    @pytest.fixture(scope="class")
    def spd(self):
        rng = np.random.default_rng(0)
        m = rng.standard_normal((30, 30))
        a = sp.csr_matrix(m @ m.T + 30 * np.eye(30))
        b = rng.standard_normal(30)
        return a, b

    def test_converges_with_exact_bounds(self, spd):
        a, b = spd
        dense = a.toarray()
        eigs = np.linalg.eigvalsh(dense)
        x = chebyshev_apply(
            lambda v: a @ v,
            lambda v: v,
            b,
            lambda_min=eigs[0],
            lambda_max=eigs[-1],
            iterations=120,
        )
        assert np.allclose(a @ x, b, atol=1e-5 * np.linalg.norm(b))

    def test_more_iterations_reduce_error(self, spd):
        a, b = spd
        eigs = np.linalg.eigvalsh(a.toarray())
        errs = []
        for iters in (5, 40):
            x = chebyshev_apply(
                lambda v: a @ v, lambda v: v, b, lambda_min=eigs[0], lambda_max=eigs[-1], iterations=iters
            )
            errs.append(np.linalg.norm(a @ x - b))
        assert errs[1] < errs[0]

    def test_preconditioner_accelerates(self, spd):
        a, b = spd
        diag = a.diagonal()
        precond = lambda v: v / diag
        # bounds of the Jacobi-preconditioned system
        m_inv_a = np.diag(1.0 / diag) @ a.toarray()
        eigs = np.linalg.eigvalsh(0.5 * (m_inv_a + m_inv_a.T))
        x = chebyshev_apply(
            lambda v: a @ v, precond, b, lambda_min=max(eigs[0], 1e-6), lambda_max=eigs[-1], iterations=60
        )
        assert np.allclose(a @ x, b, atol=1e-4 * np.linalg.norm(b))

    def test_invalid_bounds(self, spd):
        a, b = spd
        with pytest.raises(ValueError):
            chebyshev_apply(lambda v: a @ v, lambda v: v, b, lambda_min=2.0, lambda_max=1.0, iterations=5)

    def test_zero_iterations_returns_x0(self, spd):
        a, b = spd
        x = chebyshev_apply(lambda v: a @ v, lambda v: v, b, lambda_min=1.0, lambda_max=2.0, iterations=0)
        assert np.allclose(x, 0.0)

    def test_laplacian_with_projection(self):
        g = generators.grid_2d(8, 8)
        lap = graph_to_laplacian(g)
        rng = np.random.default_rng(1)
        b = rng.standard_normal(g.n)
        b -= b.mean()
        eigs = np.linalg.eigvalsh(lap.toarray())
        project = lambda v: v - v.mean()
        x = chebyshev_apply(
            lambda v: lap @ v,
            lambda v: v,
            b,
            lambda_min=max(eigs[1], 1e-9),
            lambda_max=eigs[-1],
            iterations=400,
            project=project,
        )
        assert np.linalg.norm(lap @ x - b) <= 1e-4 * np.linalg.norm(b)


class TestEigenvalueEstimation:
    def test_estimates_bracket_spectrum(self):
        rng = np.random.default_rng(2)
        m = rng.standard_normal((40, 40))
        a = sp.csr_matrix(m @ m.T + 40 * np.eye(40))
        eigs = np.linalg.eigvalsh(a.toarray())
        lo, hi = estimate_extreme_eigenvalues(lambda v: a @ v, lambda v: v, 40, num_iterations=40, seed=0)
        assert lo <= eigs[0] * 1.3
        assert hi >= eigs[-1] * 0.7

    def test_identity_preconditioned_by_itself(self):
        n = 20
        ident = sp.eye(n).tocsr()
        lo, hi = estimate_extreme_eigenvalues(lambda v: ident @ v, lambda v: v, n, seed=1)
        assert lo <= 1.0 <= hi * 1.5


class TestChebyshevCalibration:
    def test_calibrates_only_levels_chebyshev_reads(self, monkeypatch):
        """Calibration estimates levels ``1 .. depth-2``, deepest first.

        Level 0 is preconditioned by the outer CG and never runs inner
        Chebyshev, so it needs no bound; every other level's estimate must
        run through inner Chebyshev below it, never fall back to inner CG.
        """
        from repro.core import operator as operator_module

        def no_inner_cg(*args, **kwargs):
            raise AssertionError("Chebyshev calibration ran inner CG")

        calls = []
        estimate = operator_module.estimate_extreme_eigenvalues

        def counting_estimate(*args, **kwargs):
            calls.append(args[2])
            return estimate(*args, **kwargs)

        monkeypatch.setattr(operator_module, "batched_conjugate_gradient", no_inner_cg)
        monkeypatch.setattr(operator_module, "estimate_extreme_eigenvalues", counting_estimate)
        op = operator_module.factorize(
            generators.grid_2d(64, 64), solver=SolverConfig(method="chebyshev"), seed=11
        )
        assert op.depth >= 3
        assert len(calls) == op.depth - 2
        # Deepest level first: the estimated sizes grow towards the top.
        assert calls == sorted(calls)
        assert calls == [op.chain.levels[i].num_vertices for i in range(op.depth - 2, 0, -1)]
