"""Bit-for-bit batch-width invariance of the solve-path sweeps.

A batched ``(n, k)`` solve must equal ``k`` single solves bit for bit.  That
holds only if every sweep the solve runs — the elimination transfers, the
CSR matvec, the column reductions and null-space projections, and the CG /
Chebyshev / Jacobi recurrences — rounds each column exactly as it would
alone.  These tests pin that property sweep by sweep, so a regression points
at the sweep that broke it rather than at a whole solve, and close with the
end-to-end solve (``test_property_random.py`` covers it over random seeds).
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core.chebyshev import chebyshev_apply
from repro.core.config import SolverConfig
from repro.core.elimination import greedy_elimination
from repro.core.operator import factorize
from repro.core.transfer import compile_transfers
from repro.graph.laplacian import graph_to_laplacian
from repro.linalg.cg import batched_conjugate_gradient
from repro.linalg.direct import ComponentProjector
from repro.linalg.jacobi import jacobi_preconditioner
from repro.linalg.norms import column_dot, column_means, column_norms

# Reference for the transfers: the per-step op-list replay, shared with the
# elimination benchmark (and ``test_transfer.py``).
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from benchmarks.bench_elimination import (  # noqa: E402
    REPLAY_RTOL,
    legacy_backward_solution as replay_backward,
    legacy_forward_rhs as replay_forward,
    max_relative_error,
)


def assert_bit_equal(a: np.ndarray, b: np.ndarray) -> None:
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape and a.dtype == b.dtype
    assert np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()


# --------------------------------------------------------------------------- #
# elimination transfers over the fuzz corpus (includes multigraphs, i.e.
# duplicate-target scatter-adds, and disconnected graphs)
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("width", [None, 3])
def test_transfers_bit_identical_across_backends(corpus_case, width):
    """The vector products (CSR/CSC matvec) and the block products
    (multi-vector matvecs) are two implementations of one transfer: every
    column of a block must match the vector path bit for bit, in both
    directions."""
    elim = greedy_elimination(corpus_case.graph, seed=13)
    transfers = compile_transfers(elim)
    rng = np.random.default_rng(99)
    n = corpus_case.graph.n
    b = rng.standard_normal(n) if width is None else rng.standard_normal((n, width))
    block = b[:, None] if width is None else b

    reduced, carry = transfers.forward(block)
    x_reduced = rng.standard_normal(reduced.shape)
    x = transfers.backward(carry, x_reduced)
    for j in range(block.shape[1]):
        reduced_j, carry_j = transfers.forward(np.ascontiguousarray(block[:, j]))
        assert_bit_equal(carry[:, j], carry_j)
        assert_bit_equal(reduced[:, j], reduced_j)
        assert_bit_equal(x[:, j], transfers.backward(carry_j, x_reduced[:, j]))


def test_transfers_default_kernels_match_explicit_reference(corpus_case):
    """Compiled block transfers agree with the per-step op-list replay per
    column to a max relative error of 1e-12 (the sparse products regroup the
    replay's sums, so agreement is to rounding, not bitwise)."""
    elim = greedy_elimination(corpus_case.graph, seed=5)
    transfers = compile_transfers(elim)
    rng = np.random.default_rng(7)
    b = rng.standard_normal((corpus_case.graph.n, 2))
    reduced, carry = transfers.forward(b)
    x_reduced = rng.standard_normal(reduced.shape)
    x = transfers.backward(carry, x_reduced)
    for j in range(b.shape[1]):
        assert max_relative_error(replay_forward(elim, b[:, j]), reduced[:, j]) <= REPLAY_RTOL
        assert (
            max_relative_error(replay_backward(elim, b[:, j], x_reduced[:, j]), x[:, j])
            <= REPLAY_RTOL
        )


# --------------------------------------------------------------------------- #
# column reductions: NumPy's pairwise summation tree, per column
# --------------------------------------------------------------------------- #
# Boundary lengths of the pairwise recursion: the <8 sequential tail, the
# 8-accumulator block at <=128, and the recursive split beyond it.
PAIRWISE_LENGTHS = [1, 2, 3, 7, 8, 9, 15, 16, 17, 63, 64, 65, 127, 128, 129, 200, 255, 256, 257, 1000]


@pytest.mark.parametrize("order", ["C", "F"])
def test_column_reductions_match_numpy_pairwise(order):
    """Each column reduces exactly like ``np.add.reduce`` on that column alone."""
    rng = np.random.default_rng(3)
    for n in PAIRWISE_LENGTHS:
        a = np.asarray(rng.standard_normal((n, 4)) * 10.0 ** rng.integers(-6, 6, (n, 4)), order=order)
        b = np.asarray(rng.standard_normal((n, 4)), order=order)
        dots, norms, means = column_dot(a, b), column_norms(a), column_means(a)
        for j in range(a.shape[1]):
            col_a = np.ascontiguousarray(a[:, j])
            col_b = np.ascontiguousarray(b[:, j])
            assert dots[j] == np.add.reduce(col_a * col_b)
            assert norms[j] == np.sqrt(np.add.reduce(col_a * col_a))
            assert means[j] == np.add.reduce(col_a) / n
            assert_bit_equal(column_dot(a[:, j : j + 1], b[:, j : j + 1]), dots[j : j + 1])


def test_subtract_gathered_matches_reference():
    """Per-component mean removal: matches the definition, width-invariant."""
    rng = np.random.default_rng(21)
    n, k, comps = 97, 3, 5
    labels = rng.permutation(np.arange(n) % comps)
    project = ComponentProjector(labels)
    v = rng.standard_normal((n, k))
    out = project(v)
    expected = v.copy()
    for c in range(comps):
        expected[labels == c] -= v[labels == c].mean(axis=0)
    np.testing.assert_allclose(out, expected, rtol=0, atol=1e-14)
    for j in range(k):
        assert_bit_equal(out[:, j], project(v[:, j]))


# --------------------------------------------------------------------------- #
# CSR matvec: SciPy's stored-entry accumulation order
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("width", [None, 1, 5])
def test_csr_matvec_bit_identical(edged_corpus_case, width):
    """Block matvecs equal per-column matvecs bitwise, in either memory order."""
    lap = graph_to_laplacian(edged_corpus_case.graph)
    rng = np.random.default_rng(17)
    n = lap.shape[0]
    if width is None:
        x = rng.standard_normal(n)
        assert_bit_equal(lap @ x, (lap @ x[:, None])[:, 0])
        return
    x = rng.standard_normal((n, width))
    y = lap @ x
    assert_bit_equal(y, lap @ np.asfortranarray(x))
    for j in range(width):
        assert_bit_equal(y[:, j], lap @ np.ascontiguousarray(x[:, j]))


# --------------------------------------------------------------------------- #
# iterative recurrences: batched CG, Chebyshev, Jacobi
# --------------------------------------------------------------------------- #
def _spd_system(seed: int = 2):
    """A well-conditioned SPD system (Laplacian + I) plus an RNG for rhs."""
    from repro.testing import fuzz_corpus

    g = next(c for c in fuzz_corpus(seed=0) if c.name == "wgrid_5x6").graph
    lap = graph_to_laplacian(g)
    mat = (lap + sp.identity(lap.shape[0], format="csr")).tocsr()
    return mat, np.random.default_rng(seed)


@pytest.mark.parametrize("k", [1, 3, 8])
def test_batched_cg_bit_identical(k):
    mat, rng = _spd_system()
    b = rng.standard_normal((mat.shape[0], k))
    res = batched_conjugate_gradient(mat.__matmul__, b, tol=1e-10, max_iterations=300)
    assert res.converged.all()
    for j in range(k):
        col = batched_conjugate_gradient(mat.__matmul__, b[:, j], tol=1e-10, max_iterations=300)
        assert_bit_equal(res.x[:, j], col.x[:, 0])
        assert res.iterations[j] == col.iterations[0]
        assert res.residuals[j] == col.residuals[0]


def test_batched_cg_fixed_iterations_bit_identical():
    mat, rng = _spd_system(seed=9)
    b = rng.standard_normal((mat.shape[0], 4))
    res = batched_conjugate_gradient(mat.__matmul__, b, fixed_iterations=11)
    for j in range(b.shape[1]):
        col = batched_conjugate_gradient(mat.__matmul__, b[:, j], fixed_iterations=11)
        assert_bit_equal(res.x[:, j], col.x[:, 0])
        assert res.residuals[j] == col.residuals[0]


def test_chebyshev_apply_bit_identical():
    mat, rng = _spd_system(seed=4)
    b = rng.standard_normal((mat.shape[0], 3))
    jac = jacobi_preconditioner(mat)

    def run(rhs):
        return chebyshev_apply(
            mat.__matmul__, jac, rhs, lambda_min=0.05, lambda_max=2.5, iterations=13
        )

    x = run(b)
    for j in range(b.shape[1]):
        assert_bit_equal(x[:, j], run(b[:, j]))


def test_jacobi_diag_scale_bit_identical():
    mat, rng = _spd_system(seed=6)
    r = rng.standard_normal((mat.shape[0], 4))
    apply = jacobi_preconditioner(mat)
    z = apply(r)
    assert_bit_equal(z, (1.0 / mat.diagonal())[:, None] * r)
    for j in range(r.shape[1]):
        assert_bit_equal(z[:, j], apply(r[:, j]))


# --------------------------------------------------------------------------- #
# end to end: factorize + solve, block against its columns
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("method", ["pcg", "chebyshev"])
def test_solve_bit_identical_across_backends(method):
    """A block solve equals per-column solves on an independently factorized
    operator, and PRAM charging is a deterministic function of the call."""
    from repro.testing import fuzz_corpus

    case = next(c for c in fuzz_corpus(seed=0) if c.name == "disconnected_grids")
    rng = np.random.default_rng(31)
    b = rng.standard_normal((case.graph.n, 3))
    b -= b.mean(axis=0)

    def operator():
        return factorize(case.graph, solver=SolverConfig(method=method), seed=8)

    block = operator().solve(b, tol=1e-8)
    other = operator()
    for j in range(b.shape[1]):
        col = other.solve(np.ascontiguousarray(b[:, j]), tol=1e-8)
        assert_bit_equal(block.x[:, j], col.x)
        assert block.column_iterations[j] == col.iterations
        assert block.column_residuals[j] == col.relative_residual
    again = other.solve(b, tol=1e-8)
    assert_bit_equal(block.x, again.x)
    assert block.iterations == again.iterations
    assert block.work == again.work and block.depth == again.depth
